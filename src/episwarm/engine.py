"""Time-stepped simulation loop.

Per-step order, fixed for the whole system: (1) emit observation, (2) score
predictions (competition), (3) rating updates, (4) belief posterior updates
with information gain and strength updates, (5) evolution (select, reproduce
under the cap, extinguish), (6) ledger commits for every agent present at end
of step, (7) metrics snapshot. Everything is deterministic given the config
seed; all randomness flows through named substreams.

Each phase calls its module's operation once over the population arrays: the
rows of the (N, K) belief matrix, or the ratings and strengths of the agents
active at the step. Only the random draws run per agent, from each agent's
own substream.

Asynchronous mode freezes both belief and rating updates for agents whose
update schedule skips the step; skipped observations are dropped, never
replayed. Evolution and ledger commits run every step in both modes.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# MarginMatrix stays bound though unused: bench/tracing.py wraps it here.
from .competition import (MarginMatrix, ScoreReport, aggregate_utility,  # noqa: F401
                          fitness, log_score, oracle_loss, zero_sum_tolerance)
from .config import ScenarioConfig, build, resolve_param, set_param
from .errors import (EpiswarmError, InvariantViolation, PopulationCollapse, ScheduleViolation,
                     ShapeMismatch)
from .evolution import IdAllocator, Population, evolve, update_decay_markers
from .inference import information_gain, posterior_rows, strength_update
# commit and encode_quantized stay bound though unused: bench/tracing.py wraps them here.
from .ledger import (STRENGTH_MAX, LedgerChain, commit, commit_rows,  # noqa: F401
                     encode_quantized, quantize_rows, state_log_rows)
from .likelihood import (CATEGORICAL, DISCRETIZED_GAUSSIAN, LikelihoodModel,
                         Observation, predictive_distribution)
from .rating import rating_step, reward_gradient
from .rng import (DOMAIN_MUTATION, DOMAIN_PRIOR, DOMAIN_RATING, DOMAIN_SCHEDULE,
                  DOMAIN_TASK, substream)
from .spaces import Belief, entropy_rows, tv_distance_vectors


def _sequential_sum(x: np.ndarray) -> float:
    # One term at a time, left to right, like a running total; np.sum adds
    # pairwise, and its last-digit differences would reach metrics.jsonl.
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


@dataclass
class TaskEnvironment:
    """Observation source: a fixed true hypothesis plus the task model, or an
    explicit observation schedule. Every agent at a step sees the same datum."""

    model: LikelihoodModel
    true_hypothesis: Optional[int] = None
    schedule: Optional[List[Observation]] = None

    def emit(self, t: int, rng: np.random.Generator) -> Optional[Observation]:
        if self.schedule is not None:
            return self.schedule[t] if t < len(self.schedule) else None
        h = self.true_hypothesis
        if self.model.kind == DISCRETIZED_GAUSSIAN:
            x = float(rng.normal(self.model.means[h], self.model.scale))
            return Observation(datum=x, truth_label=self.model.bin_of(x), step=t)
        # categorical / bernoulli: outcome index is both datum and truth label
        probs = (self.model.rows[h] if self.model.kind == CATEGORICAL
                 else np.array([1.0 - self.model.probs[h], self.model.probs[h]]))
        y = int(rng.choice(len(probs), p=probs))
        return Observation(datum=y, truth_label=y, step=t)


def generate_update_steps(seed: int, agent_id: int, start: int, horizon: int,
                          bound: int) -> Tuple[int, ...]:
    """Random update steps with first step in [start, start+bound) and gaps <= bound."""
    rng = substream(seed, DOMAIN_SCHEDULE, agent_id)
    s = start + int(rng.integers(0, bound))
    steps = []
    while s < horizon:
        steps.append(s)
        s += 1 + int(rng.integers(0, bound))
    return tuple(steps)


@dataclass
class AsyncSchedule:
    """Per-agent update steps plus the window bound B.

    Invariant: every listed agent has at least one update step in every
    window [t, t+B) inside the horizon.
    """

    bound: int
    update_steps: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    def validate(self, horizon: int) -> None:
        if self.bound < 1:
            raise ScheduleViolation("bound must be >= 1")
        for aid, steps in self.update_steps.items():
            if len(steps) == 0:
                if horizon > self.bound:
                    raise ScheduleViolation(f"agent {aid}: empty update set")
                continue
            if any(b <= a for a, b in zip(steps, steps[1:])):
                raise ScheduleViolation(f"agent {aid}: update steps must be strictly increasing")
            if steps[0] >= self.bound:
                raise ScheduleViolation(
                    f"agent {aid}: first update {steps[0]} misses window [0, {self.bound})")
            gaps = [b - a for a, b in zip(steps, steps[1:])]
            if any(g > self.bound for g in gaps):
                raise ScheduleViolation(f"agent {aid}: update gap exceeds bound {self.bound}")
            if horizon - steps[-1] > self.bound:
                raise ScheduleViolation(
                    f"agent {aid}: no update in final window before horizon {horizon}")


@dataclass
class MetricsSnapshot:
    """One metrics row per step; field names are the JSONL schema."""

    step: int
    population_size: int
    active_count: int
    mean_rating: float
    min_rating: float
    max_rating: float
    rating_mass: float
    mean_entropy: float
    entropy_delta: float
    belief_marginal: List[float]
    weighted_truth_mass: Optional[float]
    spawns: int
    deaths: int
    delayed_spawns: int
    clamp_residue: float
    mean_strength: float
    min_strength: float
    max_strength: float


@dataclass
class StepInfo:
    """Per-step bookkeeping for mass accounting and tests."""

    report: Optional[ScoreReport]
    rating_delta_sum: float
    clamp_residue_signed: float
    split_parent_rating_sum: float
    removed_rating_sum: float
    mass_before: float
    mass_after: float


@dataclass
class RunResult:
    config: ScenarioConfig
    metrics: List[MetricsSnapshot]
    score_rows: List[dict]
    chains: Dict[int, LedgerChain]
    # one ledger.quantize_rows matrix per completed step
    statelog: List[np.ndarray]
    population: Population
    collapsed_at: Optional[int] = None

    @property
    def statelog_rows(self) -> List[dict]:
        """Every state-log row as a dict, in file order; built on each access."""
        return [row for q in self.statelog for row in state_log_rows(q)]

    def weighted_belief(self) -> np.ndarray:
        """Rating-weighted population belief over the hypothesis space."""
        pop = self.population
        mass = pop.ratings.sum()
        if mass <= 0.0:
            return pop.belief_matrix.mean(axis=0)
        return (pop.ratings / mass) @ pop.belief_matrix

    def rating_histogram(self, bins: int = 20) -> np.ndarray:
        counts, _ = np.histogram(self.population.ratings, bins=bins, range=(0.0, 1.0))
        return counts / max(1, len(self.population))

    def summary(self) -> dict:
        final = self.metrics[-1]
        return {
            "steps_completed": len(self.metrics),
            "collapsed_at": self.collapsed_at,
            "final_population": final.population_size,
            "final_mass": final.rating_mass,
            "final_mean_entropy": final.mean_entropy,
            "final_weighted_truth_mass": final.weighted_truth_mass,
        }


class Simulation:
    """Holds the full mutable state of one run and advances it step by step."""

    def __init__(self, config: ScenarioConfig, schedule: Optional[AsyncSchedule] = None):
        self.config = config
        (self.space, self.outcomes, self.model, self.oracle, observations,
         self.smoothing) = build(config)
        self.rating_cfg = config.rating
        self.inference_cfg = config.inference
        self.evolution_cfg = config.evolution
        self.seed = config.run.seed
        self.horizon = config.run.horizon

        self.env = TaskEnvironment(self.model, true_hypothesis=config.task.true_hypothesis,
                                   schedule=observations)
        self.task_rng = substream(self.seed, DOMAIN_TASK)

        n = config.population.agents
        beliefs = [self._initial_belief(i) for i in range(n)]
        self.ids = IdAllocator(start=n)
        self.population = Population.create(
            self.space, beliefs, r0=self.rating_cfg.r0,
            strength0=config.population.strength0)

        self.chains: Dict[int, LedgerChain] = {}
        self._rating_rngs: Dict[int, np.random.Generator] = {}
        self._active_sets: Optional[Dict[int, frozenset]] = None
        self.async_bound: Optional[int] = None
        if schedule is not None:
            schedule.validate(self.horizon)
            self.async_bound = schedule.bound
            self._active_sets = {}
            for i in range(n):
                aid = int(self.population.ids[i])
                steps = schedule.update_steps.get(aid)
                if steps is None:
                    steps = generate_update_steps(self.seed, aid, 0, self.horizon,
                                                  schedule.bound)
                self._active_sets[aid] = frozenset(steps)

        self._prev_mean_entropy = float(entropy_rows(self.population.belief_matrix).mean())

    # -- helpers ---------------------------------------------------------

    def _initial_belief(self, agent_id: int) -> Belief:
        pcfg = self.config.population
        if pcfg.prior == "uniform":
            return Belief.uniform(self.space)
        rng = substream(self.seed, DOMAIN_PRIOR, agent_id)
        probs = rng.dirichlet(np.full(self.space.size, pcfg.dirichlet_alpha))
        return Belief(self.space, probs)

    def _rating_rng(self, agent_id: int) -> np.random.Generator:
        rng = self._rating_rngs.get(agent_id)
        if rng is None:
            rng = substream(self.seed, DOMAIN_RATING, agent_id)
            self._rating_rngs[agent_id] = rng
        return rng

    def _child_noise(self, child_id: int) -> np.ndarray:
        return substream(self.seed, DOMAIN_MUTATION, child_id).standard_normal(self.space.size)

    def _register_children(self, t: int) -> None:
        if self._active_sets is None:
            return
        for aid in self.population.ids:
            aid = int(aid)
            if aid not in self._active_sets:
                self._active_sets[aid] = frozenset(
                    generate_update_steps(self.seed, aid, t + 1, self.horizon,
                                          self.async_bound))

    def _active_indices(self, t: int) -> np.ndarray:
        if self._active_sets is None:
            return np.arange(len(self.population))
        return np.array([i for i in range(len(self.population))
                         if t in self._active_sets[int(self.population.ids[i])]],
                        dtype=np.int64)

    # -- one step --------------------------------------------------------

    def step(self, t: int) -> Tuple[MetricsSnapshot, StepInfo, np.ndarray, Optional[ScoreReport]]:
        pop = self.population
        if len(pop) == 0:
            raise PopulationCollapse(step=t)
        mass_before = pop.rating_mass()

        obs = self.env.emit(t, self.task_rng)
        active = self._active_indices(t)

        report = None
        delta_sum = residue_signed = residue_abs = 0.0
        if obs is not None and len(active) > 0:
            prior_rows = pop.belief_matrix[active]
            preds = predictive_distribution(self.model, prior_rows, obs)
            losses = oracle_loss(preds, obs.truth_label, self.oracle)
            scores = log_score(preds, obs.truth_label)
            agg = aggregate_utility(scores)
            if abs(float(agg.sum())) > zero_sum_tolerance(scores):
                raise InvariantViolation(f"aggregate utility violates zero-sum at step {t}")
            report = ScoreReport(step=t, agent_ids=pop.ids[active].copy(), losses=losses,
                                 fitness=fitness(losses), log_scores=scores, aggregate=agg)

            # rating updates; each agent draws its noise from its own stream
            scale = max(1.0, float(np.abs(agg).max()))
            grads = reward_gradient(agg, scale, self.rating_cfg.shape_scale)
            sigma = self.rating_cfg.sigma
            noise = (np.array([self._rating_rng(int(aid)).normal(0.0, sigma)
                               for aid in pop.ids[active]]) if sigma > 0
                     else np.zeros(len(active)))
            old = pop.ratings[active]
            new, raw = rating_step(old, grads, t, self.rating_cfg, noise)
            delta_sum = _sequential_sum(raw - old)
            residue_signed = _sequential_sum(new - raw)
            residue_abs = _sequential_sum(np.abs(new - raw))
            pop.ratings[active] = new

            # belief + strength updates. The weight 1 + gain is formed here, not
            # by confidence_weight: the beta = 1 tilt gives mass to hypotheses a
            # sparse prior lacks, and that infinite gain must take the cap.
            post_rows = posterior_rows(prior_rows, self.model.likelihood_vector(obs),
                                       self.inference_cfg.beta)
            gains = information_gain(prior_rows, post_rows)
            # saturate at the ledger-encodable maximum so state and audit
            # encoding stay identical
            pop.strengths[active] = np.minimum(
                strength_update(pop.strengths[active], 1.0 + gains,
                                self.inference_cfg.alpha_strength, self.inference_cfg.gain_cap),
                STRENGTH_MAX)
            pop.belief_matrix[active] = post_rows

        # evolution
        update_decay_markers(pop, t, self.evolution_cfg)
        result = evolve(pop, t, self.evolution_cfg, self.ids,
                        child_noise=self._child_noise, smoothing=self.smoothing)
        self.population = result.population
        self._register_children(t)

        quantized = self._commit_all(t)
        snapshot = self._snapshot(t, active, result, abs_residue=residue_abs)
        info = StepInfo(report=report, rating_delta_sum=delta_sum,
                        clamp_residue_signed=residue_signed,
                        split_parent_rating_sum=result.split_parent_rating_sum,
                        removed_rating_sum=result.removed_rating_sum,
                        mass_before=mass_before,
                        mass_after=self.population.rating_mass())
        return snapshot, info, quantized, report

    def _commit_all(self, t: int) -> np.ndarray:
        """Ledger commits for every agent present at end of step t; returns the
        step's quantized state matrix."""
        quantized = quantize_rows(self.population, t)
        commit_rows(self.chains, quantized, t)
        return quantized

    def _snapshot(self, t: int, active: np.ndarray, result, abs_residue: float) -> MetricsSnapshot:
        pop = self.population
        marginal = pop.belief_matrix.mean(axis=0)
        mean_ent = float(entropy_rows(pop.belief_matrix).mean())
        h_star = self.config.task.true_hypothesis
        mass = float(pop.ratings.sum())
        if h_star is None or mass <= 0.0:
            wtm = None
        else:
            wtm = float((pop.ratings / mass) @ pop.belief_matrix[:, h_star])
        snap = MetricsSnapshot(
            step=t,
            population_size=len(pop),
            active_count=int(len(active)),
            mean_rating=float(pop.ratings.mean()),
            min_rating=float(pop.ratings.min()),
            max_rating=float(pop.ratings.max()),
            rating_mass=mass,
            mean_entropy=mean_ent,
            entropy_delta=mean_ent - self._prev_mean_entropy,
            belief_marginal=[float(x) for x in marginal],
            weighted_truth_mass=wtm,
            spawns=result.spawn_count,
            deaths=result.death_count,
            delayed_spawns=result.delayed_split_count,
            clamp_residue=float(abs_residue),
            mean_strength=float(pop.strengths.mean()),
            min_strength=float(pop.strengths.min()),
            max_strength=float(pop.strengths.max()),
        )
        self._prev_mean_entropy = mean_ent
        return snap


def simulate(config: ScenarioConfig, schedule: Optional[AsyncSchedule] = None,
             on_step: Optional[Callable] = None) -> RunResult:
    """Run ``horizon`` steps (or halt on collapse); no files written."""
    if config.run.horizon < 1:
        raise ShapeMismatch("horizon must be >= 1")
    sim = Simulation(config, schedule=schedule)
    metrics: List[MetricsSnapshot] = []
    score_rows: List[dict] = []
    statelog: List[np.ndarray] = []
    collapsed_at = None
    for t in range(config.run.horizon):
        try:
            snap, info, quantized, report = sim.step(t)
        except PopulationCollapse as exc:
            collapsed_at = exc.step
            break
        except EpiswarmError as exc:
            exc.step = t
            raise
        metrics.append(snap)
        statelog.append(quantized)
        if report is not None:
            score_rows.append({
                "step": t,
                "agent_ids": [int(a) for a in report.agent_ids],
                "losses": [float(x) for x in report.losses],
                "log_scores": [float(x) for x in report.log_scores],
                "fitness": [float(x) for x in report.fitness],
                "aggregate": [float(x) for x in report.aggregate],
            })
        if on_step is not None:
            on_step(sim, snap, info)
        # drop the step's info and report before the next step allocates, so
        # a finished step's score arrays add nothing to the peak (a report
        # builds its margin matrix only when read)
        del info, report
    if not metrics and collapsed_at is not None:
        raise PopulationCollapse(step=collapsed_at)
    return RunResult(config=config, metrics=metrics, score_rows=score_rows,
                     chains=sim.chains, statelog=statelog,
                     population=sim.population, collapsed_at=collapsed_at)


def write_artifacts(result: RunResult, out_dir: str) -> dict:
    """Write metrics JSONL, score rows, ledger, state log, and the summary CSV."""
    from .ledger import write_ledger, write_state_log

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "metrics": os.path.join(out_dir, "metrics.jsonl"),
        "scores": os.path.join(out_dir, "scores.jsonl"),
        "ledger": os.path.join(out_dir, "ledger.tsv"),
        "statelog": os.path.join(out_dir, "statelog.jsonl"),
        "summary": os.path.join(out_dir, "summary.csv"),
    }
    with open(paths["metrics"], "w", encoding="ascii") as f:
        for snap in result.metrics:
            f.write(json.dumps(asdict(snap), separators=(",", ":")) + "\n")
    with open(paths["scores"], "w", encoding="ascii") as f:
        for row in result.score_rows:
            f.write(json.dumps(row, separators=(",", ":")) + "\n")
    write_ledger(paths["ledger"], result.chains)
    write_state_log(paths["statelog"], result.statelog)
    summary = result.summary()
    with open(paths["summary"], "w", newline="", encoding="ascii") as f:
        writer = csv.DictWriter(f, fieldnames=list(summary))
        writer.writeheader()
        writer.writerow(summary)
    return paths


def run(config: ScenarioConfig, on_step: Optional[Callable] = None) -> RunResult:
    """Synchronous run; writes artifacts under config.run.out_dir."""
    result = simulate(config, on_step=on_step)
    write_artifacts(result, config.run.out_dir)
    return result


def default_schedule(config: ScenarioConfig) -> AsyncSchedule:
    """Seed-derived schedule for the configured bound over the initial agents."""
    bound = config.run.async_bound
    steps = {aid: generate_update_steps(config.run.seed, aid, 0, config.run.horizon, bound)
             for aid in range(config.population.agents)}
    return AsyncSchedule(bound=bound, update_steps=steps)


def run_async(config: ScenarioConfig, schedule: Optional[AsyncSchedule] = None,
              on_step: Optional[Callable] = None) -> Tuple[RunResult, dict]:
    """Bounded-delay asynchronous run plus a divergence report against the
    synchronous run with the same seed. Writes async artifacts + divergence.json."""
    if schedule is None:
        schedule = default_schedule(config)
    async_result = simulate(config, schedule=schedule, on_step=on_step)
    sync_result = simulate(config)

    divergence = {
        "bound": schedule.bound,
        "weighted_belief_tv": tv_distance_vectors(async_result.weighted_belief(),
                                                  sync_result.weighted_belief()),
        "rating_histogram_tv": 0.5 * float(np.abs(async_result.rating_histogram()
                                                  - sync_result.rating_histogram()).sum()),
        "async_summary": async_result.summary(),
        "sync_summary": sync_result.summary(),
    }
    write_artifacts(async_result, config.run.out_dir)
    with open(os.path.join(config.run.out_dir, "divergence.json"), "w", encoding="ascii") as f:
        json.dump(divergence, f, indent=2)
    return async_result, divergence


SWEEP_OBSERVABLES = ("final_mass", "final_population", "final_mean_entropy",
                     "final_weighted_truth_mass")


def sweep(config: ScenarioConfig, param: str, values: Sequence) -> List[dict]:
    """Run the scenario across a 1-D parameter grid with the same seed.

    Returns one row per grid point with summary observables, a status column,
    and centered finite-difference sensitivities for interior points.
    """
    if len(values) == 0:
        raise ShapeMismatch("sweep grid must be nonempty")
    dotted = resolve_param(param)
    rows: List[dict] = []
    for v in values:
        row = {"param": dotted, "value": v, "status": "ok"}
        for name in SWEEP_OBSERVABLES:
            row[name] = None
        try:
            point = set_param(config, dotted, v)
            result = simulate(point)
            if result.collapsed_at is not None:
                row["status"] = f"collapse@{result.collapsed_at}"
            summary = result.summary()
            for name in SWEEP_OBSERVABLES:
                row[name] = summary[name]
        except Exception as exc:  # per-point failures recorded, sweep continues
            row["status"] = f"error: {exc}"
        rows.append(row)

    # centered sensitivities along the 1-D grid
    for name in SWEEP_OBSERVABLES:
        key = f"d_{name}_d_param"
        for i, row in enumerate(rows):
            row[key] = None
            if 0 < i < len(rows) - 1:
                lo, hi = rows[i - 1], rows[i + 1]
                if (lo[name] is not None and hi[name] is not None
                        and isinstance(lo["value"], (int, float))
                        and hi["value"] != lo["value"]):
                    row[key] = (hi[name] - lo[name]) / (hi["value"] - lo["value"])
    return rows


def write_sweep_csv(rows: List[dict], path: str) -> None:
    fieldnames = list(rows[0].keys())
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="ascii") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
