"""Time-stepped simulation loop.

Per-step order, fixed for the whole system: (1) emit observation, (2) score
predictions (competition), (3) rating updates, (4) belief posterior updates
with information gain and strength updates, (5) evolution (split agents rated
at or above tau_rep, under the cap; remove agents whose rating stayed at or
below tau_ext for grace steps), (6) ledger commits for every agent present at
end of step, (7) metrics snapshot. Everything is deterministic given the config
seed; every random draw comes from the run's ``rng.Draws``.

Each phase calls its module's operation once over the population arrays: the
rows of the (N, K) belief matrix, or the ratings and strengths of the agents
active at the step. Chain heads sit in arrays indexed by agent id
(``ledger.LedgerColumns``), so a step's commits are one batched hash.

``config.run`` alone sets the mode: a run is asynchronous iff ``run.mode`` is
``async``, with window bound ``run.async_bound``. Asynchronous mode freezes both
belief and rating updates for agents whose update steps skip the step; skipped
observations are dropped, never replayed. Each agent's steps are generated from
the run's draws unless a schedule gives a founder's; they sit in one array with a
cursor per agent id, so steps must run in order 0, 1, 2, ... Evolution and
ledger commits run every step in both modes.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
from .ledger import (STRENGTH_MAX, LedgerColumns, _alongside, commit,  # noqa: F401
                     commit_rows, encode_quantized, grown, quantize_rows)
from .likelihood import predictive_distribution
from .rating import rating_step, reward_gradient
# substream stays bound though unused: bench/tracing.py wraps it here.
from .rng import Draws, substream  # noqa: F401
from .spaces import entropy_rows, tv_distance_vectors


def _sequential_sum(x: np.ndarray) -> float:
    # One term at a time, left to right, like a running total; np.sum adds
    # pairwise, and its last-digit differences would reach metrics.jsonl.
    return float(np.cumsum(x)[-1]) if len(x) else 0.0


def _check_update_steps(aid: int, steps: Sequence[int], bound: int, horizon: int) -> None:
    """Refuse a founder's update steps unless they strictly increase and every
    window [t, t+bound) inside the horizon holds one of them (RunSection refuses
    a bound below 1)."""
    if len(steps) == 0:
        if horizon > bound:
            raise ScheduleViolation(f"agent {aid}: empty update set")
        return
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ScheduleViolation(f"agent {aid}: update steps must be strictly increasing")
    if steps[0] >= bound:
        raise ScheduleViolation(f"agent {aid}: first update {steps[0]} misses window [0, {bound})")
    if any(b - a > bound for a, b in zip(steps, steps[1:])):
        raise ScheduleViolation(f"agent {aid}: update gap exceeds bound {bound}")
    if horizon - steps[-1] > bound:
        raise ScheduleViolation(f"agent {aid}: no update in final window before horizon {horizon}")


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
    """A run's record, which ``write_artifacts`` turns into files: one ScoreReport
    per scored step, one ledger.quantize_rows matrix per completed step, and
    every agent's chain as ledger.LedgerColumns."""

    config: ScenarioConfig
    metrics: List[MetricsSnapshot]
    reports: List[ScoreReport]
    chains: LedgerColumns
    statelog: List[np.ndarray]
    population: Population
    collapsed_at: Optional[int] = None

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
    """Holds the full mutable state of one run and advances it step by step.

    ``schedule`` maps founder ids to update steps that replace their generated
    ones; it needs ``run.mode: async``."""

    def __init__(self, config: ScenarioConfig,
                 schedule: Optional[Mapping[int, Sequence[int]]] = None):
        self.config = config
        self.space, self.model, self.oracle, self.observations, self.smoothing = build(config)
        self.rating_cfg = config.rating
        self.inference_cfg = config.inference
        self.evolution_cfg = config.evolution
        self.horizon = config.run.horizon
        self.draws = Draws(config.run.seed)

        n = config.population.agents
        if config.population.prior == "uniform":
            priors = np.full((n, self.space.size), 1.0 / self.space.size)
        else:
            priors = self.draws.priors(n, np.full(self.space.size,
                                                  config.population.dirichlet_alpha))
        self.ids = IdAllocator(start=n)
        self.population = Population.create(
            self.space, priors, r0=self.rating_cfg.r0,
            strength0=config.population.strength0)

        self.chains = LedgerColumns()
        # Async: _steps[:_end] holds each agent's update steps then -1; _cursor[id] is its next.
        self._steps: Optional[np.ndarray] = None
        if config.run.mode == "async":
            founders, given = self.population.ids.tolist(), schedule or {}
            unknown = sorted(set(given) - set(founders))
            if unknown:
                raise ScheduleViolation(f"agents {unknown} are not founders")
            self._steps, self._cursor, self._end = np.empty(0, np.int64), np.empty(0, np.int64), 0
            for aid, steps in zip(founders, self._schedule(founders, 0, given)):
                _check_update_steps(aid, steps, config.run.async_bound, self.horizon)
        elif schedule is not None:
            raise ScheduleViolation("an update schedule needs run.mode: async")

        self._prev_mean_entropy = float(entropy_rows(self.population.belief_matrix).mean())

    # -- helpers ---------------------------------------------------------

    def _schedule(self, aids: List[int], start: int,
                  given: Mapping[int, Sequence[int]]) -> List[Sequence[int]]:
        """Append the update steps of ``aids`` (``given``, else generated from
        step ``start``) to ``_steps``, point their cursors at them, return them."""
        drawn = [aid for aid in aids if aid not in given]
        steps = dict(zip(drawn, self.draws.update_steps(drawn, start, self.horizon,
                                                        self.config.run.async_bound)))
        runs = [given[aid] if aid in given else steps[aid] for aid in aids]
        flat = np.array([step for r in runs for step in (*r, -1)], dtype=np.int64)
        self._steps = grown(self._steps, self._end + len(flat))
        self._steps[self._end:self._end + len(flat)] = flat
        self._cursor = grown(self._cursor, max(aids, default=-1) + 1)
        self._cursor[aids] = self._end + np.cumsum([0] + [len(r) + 1 for r in runs[:-1]])
        self._end += len(flat)
        return runs

    def _active_indices(self, t: int) -> np.ndarray:
        if self._steps is None:
            return np.arange(len(self.population))
        ids = self.population.ids
        active = np.flatnonzero(self._steps[self._cursor[ids]] == t)
        self._cursor[ids[active]] += 1
        return active

    # -- one step --------------------------------------------------------

    def step(self, t: int) -> Tuple[MetricsSnapshot, StepInfo, np.ndarray]:
        """Advance one step: the metrics snapshot, the bookkeeping (with the
        ScoreReport, if any agent was scored) and the committed quantize_rows."""
        pop = self.population
        mass_before = pop.rating_mass()

        if self.observations is None:  # every agent at a step sees the same datum
            obs = self.model.emit(self.config.task.true_hypothesis, self.draws.task, t)
        else:  # a listed task has no datum past its end
            obs = self.observations[t] if t < len(self.observations) else None
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
            noise = (self.draws.rating_noise(report.agent_ids, sigma) if sigma > 0
                     else np.zeros(len(active)))
            old = pop.ratings[active]
            new, raw = rating_step(old, grads, t, self.rating_cfg, noise)
            with np.errstate(over="ignore", invalid="ignore"):
                delta_sum = _sequential_sum(raw - old)
                residue_signed = _sequential_sum(new - raw)
                residue_abs = _sequential_sum(np.abs(new - raw))
            if not all(map(math.isfinite, (delta_sum, residue_signed, residue_abs))):
                raise InvariantViolation(f"rating noise left the float range at step {t}")
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
        first_id = self.ids.next_id
        result = evolve(pop, t, self.evolution_cfg, self.ids,
                        draws=self.draws, smoothing=self.smoothing)
        self.population = result.population
        self.draws.drop(np.setdiff1d(pop.ids, self.population.ids, assume_unique=True).tolist())
        if self._steps is not None:  # children still present update from step t + 1
            born = self.population.ids[self.population.ids >= first_id]
            self._schedule(born.tolist(), t + 1, {})

        # ledger commits for every agent present at the end of the step
        quantized = quantize_rows(self.population, t)
        commit_rows(self.chains, quantized, t)
        snapshot = self._snapshot(t, active, result, abs_residue=residue_abs)
        info = StepInfo(report=report, rating_delta_sum=delta_sum,
                        clamp_residue_signed=residue_signed,
                        split_parent_rating_sum=result.split_parent_rating_sum,
                        removed_rating_sum=result.removed_rating_sum,
                        mass_before=mass_before,
                        mass_after=self.population.rating_mass())
        return snapshot, info, quantized

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


def simulate(config: ScenarioConfig, schedule: Optional[Mapping[int, Sequence[int]]] = None,
             on_step: Optional[Callable] = None) -> RunResult:
    """Run ``horizon`` steps in ``config.run.mode`` (or halt on collapse); no
    files written. ``schedule`` is as for ``Simulation``."""
    if config.run.horizon < 1:
        raise ShapeMismatch("horizon must be >= 1")
    sim = Simulation(config, schedule=schedule)
    metrics: List[MetricsSnapshot] = []
    reports: List[ScoreReport] = []
    statelog: List[np.ndarray] = []
    collapsed_at = None
    for t in range(config.run.horizon):
        try:
            snap, info, quantized = sim.step(t)
        except PopulationCollapse as exc:
            collapsed_at = exc.step
            break
        except EpiswarmError as exc:
            exc.step = t
            raise
        metrics.append(snap)
        statelog.append(quantized)
        if info.report is not None:
            reports.append(info.report)
        if on_step is not None:
            on_step(sim, snap, info)
    if not metrics and collapsed_at is not None:
        raise PopulationCollapse(step=collapsed_at)
    return RunResult(config=config, metrics=metrics, reports=reports,
                     chains=sim.chains, statelog=statelog,
                     population=sim.population, collapsed_at=collapsed_at)


# One scores.jsonl line, as json.dumps(row, separators=(",", ":")) writes it.
_SCORE_ROW = ('{"step":%d,"agent_ids":[%s],"losses":[%s],"log_scores":[%s],"fitness":[%s],'
              '"aggregate":[%s]}\n')


def _float_texts(a: np.ndarray) -> str:
    """The floats of ``a`` as json.dumps prints a list's items, comma-joined,
    each distinct bit pattern printed once. Keyed by bits, not by value:
    -0.0 equals +0.0 but prints differently, and NaN equals nothing."""
    bits = np.ascontiguousarray(a, np.float64).view(np.int64).tolist()
    distinct = list(dict.fromkeys(bits))
    texts = json.dumps(np.array(distinct, np.int64).view(np.float64).tolist())[1:-1].split(", ")
    return ",".join(map(dict(zip(distinct, texts)).__getitem__, bits))


def _write_reports(result: RunResult, paths: dict) -> None:
    """metrics.jsonl, and scores.jsonl with each distinct value of a score
    column printed once per row."""
    with open(paths["metrics"], "w", encoding="ascii") as f:
        for snap in result.metrics:
            f.write(json.dumps(vars(snap), separators=(",", ":")) + "\n")
    with open(paths["scores"], "w", encoding="ascii") as f:
        for r in result.reports:
            f.write(_SCORE_ROW % (r.step, ",".join(map(str, r.agent_ids.tolist())),
                                  *(_float_texts(a) for a in (r.losses, r.log_scores,
                                                              r.fitness, r.aggregate))))


def write_artifacts(result: RunResult, out_dir: str) -> dict:
    """Write metrics JSONL, one score row per ScoreReport, ledger, state log, and
    the summary CSV, each byte as json.dumps(row, separators=(",", ":")) (csv for
    the summary) would write it. The score columns and the state log's belief
    lists are printed once per distinct value (see ``ledger.write_state_log``).

    ``metrics.jsonl`` and ``scores.jsonl`` are written by a forked child
    process while this one writes the ledger, the state log and the summary
    (see ``ledger._alongside``); the bytes are the same where ``os.fork`` is
    missing or fails and all five run here. A write error in either process is
    raised here."""
    from .ledger import write_ledger, write_state_log

    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "metrics": os.path.join(out_dir, "metrics.jsonl"),
        "scores": os.path.join(out_dir, "scores.jsonl"),
        "ledger": os.path.join(out_dir, "ledger.tsv"),
        "statelog": os.path.join(out_dir, "statelog.jsonl"),
        "summary": os.path.join(out_dir, "summary.csv"),
    }

    def write_rest() -> None:
        write_ledger(paths["ledger"], result.chains)
        write_state_log(paths["statelog"], result.statelog)
        summary = result.summary()
        with open(paths["summary"], "w", newline="", encoding="ascii") as f:
            writer = csv.DictWriter(f, fieldnames=list(summary))
            writer.writeheader()
            writer.writerow(summary)

    _alongside(lambda: _write_reports(result, paths), write_rest)
    return paths


def default_schedule(config: ScenarioConfig) -> Dict[int, Tuple[int, ...]]:
    """The founders' generated update steps: an async run's without a schedule."""
    r, ids = config.run, range(config.population.agents)
    return dict(zip(ids, Draws(r.seed).update_steps(ids, 0, r.horizon, r.async_bound)))


def run(config: ScenarioConfig) -> Tuple[RunResult, Optional[dict]]:
    """``simulate``, then write the artifacts under ``config.run.out_dir``.

    An async run is also simulated as its synchronous twin, the same config in
    ``mode: sync``; the TV distances between the two are written to
    ``divergence.json`` and returned with the result (None for a sync run)."""
    result = simulate(config)
    divergence = None
    if config.run.mode == "async":
        twin = simulate(replace(config, run=replace(config.run, mode="sync")))
        divergence = {
            "bound": config.run.async_bound,
            "weighted_belief_tv": tv_distance_vectors(result.weighted_belief(),
                                                      twin.weighted_belief()),
            "rating_histogram_tv": tv_distance_vectors(result.rating_histogram(),
                                                       twin.rating_histogram()),
            "async_summary": result.summary(),
            "sync_summary": twin.summary(),
        }
    write_artifacts(result, config.run.out_dir)
    if divergence is not None:
        with open(os.path.join(config.run.out_dir, "divergence.json"), "w", encoding="ascii") as f:
            json.dump(divergence, f, indent=2)
    return result, divergence


SWEEP_OBSERVABLES = ("final_mass", "final_population", "final_mean_entropy",
                     "final_weighted_truth_mass")


def sweep(config: ScenarioConfig, param: str, values: Sequence) -> List[dict]:
    """Run the scenario across a 1-D parameter grid with the same seed, each
    point in its own ``run.mode``.

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
