"""Population lifecycle: threshold selection, attenuated doubling with prior
mutation, grace-windowed extinction, and saturation capping.

The population is stored as parallel arrays (beliefs as an (N, K) matrix) so
that split-heavy scenarios scale. An agent is removed only after its rating
has stayed at or below the extinction threshold for ``grace`` consecutive
steps; a single recovery above the threshold resets the streak.

Boundary sentinels: ``tau_rep == 1.0`` disables reproduction and
``tau_ext == 0.0`` disables extinction. Ratings are clamped onto [0, 1], so
the endpoints are attainable and the open-interval thresholds of a live run
cannot express "never triggers".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from typing import Callable, Optional

import numpy as np

from .errors import PopulationCollapse, ShapeMismatch
from .rating import replication_attenuation
from .spaces import Belief, HypothesisSpace, normalize_vector

EXP_TILT = "exp-tilt"
KERNEL_CONVOLUTION = "kernel-convolution"


class Mark(IntEnum):
    RETAIN = 0
    REPRODUCE = 1
    EXTINGUISH = 2


@dataclass(frozen=True)
class EvolutionConfig:
    tau_rep: float = 0.8
    tau_ext: float = 0.1
    grace: int = 5
    lam: float = 0.45
    sigma_mut: float = 0.05
    mutation_kind: str = EXP_TILT
    n_star: Optional[int] = 128   # None = uncapped

    def __post_init__(self):
        if not 0 < self.tau_rep <= 1:
            raise ShapeMismatch("tau_rep must lie in (0, 1]")
        if not 0 <= self.tau_ext < 1:
            raise ShapeMismatch("tau_ext must lie in [0, 1)")
        if self.tau_ext >= self.tau_rep:
            raise ShapeMismatch("tau_ext must be strictly below tau_rep")
        if self.grace < 1:
            raise ShapeMismatch("grace must be a positive integer")
        if not 0 < self.lam < 1:
            raise ShapeMismatch("lambda must lie in (0, 1)")
        if not 0 <= self.sigma_mut < math.inf:
            raise ShapeMismatch("sigma_mut must be finite and >= 0")
        if self.mutation_kind not in (EXP_TILT, KERNEL_CONVOLUTION):
            raise ShapeMismatch(f"unknown mutation kind {self.mutation_kind!r}")
        if self.n_star is not None and self.n_star < 1:
            raise ShapeMismatch("n_star must be >= 1 (or null for uncapped)")

    @property
    def reproduction_enabled(self) -> bool:
        return self.tau_rep < 1.0

    @property
    def extinction_enabled(self) -> bool:
        return self.tau_ext > 0.0


class IdAllocator:
    """Monotone agent-id source; ids are never reused within a run."""

    def __init__(self, start: int = 0):
        self.next_id = int(start)

    def take(self, n: int) -> np.ndarray:
        ids = np.arange(self.next_id, self.next_id + n, dtype=np.int64)
        self.next_id += n
        return ids


class Population:
    """Parallel-array population store. ``decay_since`` uses -1 for "no streak"."""

    __slots__ = ("space", "ids", "parent_ids", "birth_steps", "ratings", "strengths",
                 "decay_since", "belief_matrix")

    def __init__(self, space: HypothesisSpace, ids, parent_ids, birth_steps, ratings,
                 strengths, decay_since, belief_matrix):
        self.space = space
        self.ids = np.asarray(ids, dtype=np.int64)
        self.parent_ids = np.asarray(parent_ids, dtype=np.int64)
        self.birth_steps = np.asarray(birth_steps, dtype=np.int64)
        self.ratings = np.asarray(ratings, dtype=np.float64)
        self.strengths = np.asarray(strengths, dtype=np.float64)
        self.decay_since = np.asarray(decay_since, dtype=np.int64)
        self.belief_matrix = np.asarray(belief_matrix, dtype=np.float64)
        n = len(self.ids)
        for name in ("parent_ids", "birth_steps", "ratings", "strengths", "decay_since"):
            if len(getattr(self, name)) != n:
                raise ShapeMismatch(f"population arrays misaligned on {name}")
        if self.belief_matrix.shape != (n, space.size):
            raise ShapeMismatch("belief matrix misaligned with population")

    @classmethod
    def create(cls, space: HypothesisSpace, beliefs, r0: float, strength0: float = 1.0,
               ids: Optional[np.ndarray] = None, birth_step: int = 0) -> "Population":
        if len(beliefs) and isinstance(beliefs[0], Belief):
            matrix = np.stack([b.probs for b in beliefs])
        else:
            matrix = np.asarray(beliefs, dtype=np.float64)
        n = matrix.shape[0]
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        return cls(
            space=space,
            ids=ids,
            parent_ids=np.full(n, -1, dtype=np.int64),
            birth_steps=np.full(n, birth_step, dtype=np.int64),
            ratings=np.full(n, r0, dtype=np.float64),
            strengths=np.full(n, strength0, dtype=np.float64),
            decay_since=np.full(n, -1, dtype=np.int64),
            belief_matrix=matrix,
        )

    def __len__(self) -> int:
        return len(self.ids)

    def rating_mass(self) -> float:
        return float(self.ratings.sum())

    def keep(self, mask: np.ndarray) -> "Population":
        mask = np.asarray(mask, dtype=bool)
        if mask.all():
            return self
        return Population(
            space=self.space,
            ids=self.ids[mask],
            parent_ids=self.parent_ids[mask],
            birth_steps=self.birth_steps[mask],
            ratings=self.ratings[mask],
            strengths=self.strengths[mask],
            decay_since=self.decay_since[mask],
            belief_matrix=self.belief_matrix[mask],
        )


def build_smoothing_matrix(space: HypothesisSpace, sigma_mut: float) -> np.ndarray:
    """Row-stochastic Gaussian kernel over the space embedding distances."""
    if sigma_mut == 0.0:
        return np.eye(space.size)
    if space.embedding is None:
        raise ShapeMismatch("kernel-convolution mutation requires a hypothesis embedding")
    emb = space.embedding
    d2 = ((emb[:, None, :] - emb[None, :, :]) ** 2).sum(axis=2)
    w = np.exp(-d2 / (2.0 * sigma_mut ** 2))
    return w / w.sum(axis=1, keepdims=True)


def mutate_prior(rows: np.ndarray, sigma_mut: float, noise: Optional[np.ndarray], kind: str,
                 smoothing: Optional[np.ndarray] = None) -> np.ndarray:
    """Perturb inherited prior rows, one per child.

    exp-tilt: row propto row(h) * exp(sigma_mut * noise[h]) with one row of
    unit-normal noise per child.
    kernel-convolution: row = normalize(row @ smoothing) with a row-stochastic
    kernel matrix.
    sigma_mut = 0 returns the rows unchanged for both kinds.
    """
    if sigma_mut == 0.0:
        return rows
    if kind == EXP_TILT:
        if noise is None or np.shape(noise) != np.shape(rows):
            raise ShapeMismatch("exp-tilt mutation needs one unit-normal draw per row entry")
        return normalize_vector(rows * np.exp(sigma_mut * np.asarray(noise, dtype=np.float64)))
    if kind == KERNEL_CONVOLUTION:
        if smoothing is None:
            raise ShapeMismatch("kernel-convolution mutation needs a smoothing matrix")
        return normalize_vector(rows @ smoothing)
    raise ShapeMismatch(f"unknown mutation kind {kind!r}")


def select(pop: Population, cfg: EvolutionConfig) -> np.ndarray:
    """Per-agent marks: REPRODUCE iff R >= tau_rep, EXTINGUISH iff R <= tau_ext."""
    marks = np.full(len(pop), Mark.RETAIN, dtype=np.int8)
    if cfg.extinction_enabled:
        marks[pop.ratings <= cfg.tau_ext] = Mark.EXTINGUISH
    if cfg.reproduction_enabled:
        rep = pop.ratings >= cfg.tau_rep
        if np.any(marks[rep] == Mark.EXTINGUISH):
            raise ShapeMismatch("agent marked both Reproduce and Extinguish")
        marks[rep] = Mark.REPRODUCE
    return marks


def update_decay_markers(pop: Population, t: int, cfg: EvolutionConfig) -> None:
    """Maintain below-threshold streak starts; called by the engine each step."""
    if not cfg.extinction_enabled:
        return
    below = pop.ratings <= cfg.tau_ext
    started = pop.decay_since >= 0
    pop.decay_since = np.where(below, np.where(started, pop.decay_since, t), -1)


def saturation_cap(pop: Population, pending_idx: np.ndarray,
                   n_star: Optional[int]) -> np.ndarray:
    """Admit pending splits in descending parent-rating order (ties: lower id).

    Each admitted split replaces one agent by two, so admitting k splits puts
    the population at size N + k; splits are admitted while that stays within
    n_star. Excess parents are simply retained and re-marked next step.
    """
    pending_idx = np.asarray(pending_idx, dtype=np.int64)
    if n_star is None:
        return pending_idx
    room = max(0, int(n_star) - len(pop))
    if room >= len(pending_idx):
        return pending_idx
    if room == 0:
        return pending_idx[:0]
    order = np.lexsort((pop.ids[pending_idx], -pop.ratings[pending_idx]))
    return pending_idx[np.sort(order[:room])]


def extinction_sweep(pop: Population, t: int, cfg: EvolutionConfig) -> tuple:
    """Remove agents whose streak has covered a full window of grace steps.

    With ``decay_since`` the first step of the current below-threshold streak,
    the streak length at step t is t - decay_since + 1; removal fires once it
    reaches ``grace`` consecutive steps.
    """
    started = pop.decay_since >= 0
    if not started.any():
        return pop, np.empty(0, dtype=np.int64), 0.0
    doomed = started & ((t - pop.decay_since + 1) >= cfg.grace)
    removed_ids = pop.ids[doomed]
    removed_mass = float(pop.ratings[doomed].sum())
    return pop.keep(~doomed), removed_ids, removed_mass


@dataclass
class EvolveResult:
    population: Population
    spawn_count: int = 0
    death_count: int = 0
    delayed_split_count: int = 0
    split_parent_rating_sum: float = 0.0
    removed_rating_sum: float = 0.0


def evolve(pop: Population, t: int, cfg: EvolutionConfig, ids: IdAllocator,
           child_noise: Optional[Callable[[int], np.ndarray]] = None,
           smoothing: Optional[np.ndarray] = None) -> EvolveResult:
    """Composite operator: select, then reproduce under the cap, then extinguish.

    ``child_noise(child_id)`` must yield the unit-normal mutation vector for a
    child; it is only consulted for exp-tilt mutation with sigma_mut > 0, so
    noise generation can be keyed by child id independent of iteration order.
    """
    marks = select(pop, cfg)
    pending = np.flatnonzero(marks == Mark.REPRODUCE)
    admitted = saturation_cap(pop, pending, cfg.n_star)
    delayed = len(pending) - len(admitted)

    if len(admitted) > 0:
        split_mask = np.zeros(len(pop), dtype=bool)
        split_mask[admitted] = True
        split_rating_sum = float(pop.ratings[admitted].sum())

        child_ids = ids.take(2 * len(admitted))
        child_ratings = np.repeat(replication_attenuation(pop.ratings[admitted], cfg.lam), 2)
        child_strengths = np.repeat(pop.strengths[admitted], 2)
        child_parents = np.repeat(pop.ids[admitted], 2)
        child_births = np.full(2 * len(admitted), t, dtype=np.int64)
        noise = None
        if cfg.sigma_mut > 0.0 and cfg.mutation_kind == EXP_TILT:
            if child_noise is None:
                raise ShapeMismatch("exp-tilt mutation needs a child_noise source")
            noise = np.stack([child_noise(int(cid)) for cid in child_ids])
        child_beliefs = mutate_prior(np.repeat(pop.belief_matrix[admitted], 2, axis=0),
                                     cfg.sigma_mut, noise, cfg.mutation_kind,
                                     smoothing=smoothing)

        child_decay = np.full(2 * len(admitted), -1, dtype=np.int64)
        survivors = pop.keep(~split_mask)
        pop = Population(
            space=pop.space,
            ids=np.concatenate([survivors.ids, child_ids]),
            parent_ids=np.concatenate([survivors.parent_ids, child_parents]),
            birth_steps=np.concatenate([survivors.birth_steps, child_births]),
            ratings=np.concatenate([survivors.ratings, child_ratings]),
            strengths=np.concatenate([survivors.strengths, child_strengths]),
            decay_since=np.concatenate([survivors.decay_since, child_decay]),
            belief_matrix=np.concatenate([survivors.belief_matrix, child_beliefs]),
        )
        spawn_count = 2 * len(admitted)
    else:
        split_rating_sum = 0.0
        spawn_count = 0

    pop, removed_ids, removed_mass = extinction_sweep(pop, t, cfg)
    if len(pop) == 0:
        raise PopulationCollapse(step=t)

    return EvolveResult(
        population=pop,
        spawn_count=spawn_count,
        death_count=len(removed_ids),
        delayed_split_count=delayed,
        split_parent_rating_sum=split_rating_sum,
        removed_rating_sum=removed_mass,
    )
