"""Population lifecycle: threshold doubling with prior mutation, grace-windowed
extinction, and saturation capping.

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
from typing import Optional

import numpy as np

from .errors import PopulationCollapse, ShapeMismatch
from .rating import replication_attenuation
from .spaces import HypothesisSpace, normalize_vector

EXP_TILT = "exp-tilt"
KERNEL_CONVOLUTION = "kernel-convolution"


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
    """The agents as columns: each column ``COLUMNS`` names (with its dtype)
    holds one entry per agent, ``belief_matrix`` one (K,) row; ``decay_since``
    uses -1 for "no streak". A missing, extra or misaligned column raises
    ShapeMismatch."""

    COLUMNS = {"ids": np.int64, "parent_ids": np.int64, "birth_steps": np.int64,
               "ratings": np.float64, "strengths": np.float64, "decay_since": np.int64,
               "belief_matrix": np.float64}
    __slots__ = ("space", *COLUMNS)

    def __init__(self, space: HypothesisSpace, **columns):
        if columns.keys() != self.COLUMNS.keys():
            raise ShapeMismatch(f"population columns {sorted(columns)} are not "
                                f"{sorted(self.COLUMNS)}")
        self.space = space
        for name, dtype in self.COLUMNS.items():
            setattr(self, name, np.asarray(columns[name], dtype=dtype))
        n = len(self.ids)
        for name in self.COLUMNS:
            if np.shape(getattr(self, name))[:1] != (n,):
                raise ShapeMismatch(f"population arrays misaligned on {name}")
        if self.belief_matrix.shape != (n, space.size):
            raise ShapeMismatch("belief matrix misaligned with population")

    @classmethod
    def create(cls, space: HypothesisSpace, belief_matrix, r0: float, strength0: float = 1.0,
               ids: Optional[np.ndarray] = None, birth_step: int = 0) -> "Population":
        """Founders: one agent per row of the (N, K) ``belief_matrix``."""
        n = len(belief_matrix)
        return cls(space, ids=np.arange(n) if ids is None else ids,
                   parent_ids=np.full(n, -1), birth_steps=np.full(n, birth_step),
                   ratings=np.full(n, r0), strengths=np.full(n, strength0),
                   decay_since=np.full(n, -1), belief_matrix=belief_matrix)

    def __len__(self) -> int:
        return len(self.ids)

    def rating_mass(self) -> float:
        return float(self.ratings.sum())

    def keep(self, mask: np.ndarray) -> "Population":
        mask = np.asarray(mask, dtype=bool)
        if mask.all():
            return self
        return Population(self.space, **{name: getattr(self, name)[mask]
                                         for name in self.COLUMNS})

    def extend(self, **columns) -> "Population":
        """A new population: these agents, then the agents given as ``columns``."""
        tail = Population(self.space, **columns)
        return Population(self.space, **{
            name: np.concatenate([getattr(self, name), getattr(tail, name)])
            for name in self.COLUMNS})


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
        # a tilt past the float range gives inf or NaN weights, which normalize_vector refuses
        with np.errstate(over="ignore", invalid="ignore"):
            weights = rows * np.exp(sigma_mut * np.asarray(noise, dtype=np.float64))
        return normalize_vector(weights)
    if kind == KERNEL_CONVOLUTION:
        if smoothing is None:
            raise ShapeMismatch("kernel-convolution mutation needs a smoothing matrix")
        return normalize_vector(rows @ smoothing)
    raise ShapeMismatch(f"unknown mutation kind {kind!r}")


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
    """What ``evolve`` decided: the children it created (``born_ids``, ascending),
    the parents they replaced (``split_ids``) and the extinct (``removed_ids``)."""
    population: Population
    born_ids: np.ndarray
    split_ids: np.ndarray
    removed_ids: np.ndarray
    delayed_split_count: int = 0
    split_parent_rating_sum: float = 0.0
    removed_rating_sum: float = 0.0


def evolve(pop: Population, t: int, cfg: EvolutionConfig, ids: IdAllocator,
           draws=None, smoothing: Optional[np.ndarray] = None) -> EvolveResult:
    """Composite operator: split every agent rated at or above tau_rep (if
    reproduction is enabled) under the cap, then extinguish by grace window.

    ``draws`` (an ``rng.Draws``) gives the children's unit-normal mutation rows
    in one ``mutation`` call per split batch; it is only consulted for exp-tilt
    mutation with sigma_mut > 0.
    """
    pending = (np.flatnonzero(pop.ratings >= cfg.tau_rep) if cfg.reproduction_enabled
               else np.empty(0, dtype=np.int64))
    admitted = saturation_cap(pop, pending, cfg.n_star)
    split_ids = pop.ids[admitted]
    child_ids = ids.take(2 * len(admitted))
    split_rating_sum = float(pop.ratings[admitted].sum())

    if len(admitted) > 0:
        split_mask = np.zeros(len(pop), dtype=bool)
        split_mask[admitted] = True
        noise = None
        if cfg.sigma_mut > 0.0 and cfg.mutation_kind == EXP_TILT:
            if draws is None:
                raise ShapeMismatch("exp-tilt mutation needs a draws source")
            noise = draws.mutation(child_ids, pop.space.size)
        pop = pop.keep(~split_mask).extend(
            ids=child_ids,
            parent_ids=np.repeat(split_ids, 2),
            birth_steps=np.full(2 * len(admitted), t),
            ratings=np.repeat(replication_attenuation(pop.ratings[admitted], cfg.lam), 2),
            strengths=np.repeat(pop.strengths[admitted], 2),
            decay_since=np.full(2 * len(admitted), -1),
            belief_matrix=mutate_prior(np.repeat(pop.belief_matrix[admitted], 2, axis=0),
                                       cfg.sigma_mut, noise, cfg.mutation_kind,
                                       smoothing=smoothing))

    pop, removed_ids, removed_mass = extinction_sweep(pop, t, cfg)
    if len(pop) == 0:
        raise PopulationCollapse(step=t)

    return EvolveResult(
        population=pop,
        born_ids=child_ids,
        split_ids=split_ids,
        removed_ids=removed_ids,
        delayed_split_count=len(pending) - len(admitted),
        split_parent_rating_sum=split_rating_sum,
        removed_rating_sum=removed_mass,
    )
