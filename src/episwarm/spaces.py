"""Finite hypothesis/outcome spaces and probability-vector arithmetic.

Beliefs are probability vectors on a finite hypothesis space. All divergence
and entropy computations use natural logarithms (nats).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import AllZeroWeights, NonFiniteWeight, ShapeMismatch, SupportViolation

SUM_TOL = 1e-9    # tolerance on probability sums


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class HypothesisSpace:
    """Ordered finite set of hypothesis identifiers, optionally embedded in R^m.

    The embedding, when present, is used by locality-aware mutation kernels.
    """

    ids: tuple
    embedding: Optional[np.ndarray] = None

    def __post_init__(self):
        if len(self.ids) < 1:
            raise ShapeMismatch("hypothesis space must contain at least one id")
        if len(set(self.ids)) != len(self.ids):
            raise ShapeMismatch("hypothesis ids must be unique")
        if self.embedding is not None:
            emb = np.asarray(self.embedding, dtype=np.float64)
            if emb.ndim == 1:
                emb = emb[:, None]
            if emb.shape[0] != len(self.ids):
                raise ShapeMismatch(
                    f"embedding has {emb.shape[0]} points for {len(self.ids)} hypotheses"
                )
            object.__setattr__(self, "embedding", _readonly(emb))

    @property
    def size(self) -> int:
        return len(self.ids)

    @classmethod
    def indexed(cls, k: int, embedding=None) -> "HypothesisSpace":
        """Space with ids 0..k-1."""
        return cls(ids=tuple(range(k)), embedding=embedding)


@dataclass(frozen=True)
class OutcomeSpace:
    """Ordered finite set of outcome labels (at least two)."""

    labels: tuple

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ShapeMismatch("outcome space needs at least two labels")
        if len(set(self.labels)) != len(self.labels):
            raise ShapeMismatch("outcome labels must be unique")

    @property
    def size(self) -> int:
        return len(self.labels)

    @classmethod
    def indexed(cls, n: int) -> "OutcomeSpace":
        return cls(labels=tuple(range(n)))


@dataclass(frozen=True)
class Belief:
    """Probability vector over a finite hypothesis space.

    Invariants checked on construction: entries nonnegative and finite,
    sum within SUM_TOL of one.
    """

    space: HypothesisSpace
    probs: np.ndarray = field(repr=False)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.shape != (self.space.size,):
            raise ShapeMismatch(
                f"belief has {p.shape} entries for a {self.space.size}-hypothesis space"
            )
        if not np.all(np.isfinite(p)):
            raise NonFiniteWeight("belief entries must be finite")
        if np.any(p < 0):
            raise NonFiniteWeight("belief entries must be nonnegative")
        s = float(p.sum())
        if abs(s - 1.0) > SUM_TOL:
            raise ShapeMismatch(f"belief sums to {s!r}, outside 1 +/- {SUM_TOL}")
        object.__setattr__(self, "probs", _readonly(p))

    @classmethod
    def uniform(cls, space: HypothesisSpace) -> "Belief":
        return cls(space, np.full(space.size, 1.0 / space.size))

    @classmethod
    def point_mass(cls, space: HypothesisSpace, index: int) -> "Belief":
        p = np.zeros(space.size)
        p[index] = 1.0
        return cls(space, p)


def _check_same_space(p: Belief, q: Belief):
    if p.space.size != q.space.size:
        raise ShapeMismatch("beliefs live on spaces of different size")


def normalize_vector(weights: np.ndarray) -> np.ndarray:
    """Normalize nonnegative weights to sum one along the last axis, so each
    row of an (N, K) matrix is normalized on its own (raw-array form)."""
    w = np.asarray(weights, dtype=np.float64)
    if not np.all(np.isfinite(w)):
        raise NonFiniteWeight("weights contain NaN or infinity")
    if np.any(w < 0):
        raise NonFiniteWeight("weights must be nonnegative")
    total = w.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise AllZeroWeights("cannot normalize an all-zero weight vector")
    return w / total


def normalize(weights: Sequence[float], space: HypothesisSpace) -> Belief:
    """Turn nonnegative weights into a Belief, preserving proportions."""
    return Belief(space, normalize_vector(np.asarray(weights, dtype=np.float64)))


def entropy_rows(p: np.ndarray) -> np.ndarray:
    """Shannon entropy in nats of each row, with 0*ln(0) taken as 0. Lies in [0, ln K]."""
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p)
    return -np.where(p > 0.0, terms, 0.0).sum(axis=-1)


def entropy(b: Belief) -> float:
    """Shannon entropy of one belief; see ``entropy_rows``."""
    return float(entropy_rows(b.probs))


def kl_rows(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """KL(p_i || q_i) in nats for each pair of rows, with 0*ln(0/q) taken as 0.

    A row where q has no mass and p has some gives +inf. The tiny negative
    residue of float cancellation when p ~ q is clipped to 0.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = p * np.log(p / q)
    return np.maximum(np.where(p > 0.0, terms, 0.0).sum(axis=-1), 0.0)


def kl_divergence(p: Belief, q: Belief) -> float:
    """KL(p || q) in nats. Requires q > 0 wherever p > 0."""
    _check_same_space(p, q)
    if np.any(q.probs[p.probs > 0.0] <= 0.0):
        raise SupportViolation("q has zero mass where p is positive")
    return float(kl_rows(p.probs, q.probs))


def tv_distance(p: Belief, q: Belief) -> float:
    """Total variation distance (1/2) sum |p_i - q_i|, in [0, 1]."""
    _check_same_space(p, q)
    return tv_distance_vectors(p.probs, q.probs)


def tv_distance_vectors(p: np.ndarray, q: np.ndarray) -> float:
    if len(p) != len(q):
        raise ShapeMismatch("vectors of different length")
    return 0.5 * float(np.abs(np.asarray(p, dtype=float) - np.asarray(q, dtype=float)).sum())
