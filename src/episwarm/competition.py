"""Truth-oracle scoring: losses, fitness, pairwise margins, aggregate utility.

Sign conventions, fixed once for the whole system: ``oracle_loss`` and
``log_score`` are losses (lower is better); ``fitness`` and the aggregate
margin utility are rewards (higher is better). The rating gradient consumes
the aggregate utility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch, ZeroMassOnTruth


def zero_one_table(n_outcomes: int) -> np.ndarray:
    """Default oracle: loss 0 on the truth, 1 elsewhere."""
    t = 1.0 - np.eye(n_outcomes)
    t.setflags(write=False)
    return t


@dataclass(frozen=True)
class MarginMatrix:
    """Skew-symmetric matrix of pairwise log-ratio advantages on the truth outcome."""

    n: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        e = np.asarray(self.entries, dtype=np.float64)
        if e.shape != (self.n, self.n):
            raise ShapeMismatch(f"margin matrix shape {e.shape} != ({self.n}, {self.n})")
        if np.any(np.diagonal(e) != 0.0):
            raise ShapeMismatch("margin matrix must have a zero diagonal")
        if not np.array_equal(e, -e.T):
            raise ShapeMismatch("margin matrix must be exactly skew-symmetric")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True)
class ScoreReport:
    """Per-step competition scores for the agents evaluated at that step."""

    step: int
    agent_ids: np.ndarray
    losses: np.ndarray
    fitness: np.ndarray
    log_scores: np.ndarray
    margins: MarginMatrix
    aggregate: np.ndarray


def oracle_loss(pred: np.ndarray, truth_label: int, oracle: np.ndarray):
    """Expected loss sum_y pred(y) * oracle(y, truth) of one prediction or of
    each row of an (N, Y) prediction matrix."""
    pred = np.asarray(pred, dtype=np.float64)
    oracle = np.asarray(oracle, dtype=np.float64)
    n = pred.shape[-1]
    if oracle.shape != (n, n):
        raise ShapeMismatch(f"oracle table {oracle.shape} does not match {n} outcomes")
    if not 0 <= truth_label < n:
        raise ShapeMismatch(f"truth label {truth_label} outside [0, {n})")
    return pred @ oracle[:, truth_label]


def log_score(pred: np.ndarray, truth_label: int):
    """Negative log mass on the realized truth, -ln pred(truth), of one
    prediction or of each prediction row."""
    pred = np.asarray(pred, dtype=np.float64)
    if not 0 <= truth_label < pred.shape[-1]:
        raise ShapeMismatch(f"truth label {truth_label} outside [0, {pred.shape[-1]})")
    mass = pred[..., truth_label]
    if np.any(mass <= 0.0):
        raise ZeroMassOnTruth("prediction assigns zero mass to the true outcome")
    return -np.log(mass)


def fitness(loss):
    """Map each nonnegative loss into (0, 1] via 1 / (1 + loss)."""
    loss = np.asarray(loss, dtype=np.float64)
    if np.any(loss < 0) or not np.all(np.isfinite(loss)):
        raise ShapeMismatch("loss must be finite and >= 0")
    return (1.0 / (1.0 + loss))[()]


def margin_entries(log_scores: np.ndarray) -> np.ndarray:
    """Pairwise margins M(i, j) = ln(pred_i(truth) / pred_j(truth)) from the
    agents' log scores.

    Built as an outer difference, which is exactly skew-symmetric in floating
    point.
    """
    s = -np.asarray(log_scores, dtype=np.float64)
    entries = s[:, None] - s[None, :]
    np.fill_diagonal(entries, 0.0)
    return entries


def margin_matrix(preds: Sequence[np.ndarray], truth_label: int) -> MarginMatrix:
    """Margin matrix of a list of predictions; see ``margin_entries``."""
    entries = margin_entries(log_score(np.stack(preds), truth_label))
    return MarginMatrix(n=len(entries), entries=entries)


def aggregate_utility(m: MarginMatrix) -> np.ndarray:
    """Row sums U_i = sum_{j != i} M(i, j); sums to zero by skew-symmetry."""
    return m.entries.sum(axis=1)
