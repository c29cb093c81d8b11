"""Truth-oracle scoring: losses, fitness, pairwise margins, aggregate utility.

Sign conventions, fixed once for the whole system: ``oracle_loss`` and
``log_score`` are losses (lower is better); ``fitness`` and the aggregate
margin utility are rewards (higher is better). The rating gradient consumes
the aggregate utility.

The aggregate utility U_i = sum_j M(i, j) is computed from the log scores
once per distinct score, a block of rows at a time, so a step never holds the
N x N margin matrix and costs O(N u) for u distinct scores; its row sums are
bitwise equal to those of ``margin_entries``. The matrix itself
(``MarginMatrix(n, margin_entries(log_scores))``) is built only on demand, for
checks and inspection. ``zero_sum_tolerance`` bounds the rounding error of
sum_i U_i, which is exactly zero in real arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


# Rows of the margin matrix formed at once by aggregate_utility: 64 x N
# float64 values, 1 MB at N = 2000.
_BLOCK_ROWS = 64


def aggregate_utility(log_scores: np.ndarray) -> np.ndarray:
    """Row sums U_i = sum_j M(i, j) of the margin matrix of ``log_scores``.

    Agents with equal scores have bitwise equal margin rows, so a row sum is
    computed once for each distinct score v of s = -log_scores, as the sum
    over j of v - s_j, and handed to every agent with that score. The rows of
    the distinct scores are formed a block at a time, as the same outer
    difference as in ``margin_entries`` against the whole of s, and reduced
    along the same contiguous axis, so every U_i adds the same N values in
    the same order whichever rows share its block: the result is bitwise
    equal to ``margin_entries(log_scores).sum(axis=1)``. (The diagonal
    v - v is already +0.0 for finite scores.) Work is O(N u) for u distinct
    scores, O(N^2) only when all differ. Sums to zero up to rounding, see
    ``zero_sum_tolerance``.

    ``np.unique`` merges two kinds of values that are not bitwise equal:

    * +0.0 and -0.0. Terms v - s_j then differ at most in the sign of a zero
      term, which leaves every non-zero partial sum unchanged; and every row
      holds a +0.0 term (its own diagonal), so a zero sum is +0.0 either way.
      Engine scores are never -0.0, but the function is public.
    * NaN. A NaN score makes every term of its row NaN, and so the row sum,
      whichever NaN stands for it.
    """
    s = -np.asarray(log_scores, dtype=np.float64)
    values, inverse = np.unique(s, return_inverse=True)
    out = np.empty(len(values))
    for a in range(0, len(values), _BLOCK_ROWS):
        out[a:a + _BLOCK_ROWS] = (values[a:a + _BLOCK_ROWS, None] - s[None, :]).sum(axis=1)
    return out[inverse]


def zero_sum_tolerance(log_scores: np.ndarray) -> float:
    """Bound on |fl(sum_i U_i)| for U = aggregate_utility(log_scores), summed
    with ``np.sum``.

    Derivation (Higham, "The accuracy of floating point summation", SIAM J.
    Sci. Comput. 14, 1993). Let u = eps / 2 be the unit roundoff,
    gamma_d = d u / (1 - d u), s = -log_scores and S = sum_j |s_j|.

    * The differences d_ij = fl(s_i - s_j) are rounded, but round-to-nearest
      is symmetric, so d_ji = -d_ij exactly and sum_ij d_ij = 0 exactly: the
      differences add no error to the total.
    * A sum whose terms each pass through at most d roundings has error at
      most gamma_d times the sum of the terms' absolute values. numpy sums a
      contiguous run of n values pairwise, in blocks of at most 128 with
      eight interleaved accumulators: at most 15 + 3 + 7 = 25 roundings
      inside a block, and one more per halving above it, so
      d = ceil(log2 n) + 25 bounds every term's depth.
    * Row sums: sum_i |U_i - sum_j d_ij| <= gamma_d sum_ij |d_ij|, and
      sum_ij |d_ij| <= (1 + u) sum_ij (|s_i| + |s_j|) = (1 + u) 2 N S.
    * Final sum: |fl(sum_i U_i) - sum_i U_i| <= gamma_d sum_i |U_i|
      <= gamma_d (1 + gamma_d) (1 + u) 2 N S.

    Together |fl(sum_i U_i)| <= 4 gamma_d (1 + gamma_d) (1 + u) N S, about
    2 d eps N S. One more factor (1 + gamma_d) covers the rounding of S
    itself. The reference (N = 50) and N = 2000 scenarios stay more than 500
    times below it; a fixed absolute tolerance does not scale, since
    |sum_i U_i| grows like N S.
    """
    s = np.asarray(log_scores, dtype=np.float64)
    n = len(s)
    u = np.finfo(np.float64).eps / 2.0
    d = math.ceil(math.log2(max(n, 1))) + 25
    gamma = d * u / (1.0 - d * u)
    return 4.0 * gamma * (1.0 + gamma) ** 2 * (1.0 + u) * n * float(np.abs(s).sum())
