"""Bounded rating state with shaped, noisy, learning-rate-scheduled updates.

A rating lives in [0, 1]. Each step it moves by ``learning_rate(t) * gradient``
plus an externally supplied Gaussian noise draw, then is projected back onto
[0, 1]. The gradient is a tanh-shaped, population-scaled aggregate utility, so
it is bounded in (-1, 1) and strictly increasing in utility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ShapeMismatch

HARMONIC = "harmonic"
CONSTANT = "constant"


@dataclass(frozen=True)
class RatingConfig:
    """r0: common initial rating; sigma: noise std; schedule: learning-rate rule."""

    r0: float = 0.5
    sigma: float = 0.01
    schedule: str = HARMONIC
    alpha: float = 0.05        # used when schedule == "constant"
    shape_scale: float = 1.0

    def __post_init__(self):
        if not 0 < self.r0 < 1:
            raise ShapeMismatch("r0 must lie in (0, 1)")
        if not 0 <= self.sigma < math.inf:
            raise ShapeMismatch("sigma must be finite and >= 0")
        if self.schedule not in (HARMONIC, CONSTANT):
            raise ShapeMismatch(f"unknown schedule {self.schedule!r}")
        if self.schedule == CONSTANT and not 0 < self.alpha <= 1:
            raise ShapeMismatch("constant schedule needs alpha in (0, 1]")
        if not 0 < self.shape_scale < math.inf:
            raise ShapeMismatch("shape_scale must be positive and finite")


def learning_rate(t: int, cfg: RatingConfig) -> float:
    """Non-increasing step size: 1/(t+1) for harmonic, alpha for constant."""
    if t < 0:
        raise ShapeMismatch("time index must be >= 0")
    if cfg.schedule == HARMONIC:
        return 1.0 / (t + 1)
    return cfg.alpha


def reward_gradient(utility, population_scale: float, shape_scale: float = 1.0):
    """Bounded shaped reward tanh(shape_scale * utility / population_scale) of
    each utility."""
    if population_scale <= 0:
        raise ShapeMismatch("population_scale must be positive")
    x = shape_scale * np.asarray(utility, dtype=np.float64) / population_scale
    # math.tanh per element: np.tanh rounds differently on some inputs, and the
    # gradients reach every seeded trajectory.
    return np.fromiter(map(math.tanh, x.ravel()), np.float64, x.size).reshape(x.shape)[()]


def rating_step(r, grad, t: int, cfg: RatingConfig, noise_draw):
    """One Markov rating transition of each rating, projected onto [0, 1].

    Returns ``(projected, raw)``: raw = r + learning_rate(t) * grad +
    noise_draw before the projection, which mass accounting needs. The caller
    supplies ``noise_draw`` sampled N(0, sigma^2) from its own seeded stream,
    keeping this update pure.
    """
    raw = np.asarray(r, dtype=np.float64) + learning_rate(t, cfg) * np.asarray(grad) + noise_draw
    return np.minimum(np.maximum(raw, 0.0), 1.0), raw


def replication_attenuation(r, lam: float):
    """Child rating lam * r on split; stays in [0, 1] without clamping."""
    if not 0 < lam < 1:
        raise ShapeMismatch("attenuation factor must lie in (0, 1)")
    return lam * r
