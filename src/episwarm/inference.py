"""Posterior updates, entropy-regularized tilts, information gain, strength dynamics.

The plain posterior update multiplies the prior by the likelihood vector and
renormalizes. The entropy-regularized variant tilts the same update toward a
uniform reference measure:

    out(h)  propto  prior(h) * L(obs | h) * (uniform(h) / prior(h))**beta

which reduces exactly to Bayes at beta = 0 and, for beta > 0, shifts mass
toward prior-disfavoured hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, NonFiniteInput, ShapeMismatch, SupportViolation
from .likelihood import LikelihoodModel, Observation
from .spaces import SUM_TOL, Belief, kl_rows, normalize_vector


@dataclass(frozen=True)
class InferenceConfig:
    """Per-run inference knobs.

    beta: entropy-regularization weight (>= 0).
    alpha_strength: global strength regularizer in (0, 1].
    gain_cap: cap on the per-step multiplicative strength ratio (> 0).
    """

    beta: float = 0.0
    alpha_strength: float = 1.0
    gain_cap: float = 10.0

    def __post_init__(self):
        if not 0 <= self.beta < math.inf:
            raise ShapeMismatch("beta must be finite and >= 0")
        if not 0 < self.alpha_strength <= 1:
            raise ShapeMismatch("alpha_strength must lie in (0, 1]")
        if not 0 < self.gain_cap < math.inf:
            raise ShapeMismatch("gain_cap must be positive and finite")


def posterior_rows(priors: np.ndarray, like: np.ndarray, beta: float) -> np.ndarray:
    """Entropy-regularized posterior of each (N, K) prior row under one
    likelihood vector; beta = 0 is exactly Bayes.

    At beta = 1 the prior drops out, so hypotheses without prior mass regain
    mass from the likelihood alone.
    """
    if beta < 0:
        raise ShapeMismatch("beta must be >= 0")
    if beta == 0.0:
        weights = priors * like[None, :]
    else:
        if beta > 1.0 and np.any(priors <= 0.0):
            # prior(h)**(1 - beta) diverges on empty support for beta > 1
            raise SupportViolation("entropy tilt with beta > 1 requires full support")
        # a beta so large that the tilt leaves the float range gives inf or NaN
        # weights, which normalize_vector refuses
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            logp = np.log(priors)
            logw = np.log(like)[None, :] - beta * math.log(priors.shape[1])
            coef = 1.0 - beta
            if coef != 0.0:
                logw = logw + coef * logp
            else:
                logw = np.broadcast_to(logw, priors.shape).copy()
            logw -= logw.max(axis=1, keepdims=True)
            weights = np.exp(logw)
    out = normalize_vector(weights)
    if (np.any(out < 0.0) or not np.all(np.isfinite(out))
            or float(np.abs(out.sum(axis=1) - 1.0).max()) > SUM_TOL):
        raise InvariantViolation("posterior produced an invalid belief row")
    return out


def posterior_update(prior: Belief, model: LikelihoodModel, obs: Observation) -> Belief:
    """Bayes: out(h) = prior(h) L(obs|h) / sum_h' prior(h') L(obs|h')."""
    return entropy_regularized_update(prior, model, obs, 0.0)


def sequential_update(prior: Belief, model: LikelihoodModel,
                      observations: Sequence[Observation]) -> Belief:
    """Left-to-right fold of posterior_update over a nonempty observation list."""
    if len(observations) == 0:
        raise ShapeMismatch("observation list must be nonempty")
    b = prior
    for obs in observations:
        b = posterior_update(b, model, obs)
    return b


def entropy_regularized_update(prior: Belief, model: LikelihoodModel, obs: Observation,
                               beta: float) -> Belief:
    """Uniform-reference tilted posterior of one belief; see ``posterior_rows``."""
    rows = posterior_rows(prior.probs[None], model.likelihood_vector(obs), beta)
    return Belief(prior.space, rows[0])


def information_gain(prior: np.ndarray, posterior: np.ndarray) -> np.ndarray:
    """KL(posterior || prior) of each row: the epistemic update magnitude, >= 0.

    +inf where the posterior has mass the prior lacks, which the beta = 1
    tilt allows.
    """
    return kl_rows(posterior, prior)


def confidence_weight(gain):
    """Canonical confidence map f(gain) = 1 + gain; f(0) = 1, strictly increasing."""
    gain = np.asarray(gain, dtype=np.float64)
    if not np.all(np.isfinite(gain)):
        raise NonFiniteInput("gain must be finite")
    if np.any(gain < 0):
        raise NonFiniteInput("gain must be nonnegative")
    return (1.0 + gain)[()]


def strength_update(strength, weight, alpha_strength: float, gain_cap: float = 10.0):
    """Multiplicative strength step alpha * weight, with per-step ratio capped.

    An infinite weight (from an infinite information gain) takes the cap.
    """
    return strength * np.minimum(alpha_strength * np.asarray(weight), gain_cap)
