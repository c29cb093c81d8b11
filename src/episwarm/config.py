"""Scenario configuration: schema, file loading, serialization, and ``build``.

The config dataclasses' annotations are the only schema: one walk over them, by
file key (``lambda``, not the attribute ``lam``), loads, dumps, resolves and sets
fields. Files are YAML (JSON loads through the same parser). Unknown keys, values
that do not fit their annotation and non-finite numbers are rejected with their
full field path. Each section checks its own ranges when built; ``build`` makes
the objects a run is made of, so whatever spans sections is checked at load too.
All defaults mirror the reference scenario, so an empty file reproduces it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import yaml

from .competition import zero_one_table
from .errors import ConfigError, IncompatibleObservation, ShapeMismatch
from .evolution import KERNEL_CONVOLUTION, EvolutionConfig, build_smoothing_matrix
from .inference import InferenceConfig
from .ledger import STRENGTH_MAX
from .likelihood import (BERNOULLI, CATEGORICAL, DISCRETIZED_GAUSSIAN, Bernoulli,
                         CategoricalTable, DiscretizedGaussian, Observation)
from .rating import RatingConfig
from .spaces import HypothesisSpace, OutcomeSpace


@dataclass
class SpaceSection:
    hypotheses: int = 10
    embedding: Optional[List[List[float]]] = None


@dataclass
class LikelihoodSection:
    kind: str = CATEGORICAL
    peak: Optional[float] = 0.7          # categorical shorthand (square table)
    rows: Optional[List[List[float]]] = None
    probs: Optional[List[float]] = None  # bernoulli
    means: Optional[List[float]] = None  # discretized-gaussian
    scale: float = 1.0
    bin_edges: Optional[List[float]] = None

    def __post_init__(self):
        if self.kind == "categorical-table":  # accepted alias
            self.kind = CATEGORICAL
        if self.kind not in (CATEGORICAL, BERNOULLI, DISCRETIZED_GAUSSIAN):
            raise ShapeMismatch(f"unknown kind {self.kind!r}")
        if self.kind == CATEGORICAL and self.rows is None and self.peak is None:
            raise ShapeMismatch("categorical model needs rows or peak")


@dataclass
class TaskSection:
    true_hypothesis: Optional[int] = 0
    observations: Optional[List[List]] = None  # [[datum, truth_label], ...]


@dataclass
class PopulationSection:
    agents: int = 50
    prior: str = "dirichlet"   # dirichlet | uniform
    dirichlet_alpha: float = 1.0
    strength0: float = 1.0

    def __post_init__(self):
        if self.agents < 1:
            raise ShapeMismatch("agents must be >= 1")
        if self.prior not in ("dirichlet", "uniform"):
            raise ShapeMismatch(f"unknown prior kind {self.prior!r}")
        if not 0 < self.dirichlet_alpha < math.inf:
            raise ShapeMismatch("dirichlet_alpha must be positive and finite")
        if not 0 < self.strength0 <= STRENGTH_MAX:
            raise ShapeMismatch(f"strength0 must lie in (0, {STRENGTH_MAX:g}]")


@dataclass
class RunSection:
    horizon: int = 500
    seed: int = 42
    mode: str = "sync"         # sync | async
    async_bound: int = 5
    out_dir: str = "out"

    def __post_init__(self):
        if self.horizon < 1:
            raise ShapeMismatch("horizon must be >= 1")
        if self.mode not in ("sync", "async"):
            raise ShapeMismatch(f"unknown mode {self.mode!r}")
        if self.async_bound < 1:
            raise ShapeMismatch("async_bound must be >= 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ShapeMismatch("seed must be a 64-bit unsigned integer")


@dataclass
class ScenarioConfig:
    space: SpaceSection = field(default_factory=SpaceSection)
    outcomes: int = 10
    likelihood: LikelihoodSection = field(default_factory=LikelihoodSection)
    task: TaskSection = field(default_factory=TaskSection)
    oracle: object = "zero-one"
    population: PopulationSection = field(default_factory=PopulationSection)
    rating: RatingConfig = field(default_factory=RatingConfig)
    inference: InferenceConfig = field(default_factory=InferenceConfig)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    run: RunSection = field(default_factory=RunSection)


# Config keys that differ from attribute names (``lambda`` is a Python keyword).
_KEY_TO_ATTR = {"lambda": "lam"}
_ATTR_TO_KEY = {v: k for k, v in _KEY_TO_ATTR.items()}

_SCALAR_TYPES = {int: ((int, np.integer), "an integer"),
                 float: ((int, float, np.integer, np.floating), "a number"),
                 str: ((str,), "a string")}


@functools.lru_cache(maxsize=None)
def _fields(cls) -> dict:
    """``{file key: (attribute, annotation)}`` of a config dataclass."""
    return {_ATTR_TO_KEY.get(attr, attr): (attr, hint)
            for attr, hint in typing.get_type_hints(cls).items()}


def _schema(cls=ScenarioConfig, prefix: str = ""):
    """``(file-key path, annotation)`` of each section, then its fields, under ``cls``."""
    for key, (_, hint) in _fields(cls).items():
        yield prefix + key, hint
        if dataclasses.is_dataclass(hint):
            yield from _schema(hint, f"{prefix}{key}.")


def _check_type(value, hint, path: str):
    """``value`` if it fits its annotation, a float field's numbers as floats: int
    refuses floats and bools, float takes finite numbers, Optional admits null,
    List checks each item, and a config dataclass is built from a mapping."""
    if dataclasses.is_dataclass(hint):
        if not isinstance(value, dict):
            raise ConfigError(path, "must be a mapping")
        fields, kwargs = _fields(hint), {}
        for key, item in value.items():
            where = f"{path}.{key}" if path else key
            if key not in fields:
                raise ConfigError(where, "unknown field")
            kwargs[fields[key][0]] = _check_type(item, fields[key][1], where)
        with _located(path or "<root>"):
            return hint(**kwargs)
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        if value is None:
            return None
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigError(path, f"must be a list, got {type(value).__name__}")
        item = (typing.get_args(hint) or (object,))[0]
        return [_check_type(v, item, f"{path}[{i}]") for i, v in enumerate(value)]
    if hint in _SCALAR_TYPES:
        allowed, name = _SCALAR_TYPES[hint]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ConfigError(path, f"must be {name}, got {value!r}")
        if hint is float:
            try:
                value = float(value)
            except OverflowError:  # an int beyond the float range
                value = math.inf
            if not math.isfinite(value):
                raise ConfigError(path, f"must be finite, got {value!r}")
    return value


@contextmanager
def _located(path: str):
    """Re-raise a constructor's complaint as a ConfigError at ``path``."""
    try:
        yield
    except (ShapeMismatch, IncompatibleObservation, TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def from_dict(data: dict) -> ScenarioConfig:
    if data is not None and not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a mapping")
    cfg = _check_type(data or {}, ScenarioConfig, "")
    build(cfg)
    return cfg


def to_dict(cfg) -> dict:
    """Nested plain-dict form using the file-format keys (inverse of from_dict)."""
    return {key: to_dict(getattr(cfg, attr)) if dataclasses.is_dataclass(hint)
            else getattr(cfg, attr) for key, (attr, hint) in _fields(type(cfg)).items()}


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = yaml.safe_load(f)
    except yaml.YAMLError as exc:
        raise ConfigError("<file>", f"cannot parse {path}: {exc}") from exc
    return from_dict(data)


def dump_config(cfg: ScenarioConfig) -> str:
    return yaml.safe_dump(to_dict(cfg), sort_keys=True)


def resolve_param(name: str) -> str:
    """Resolve a sweep parameter name ('lambda' or 'evolution.lambda') to a
    dotted section.key path; unknown names raise ConfigError."""
    schema = dict(_schema())
    if "." in name and not dataclasses.is_dataclass(schema.get(name.split(".", 1)[0])):
        raise ConfigError(name, "unknown section")
    hits = [path for path, hint in schema.items()
            if name in (path, path.rpartition(".")[2]) and not dataclasses.is_dataclass(hint)]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise ConfigError(name, "unknown field" if "." in name else "unknown parameter")
    raise ConfigError(name, f"ambiguous parameter, use one of {hits}")


def set_param(cfg: ScenarioConfig, dotted: str, value) -> ScenarioConfig:
    """New config with ``dotted`` (any name resolve_param takes) set; every check re-runs."""
    data = to_dict(cfg)
    *sections, key = resolve_param(dotted).split(".")
    functools.reduce(dict.__getitem__, sections, data)[key] = value
    return from_dict(data)


# Bytes that the arrays a run builds before its first step may take. A config
# past it would fail at load with a MemoryError, or spend minutes filling its
# priors, so it is refused; the largest shipped, test or bench config needs
# about 800 KB (the audit bench's async run), over 300 times less.
SETUP_BYTES_MAX = 1 << 28
# Bytes that a run's record (RunResult: a state matrix a step and the ledger
# columns) may reach by its horizon. A config past it would run until it is
# killed, so it is refused; the largest shipped, test or bench config needs
# about 107 MB (the audit bench), ten times less.
RECORD_BYTES_MAX = 1 << 30


def build(cfg: ScenarioConfig):
    """``(space, model, oracle, observations, smoothing)`` of a run, each made by
    the constructor that checks it, a failure raised as a ConfigError naming its
    section; observations and smoothing may be None. The model holds the outcomes."""
    # Held as ssize_t or int64 (tuple(range(k)), rng.integers): 2**63 or more overflows.
    for path, size in (("space.hypotheses", cfg.space.hypotheses), ("outcomes", cfg.outcomes),
                       ("run.horizon", cfg.run.horizon), ("run.async_bound", cfg.run.async_bound)):
        if size >= 2 ** 63:
            raise ConfigError(path, "must be below 2**63")
    # The arrays built before the first step, 8 bytes an entry, by their factors
    # (a negative factor is refused below); an async run draws each founder's steps.
    k, y, n = cfg.space.hypotheses, cfg.outcomes, cfg.population.agents
    draws = cfg.run.horizon + 1 if cfg.run.mode == "async" else 0
    arrays = [("the likelihood table", [("space.hypotheses", k), ("outcomes", y)]),
              ("the oracle table", [("outcomes", y), ("outcomes", y)]),
              ("the priors", [("population.agents", n), ("space.hypotheses", k)]),
              ("the founders' update draws", [("population.agents", n), ("run.horizon", draws)])]
    sizes = [math.prod(max(factor, 0) for _, factor in factors) for _, factors in arrays]
    if 8 * sum(sizes) > SETUP_BYTES_MAX:
        name, factors = arrays[sizes.index(max(sizes))]
        path = max(factors, key=lambda item: item[1])[0]
        product = " * ".join(str(factor) for _, factor in factors)
        raise ConfigError(path, f"needs {name} of {product} 8-byte values, past the "
                                f"{SETUP_BYTES_MAX}-byte cap on the arrays built before the "
                                "first step")
    # The record holds a (population, K + 6) int64 matrix a step, and a ledger
    # entry of about 41 bytes (LedgerColumns) per agent and step. Splits never
    # grow the population past n_star, nor past its founders when they are more.
    h, n_star = cfg.run.horizon, cfg.evolution.n_star
    live = n if n_star is None else max(n, n_star)
    if live * (k + 6) * 8 * (h + 1) + live * h * 41 > RECORD_BYTES_MAX:
        raise ConfigError("run.horizon", f"needs a record of {live} agents * ({k} + 6) * 8 B * "
                                         f"({h} + 1) steps plus {live} * {h} ledger entries of "
                                         f"41 B, past the {RECORD_BYTES_MAX}-byte cap on a "
                                         "run's record")
    with _located("space" if cfg.space.embedding is None else "space.embedding"):
        space = HypothesisSpace.indexed(cfg.space.hypotheses, embedding=cfg.space.embedding)
    # A Dirichlet prior row divides K gamma draws by their sum. Wherever K * alpha
    # nears the float maximum the draws lie within a relative 1e-140 of alpha and
    # their float sum within K * eps of K * alpha; past the maximum the sum is
    # inf and the row all zeros. Half the maximum leaves room for both.
    alpha_max = float(np.finfo(np.float64).max) / (2 * space.size)
    if cfg.population.prior == "dirichlet" and cfg.population.dirichlet_alpha > alpha_max:
        raise ConfigError("population.dirichlet_alpha",
                          f"must be at most {alpha_max!r} (float maximum / (2 * hypotheses)) "
                          "for the prior's gamma draws to sum below the float maximum")
    with _located("outcomes"):
        outcomes = OutcomeSpace.indexed(cfg.outcomes)
    n = outcomes.size

    lk = cfg.likelihood
    with _located("likelihood"):
        if lk.kind == BERNOULLI:
            model = Bernoulli(space, lk.probs)
        elif lk.kind == DISCRETIZED_GAUSSIAN:
            model = DiscretizedGaussian(space, lk.means, lk.scale, lk.bin_edges)
        elif lk.rows is not None:
            model = CategoricalTable(space, outcomes, lk.rows)
        else:
            model = CategoricalTable.peaked(space, outcomes, lk.peak)
        if model.outcomes.size != n:
            raise ShapeMismatch(f"model has {model.outcomes.size} outcomes, config has {n}")

    if isinstance(cfg.oracle, str) and cfg.oracle == "zero-one":
        oracle = zero_one_table(n)
    else:
        with _located("oracle"):
            oracle = np.asarray(cfg.oracle, dtype=float)
            if oracle.shape != (n, n) or not np.all(np.isfinite(oracle)) or np.any(oracle < 0):
                raise ShapeMismatch(f"must be zero-one or a {n}x{n} table of finite losses >= 0")
        oracle.setflags(write=False)

    t = cfg.task
    if t.observations is None and t.true_hypothesis is None:
        raise ConfigError("task", "need true_hypothesis or observations")
    if t.true_hypothesis is not None and not 0 <= t.true_hypothesis < space.size:
        raise ConfigError("task.true_hypothesis", f"outside [0, {space.size})")
    observations = None if t.observations is None else []
    for i, pair in enumerate(t.observations or ()):
        with _located(f"task.observations[{i}]"):
            datum, label = pair  # anything but a [datum, truth_label] pair raises
            if isinstance(label, bool) or not isinstance(label, int) or not 0 <= label < n:
                raise ShapeMismatch(f"truth label must be an integer in [0, {n})")
            obs = Observation(datum=datum, truth_label=label, step=i)
            model.validate_observation(obs)
        observations.append(obs)

    smoothing = None
    if cfg.evolution.mutation_kind == KERNEL_CONVOLUTION:
        with _located("evolution"):
            smoothing = build_smoothing_matrix(space, cfg.evolution.sigma_mut)
    return space, model, oracle, observations, smoothing
