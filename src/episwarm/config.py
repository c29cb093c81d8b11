"""Scenario configuration: schema, file loading, serialization, and ``build``.

Config files are YAML (JSON is a YAML subset and loads through the same
parser). Unknown keys, values that do not fit their field annotation and
non-finite numbers are rejected with their full field path. Each section
checks its own ranges when built (``rating``, ``inference`` and ``evolution``
are the modules' own config dataclasses); ``build`` makes the objects a run is
made of, so whatever spans sections is checked at load too. All defaults
mirror the reference scenario, so an empty config file reproduces the headline
truth-concentration experiment.
"""

from __future__ import annotations

import dataclasses
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

_SECTIONS = {
    "space": SpaceSection,
    "likelihood": LikelihoodSection,
    "task": TaskSection,
    "population": PopulationSection,
    "rating": RatingConfig,
    "inference": InferenceConfig,
    "evolution": EvolutionConfig,
    "run": RunSection,
}
_SCALAR_FIELDS = ("outcomes", "oracle")
_HINTS = {cls: typing.get_type_hints(cls) for cls in (ScenarioConfig, *_SECTIONS.values())}
_SCALAR_TYPES = {int: ((int, np.integer), "an integer"),
                 float: ((int, float, np.integer, np.floating), "a number"),
                 str: ((str,), "a string")}


def _check_type(value, hint, path: str) -> None:
    """Refuse a value that does not fit its field annotation: int refuses floats and
    bools, float takes finite numbers, Optional admits null, List checks each item."""
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        if value is None:
            return
        hint = typing.get_args(hint)[0]
    if typing.get_origin(hint) is list:
        if not isinstance(value, list):
            raise ConfigError(path, f"must be a list, got {type(value).__name__}")
        for i, item in enumerate(value):
            _check_type(item, (typing.get_args(hint) or (object,))[0], f"{path}[{i}]")
    elif hint in _SCALAR_TYPES:
        allowed, name = _SCALAR_TYPES[hint]
        if isinstance(value, bool) or not isinstance(value, allowed):
            raise ConfigError(path, f"must be {name}, got {value!r}")
        if isinstance(value, (float, np.floating)) and not math.isfinite(value):
            raise ConfigError(path, f"must be finite, got {value!r}")


@contextmanager
def _located(path: str):
    """Re-raise a constructor's complaint as a ConfigError at ``path``."""
    try:
        yield
    except (ShapeMismatch, IncompatibleObservation, TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _fill_section(cls, data: dict, path: str):
    hints = _HINTS[cls]
    kwargs = {}
    for key, value in data.items():
        attr = _KEY_TO_ATTR.get(key, key)
        if attr not in hints:
            raise ConfigError(f"{path}.{key}", "unknown field")
        _check_type(value, hints[attr], f"{path}.{key}")
        kwargs[attr] = value
    with _located(path):
        return cls(**kwargs)


def from_dict(data: dict) -> ScenarioConfig:
    data = {} if data is None else data
    if not isinstance(data, dict):
        raise ConfigError("<root>", "config must be a mapping")
    kwargs = {}
    for key, value in data.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(key, "must be a mapping")
            kwargs[key] = _fill_section(_SECTIONS[key], value, key)
        elif key in _SCALAR_FIELDS:
            _check_type(value, _HINTS[ScenarioConfig][key], key)
            kwargs[key] = value
        else:
            raise ConfigError(key, "unknown field")
    cfg = ScenarioConfig(**kwargs)
    build(cfg)
    return cfg


def to_dict(cfg: ScenarioConfig) -> dict:
    """Nested plain-dict form using the file-format keys (inverse of from_dict)."""
    out: dict = {}
    for name, cls in _SECTIONS.items():
        section = getattr(cfg, name)
        out[name] = {_ATTR_TO_KEY.get(f.name, f.name): getattr(section, f.name)
                     for f in dataclasses.fields(cls)}
    out["outcomes"] = cfg.outcomes
    out["oracle"] = cfg.oracle
    return out


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
    if "." in name:
        section, key = name.split(".", 1)
        if section not in _SECTIONS:
            raise ConfigError(name, "unknown section")
        if _KEY_TO_ATTR.get(key, key) not in _HINTS[_SECTIONS[section]]:
            raise ConfigError(name, "unknown field")
        return f"{section}.{key}"
    if name in _SCALAR_FIELDS:
        return name
    attr = _KEY_TO_ATTR.get(name, name)
    hits = [f"{section}.{name}" for section, cls in _SECTIONS.items()
            if attr in _HINTS[cls]]
    if len(hits) == 1:
        return hits[0]
    if not hits:
        raise ConfigError(name, "unknown parameter")
    raise ConfigError(name, f"ambiguous parameter, use one of {hits}")


def set_param(cfg: ScenarioConfig, dotted: str, value) -> ScenarioConfig:
    """New config with one parameter replaced; every check re-runs."""
    data = to_dict(cfg)
    if "." in dotted:
        section, key = dotted.split(".", 1)
        data[section][key] = value
    else:
        data[dotted] = value
    return from_dict(data)


def build(cfg: ScenarioConfig):
    """``(space, outcomes, model, oracle, observations, smoothing)`` of a run, each
    made by the constructor that checks it, a failure raised as a ConfigError
    naming its section; observations and smoothing may be None."""
    with _located("space" if cfg.space.embedding is None else "space.embedding"):
        space = HypothesisSpace.indexed(cfg.space.hypotheses, embedding=cfg.space.embedding)
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
    return space, outcomes, model, oracle, observations, smoothing
