"""Scenario configuration: schema, validation, file loading, serialization.

Config files are YAML (JSON is a YAML subset and loads through the same
parser). The schema is nested; unknown keys and values that do not fit their
field annotation are rejected with their full field path. ``rating``,
``inference`` and ``evolution`` are the modules' own config dataclasses, which
check their ranges when built. All defaults mirror the reference scenario, so
an empty config file reproduces the headline truth-concentration experiment.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
import yaml

from .competition import zero_one_table
from .errors import ConfigError, ShapeMismatch
from .evolution import EvolutionConfig
from .inference import InferenceConfig
from .ledger import STRENGTH_MAX
from .likelihood import (BERNOULLI, CATEGORICAL, DISCRETIZED_GAUSSIAN, Bernoulli,
                         CategoricalTable, DiscretizedGaussian)
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


@dataclass
class RunSection:
    horizon: int = 500
    seed: int = 42
    mode: str = "sync"         # sync | async
    async_bound: int = 5
    out_dir: str = "out"


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
    """Refuse a value that does not fit its field annotation: int refuses floats
    and bools, float takes ints, Optional admits null, List checks each item."""
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


def _fill_section(cls, data: dict, path: str):
    hints = _HINTS[cls]
    kwargs = {}
    for key, value in data.items():
        attr = _KEY_TO_ATTR.get(key, key)
        if attr not in hints:
            raise ConfigError(f"{path}.{key}", "unknown field")
        _check_type(value, hints[attr], f"{path}.{key}")
        kwargs[attr] = value
    try:
        return cls(**kwargs)
    except (ShapeMismatch, TypeError) as exc:
        raise ConfigError(path, str(exc)) from exc


def from_dict(data: dict) -> ScenarioConfig:
    if data is None:
        data = {}
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
    if cfg.likelihood.kind == "categorical-table":  # accepted alias
        cfg.likelihood.kind = CATEGORICAL
    validate(cfg)
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


def validate(cfg: ScenarioConfig) -> None:
    """Cross-field and range checks of the sections config.py declares, with
    field paths; ``rating``, ``inference`` and ``evolution`` check themselves."""
    def bad(fieldpath, msg):
        raise ConfigError(fieldpath, msg)

    if cfg.space.hypotheses < 1:
        bad("space.hypotheses", "must be >= 1")
    if cfg.outcomes < 2:
        bad("outcomes", "must be >= 2")
    emb = cfg.space.embedding
    if emb is not None and (len(emb) != cfg.space.hypotheses or len({len(p) for p in emb}) > 1):
        bad("space.embedding", f"needs exactly {cfg.space.hypotheses} points of one dimension")

    lk = cfg.likelihood
    if lk.kind not in (CATEGORICAL, BERNOULLI, DISCRETIZED_GAUSSIAN):
        bad("likelihood.kind", f"unknown kind {lk.kind!r}")
    if lk.kind == CATEGORICAL and lk.rows is None and lk.peak is None:
        bad("likelihood", "categorical model needs rows or peak")
    if lk.kind == CATEGORICAL and lk.rows is None and lk.peak is not None:
        if not 0 < lk.peak < 1:
            bad("likelihood.peak", "must lie in (0, 1)")
        if cfg.outcomes != cfg.space.hypotheses:
            bad("likelihood.peak", "peaked shorthand requires outcomes == hypotheses")
    if lk.kind == BERNOULLI:
        if lk.probs is None:
            bad("likelihood.probs", "bernoulli model needs per-hypothesis probabilities")
        if cfg.outcomes != 2:
            bad("outcomes", "bernoulli model requires exactly 2 outcomes")
    if lk.kind == DISCRETIZED_GAUSSIAN:
        if lk.means is None or lk.bin_edges is None:
            bad("likelihood", "gaussian model needs means and bin_edges")
        if len(lk.bin_edges) - 1 != cfg.outcomes:
            bad("likelihood.bin_edges", f"must define exactly {cfg.outcomes} bins")

    t = cfg.task
    if t.observations is None:
        if t.true_hypothesis is None:
            bad("task", "need true_hypothesis or observations")
        if not 0 <= t.true_hypothesis < cfg.space.hypotheses:
            bad("task.true_hypothesis", f"outside [0, {cfg.space.hypotheses})")
    else:
        for i, pair in enumerate(t.observations):
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                bad(f"task.observations[{i}]", "must be a [datum, truth_label] pair")
            if not isinstance(pair[1], int) or not 0 <= pair[1] < cfg.outcomes:
                bad(f"task.observations[{i}]",
                    f"truth label must be an integer in [0, {cfg.outcomes})")

    if cfg.oracle != "zero-one":
        try:
            table = np.asarray(cfg.oracle, dtype=float)
        except (TypeError, ValueError):
            bad("oracle", "must be zero-one or a numeric loss table")
        if table.shape != (cfg.outcomes, cfg.outcomes):
            bad("oracle", f"loss table must be {cfg.outcomes}x{cfg.outcomes}")
        if np.any(table < 0) or not np.all(np.isfinite(table)):
            bad("oracle", "loss table entries must be finite and >= 0")

    p = cfg.population
    if p.agents < 1:
        bad("population.agents", "must be >= 1")
    if p.prior not in ("dirichlet", "uniform"):
        bad("population.prior", f"unknown prior kind {p.prior!r}")
    if p.dirichlet_alpha <= 0:
        bad("population.dirichlet_alpha", "must be positive")
    if not 0 < p.strength0 <= STRENGTH_MAX:
        bad("population.strength0", f"must lie in (0, {STRENGTH_MAX:g}]")

    if cfg.run.horizon < 1:
        bad("run.horizon", "must be >= 1")
    if cfg.run.mode not in ("sync", "async"):
        bad("run.mode", f"unknown mode {cfg.run.mode!r}")
    if cfg.run.async_bound < 1:
        bad("run.async_bound", "must be >= 1")
    if not 0 <= cfg.run.seed < 2 ** 64:
        bad("run.seed", "must be a 64-bit unsigned integer")

    if cfg.evolution.mutation_kind == "kernel-convolution" and cfg.evolution.sigma_mut > 0 \
            and cfg.space.embedding is None:
        bad("space.embedding", "kernel-convolution mutation requires an embedding")


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
    """New config with one parameter replaced; full validation re-runs."""
    data = to_dict(cfg)
    if "." in dotted:
        section, key = dotted.split(".", 1)
        data[section][key] = value
    else:
        data[dotted] = value
    return from_dict(data)


def build_spaces(cfg: ScenarioConfig):
    emb = None if cfg.space.embedding is None else np.asarray(cfg.space.embedding, dtype=float)
    space = HypothesisSpace.indexed(cfg.space.hypotheses, embedding=emb)
    outcomes = OutcomeSpace.indexed(cfg.outcomes)
    return space, outcomes


def build_model(cfg: ScenarioConfig, space: HypothesisSpace, outcomes: OutcomeSpace):
    lk = cfg.likelihood
    try:
        if lk.kind == CATEGORICAL:
            if lk.rows is not None:
                return CategoricalTable(space, outcomes, lk.rows)
            return CategoricalTable.peaked(space, outcomes, lk.peak)
        if lk.kind == BERNOULLI:
            return Bernoulli(space, lk.probs)
        return DiscretizedGaussian(space, lk.means, lk.scale, lk.bin_edges)
    except Exception as exc:
        raise ConfigError("likelihood", str(exc)) from exc


def build_oracle(cfg: ScenarioConfig, outcomes: OutcomeSpace) -> np.ndarray:
    if cfg.oracle == "zero-one":
        return zero_one_table(outcomes.size)
    table = np.asarray(cfg.oracle, dtype=float)
    table.setflags(write=False)
    return table
