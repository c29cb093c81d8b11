"""Configs drawn from the schema that ``config._check_type`` checks: the field
annotations of every config section, as the walk ``config._schema`` lists them.
A draw changes one to three fields of a small valid config, or replaces whole
sections. Each one must be refused with a ConfigError naming a field path, or
build and run its first steps raising nothing but package errors; through the
CLI it must exit 0, 1 or 2, never with a traceback."""

import dataclasses
import math
import tempfile
import typing
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from episwarm import config
from episwarm.config import SETUP_BYTES_MAX, from_dict
from episwarm.engine import Simulation
from episwarm.errors import ConfigError, EpiswarmError
from test_config_cli import REFERENCE_SMALL, run_cli, write_cfg

BASE = {**REFERENCE_SMALL, "run": {"horizon": 3, "seed": 5}}
STEPS = 3

SCHEMA = dict(config._schema())
SECTIONS = [path for path, hint in SCHEMA.items() if dataclasses.is_dataclass(hint)]
# Each field as (path, section key or None, file key, annotation): the sections'
# fields first, then the top-level ones, in the order the draws index them.
FIELDS = sorted([(path, path.rpartition(".")[0] or None, path.rpartition(".")[2], hint)
                 for path, hint in SCHEMA.items() if path not in SECTIONS],
                key=lambda f: f[1] is None)

# Fields that size an array built before the first step. They are drawn small
# or past the setup cap, so a draw that builds stays cheap to run.
SIZE_FIELDS = {"space.hypotheses", "outcomes", "population.agents", "run.horizon"}
PAST_CAP = [SETUP_BYTES_MAX // 8 + 1, 2 ** 40, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 10 ** 30]

# The words every choice-valued string field is made of, plus two that none is.
WORDS = ["sync", "async", "dirichlet", "uniform", "categorical", "categorical-table",
         "bernoulli", "discretized-gaussian", "harmonic", "constant", "exp-tilt",
         "kernel-convolution", "zero-one", "", "nonsense"]
EXTREME_INTS = [-(2 ** 63), -1, 0, 2 ** 31, 2 ** 62, 2 ** 63, 2 ** 64, 10 ** 30]
EXTREME_FLOATS = [-1e308, 1e308, 5e-324, 1e-300, math.inf, -math.inf, math.nan, 10 ** 400]
ANY_KIND = st.sampled_from([None, True, "nonsense", 1.5, 3, [1, 2], {"k": 1}])


def right_type(hint, path=""):
    """Values that fit ``hint``."""
    if typing.get_origin(hint) is typing.Union:  # Optional[X]
        return st.none() | right_type(typing.get_args(hint)[0], path)
    if typing.get_origin(hint) is list:
        item = (typing.get_args(hint) or (None,))[0]
        return st.lists(ANY_KIND if item is None else right_type(item), max_size=5)
    if hint is int and path in SIZE_FIELDS:
        return st.integers(1, 5) | st.sampled_from(PAST_CAP)
    if hint is int:
        return st.integers(-2, 8)
    if hint is float:
        return st.floats(-2.0, 2.0)
    if hint is str:
        return st.sampled_from(WORDS)
    # oracle: a name or a table
    return st.just("zero-one") | st.lists(st.lists(st.floats(0.0, 3.0), max_size=5), max_size=5)


def field_value(path, hint):
    """A value of the right type, of another type, or of extreme magnitude."""
    extreme = {int: st.sampled_from(PAST_CAP if path in SIZE_FIELDS else EXTREME_INTS),
               float: st.sampled_from(EXTREME_FLOATS)}.get(hint, ANY_KIND)
    return right_type(hint, path) | ANY_KIND | extreme


@st.composite
def configs(draw):
    data = {key: dict(value) if isinstance(value, dict) else value
            for key, value in BASE.items()}
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.integers(0, 9)) == 0:  # a whole section: its defaults, or not a mapping
            section = draw(st.sampled_from(sorted(SECTIONS)))
            data[section] = draw(st.just({}) | ANY_KIND)
            continue
        path, section, key, hint = draw(st.sampled_from(FIELDS))
        if section is None:
            data[key] = draw(field_value(path, hint))
        else:
            if not isinstance(data.get(section), dict):
                data[section] = {}
            data[section][key] = draw(field_value(path, hint))
    return data


def names_a_field(path: str, data: dict) -> bool:
    """Whether ``path`` names a section or field of the schema (or an item of a
    list field), or a key that the draw put in a section."""
    section, _, key = path.partition(".")
    section, key = section.split("[")[0], key.split("[")[0]
    if not key:
        return section in SCHEMA
    return section in SECTIONS and (f"{section}.{key}" in SCHEMA or key in data.get(section, {}))


FUZZ = settings(derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@settings(FUZZ, max_examples=400)
@given(configs())
# the three configs the roadmap's first hand-written fuzz found
@example({**BASE, "space": {"hypotheses": 10 ** 30}})
@example({**BASE, "population": {"agents": 6, "dirichlet_alpha": 10 ** 30}})
@example({**BASE, "population": {"agents": 10 ** 11}})
# draws that loaded and then overflowed with a numpy warning, not a package error
@example({**BASE, "evolution": {"sigma_mut": 1e308}})
@example({**BASE, "inference": {"beta": 1e308}})
@example({**BASE, "rating": {"sigma": 1e308}})
@example({**BASE, "rating": {"shape_scale": 1e308}})
def test_draw_is_refused_at_a_field_or_runs(data):
    try:
        cfg = from_dict(data)
    except ConfigError as exc:
        assert names_a_field(exc.field, data), exc.field
        return
    try:
        sim = Simulation(cfg)
        for t in range(min(STEPS, cfg.run.horizon)):
            sim.step(t)
    except EpiswarmError:
        pass


@settings(FUZZ, max_examples=6)
@given(configs())
def test_cli_draw_exits_without_traceback(data):
    with tempfile.TemporaryDirectory() as tmp:
        proc = run_cli("--out", str(Path(tmp) / "out"), "run", write_cfg(Path(tmp), data))
    assert proc.returncode in (0, 1, 2), proc.stderr
    assert "Traceback" not in proc.stderr
