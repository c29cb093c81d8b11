import json

import numpy as np
import pytest

from episwarm.config import from_dict


def small_config(**overrides):
    """Compact five-hypothesis scenario used across engine-level tests."""
    base = {
        "space": {"hypotheses": 5},
        "outcomes": 5,
        "likelihood": {"kind": "categorical", "peak": 0.7},
        "task": {"true_hypothesis": 0},
        "population": {"agents": 8},
        "rating": {"r0": 0.5, "sigma": 0.01},
        "evolution": {"tau_rep": 0.8, "tau_ext": 0.1, "grace": 5, "lambda": 0.45,
                      "sigma_mut": 0.05, "n_star": 32},
        "run": {"horizon": 60, "seed": 123},
    }
    for section, fields in overrides.items():
        if isinstance(fields, dict):
            base.setdefault(section, {}).update(fields)
        else:
            base[section] = fields
    return from_dict(base)


def state_pair(q):
    """An (n, K+6) int64 matrix of state rows in encoding order (agent id, step,
    K belief quanta, rating, strength, parent id, birth step) as the
    ``quantize_rows`` pair: its (n, 6) scalar columns and (n, K) belief quanta."""
    k = q.shape[1] - 6
    return q[:, [0, 1, k + 2, k + 3, k + 4, k + 5]], np.ascontiguousarray(q[:, 2:k + 2])


def encoding_rows(scalars, beliefs):
    """A ``quantize_rows`` pair as the (n, K+6) int64 matrix of its rows in
    encoding order, the inverse of ``state_pair``: what ``encode_quantized``
    takes, field by field."""
    return np.hstack([scalars[:, :2], beliefs, scalars[:, 2:]]).astype("<i8")


def statelog_rows(steps):
    """Every state-log row of ``quantize_rows`` pairs (a run's ``statelog``) as
    a plain-int dict, in file order: the JSON rows of ``statelog.jsonl``,
    built without the writer."""
    rows = []
    for scalars, beliefs in steps:
        rows += [{"agent_id": s[0], "step": s[1], "belief_q": b, "rating_q": s[2],
                  "strength_q": s[3], "parent_id": s[4], "birth_step": s[5]}
                 for s, b in zip(scalars.tolist(), beliefs.tolist())]
    return rows


def json_lines(rows) -> bytes:
    """Rows as an artifact's JSONL bytes: json.dumps(row, separators=(",", ":"))
    a line, as the writers' output must read."""
    return "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows).encode("ascii")


@pytest.fixture
def small_cfg():
    return small_config()
