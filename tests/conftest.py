import json

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


def statelog_rows(matrices):
    """Every state-log row of ``quantize_rows`` matrices (a run's ``statelog``)
    as a plain-int dict, in file order: the JSON rows of ``statelog.jsonl``,
    built without the writer."""
    rows = []
    for q in matrices:
        k = q.shape[1] - 6
        rows += [{"agent_id": r[0], "step": r[1], "belief_q": r[2:k + 2], "rating_q": r[k + 2],
                  "strength_q": r[k + 3], "parent_id": r[k + 4], "birth_step": r[k + 5]}
                 for r in q.tolist()]
    return rows


def json_lines(rows) -> bytes:
    """Rows as an artifact's JSONL bytes: json.dumps(row, separators=(",", ":"))
    a line, as the writers' output must read."""
    return "".join(json.dumps(row, separators=(",", ":")) + "\n" for row in rows).encode("ascii")


@pytest.fixture
def small_cfg():
    return small_config()
