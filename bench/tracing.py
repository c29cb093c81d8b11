"""Spans around episwarm's layer boundaries, recorded from outside the package.

``Tracer.install`` replaces public names with timing wrappers for the length of
a ``with`` block and restores them afterwards. Three binding rules decide
where a name is replaced:

* ``episwarm.engine`` binds the names it imports (``evolve``, ``commit``,
  ``encode_quantized``, ``MarginMatrix``, ``substream``, ...) in its own
  namespace, so they are replaced there, not in their home modules.
* ``engine.write_artifacts`` imports ``write_ledger`` and ``write_state_log``
  from ``episwarm.ledger`` at call time, so those are replaced in ``ledger``.
* ``episwarm.likelihood`` (the attribute) is the exported function of that
  name, so the module is reached through ``sys.modules``.

A span's self time is its duration minus the time of the wrapped spans nested
inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    def __init__(self) -> None:
        # span name -> [seconds, seconds in nested spans, calls]
        self._spans: Dict[str, list] = {}
        self.counts: Dict[str, int] = defaultdict(int)
        self._stack: List[float] = []

    def reset(self) -> None:
        for acc in self._spans.values():
            acc[:] = [0.0, 0.0, 0]
        self.counts.clear()

    def seconds(self, name: str) -> float:
        return self._spans[name][0]

    def self_seconds(self, name: str) -> float:
        return self._spans[name][0] - self._spans[name][1]

    def calls(self, name: str) -> int:
        return self._spans[name][2]

    def wrap(self, name: str, fn: Callable,
             count: Optional[Tuple[str, Callable[..., int]]] = None) -> Callable:
        """``fn`` timed as span ``name``; ``count`` adds ``count[1](*args,
        **kwargs)`` to counter ``count[0]`` on every call."""
        stack = self._stack
        acc = self._spans.setdefault(name, [0.0, 0.0, 0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                self.counts[count[0]] += count[1](*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += elapsed
                acc[1] += stack.pop()
                acc[2] += 1
                if stack:
                    stack[-1] += elapsed

        return wrapper

    @contextmanager
    def install(self) -> Iterator["Tracer"]:
        saved = []
        try:
            for owner, attr, name, count in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _margin_entries(*args, **kwargs) -> int:
    n = kwargs["n"] if "n" in kwargs else args[0]
    return int(n) * int(n)


def _targets():
    """(owner, attribute, span name, counter) for every wrapped name."""
    mods = sys.modules
    config = mods["episwarm.config"]
    engine = mods["episwarm.engine"]
    evolution = mods["episwarm.evolution"]
    ledger = mods["episwarm.ledger"]
    likelihood = mods["episwarm.likelihood"]
    targets = [
        (config, "from_dict", "config.from_dict", None),
        (engine, "simulate", "engine.simulate", None),
        (engine.Simulation, "step", "engine.step", None),
        (engine, "MarginMatrix", "competition.margin_matrix",
         ("competition.margin_entries", _margin_entries)),
        (engine, "aggregate_utility", "competition.aggregate_utility", None),
        (engine, "rating_step", "rating.rating_step", None),
        (engine, "reward_gradient", "rating.reward_gradient", None),
        (engine, "substream", "rng.substream", None),
        (engine, "evolve", "evolution.evolve", None),
        (evolution, "mutate_prior", "evolution.mutate_prior", None),
        (engine, "encode_quantized", "ledger.encode_quantized", None),
        (engine, "commit", "ledger.commit", None),
        (engine, "write_artifacts", "engine.write_artifacts", None),
        (ledger, "write_ledger", "ledger.write_ledger", None),
        (ledger, "write_state_log", "ledger.write_state_log", None),
        (ledger, "verify_artifacts", "ledger.verify_artifacts", None),
        (ledger, "read_ledger", "ledger.read_ledger", None),
        (ledger, "read_state_log", "ledger.read_state_log", None),
        (ledger, "verify_chain", "ledger.verify_chain", None),
    ]
    for cls in (likelihood.CategoricalTable, likelihood.Bernoulli,
                likelihood.DiscretizedGaussian):
        targets.append((cls, "outcome_matrix", "likelihood", None))
        targets.append((cls, "likelihood_vector", "likelihood", None))
    return targets
