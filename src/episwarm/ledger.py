"""Canonical quantized state encodings and per-agent hash-chained commitments.

Encoding layout (bit-exact): 2-byte version prefix 0x0001, then fixed-width
signed 8-byte little-endian integers in this order: agent id, step, quantized
belief entries (K of them), quantized rating, quantized strength, parent id
(-1 for none), birth step. Quanta: belief 1e-9, rating 1e-6, strength 1e-9.

Digests are SHA-256. Genesis: C_0 = H(enc_0); then C_t = H(enc_t || C_{t-1}).

File formats:
  ledger:    one record per line, ``agent_id<TAB>step<TAB>hex(digest)``
  state log: JSONL with the quantized integer fields exactly as encoded
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import LengthMismatch, NonMonotonicStep, ShapeMismatch
from .evolution import Population

VERSION_PREFIX = b"\x00\x01"
BELIEF_QUANTUM = 1e-9
RATING_QUANTUM = 1e-6
STRENGTH_QUANTUM = 1e-9
# Strength ceiling keeping the quantized value safely inside the signed 8-byte
# field (9.2e18 < 2^63 even after float rounding). Confidence reweighting
# compounds multiplicatively, so the engine saturates stored strengths here to
# keep state and audit encoding identical.
STRENGTH_MAX = 9.2e9


@dataclass(frozen=True)
class StateEncoding:
    """Canonical byte encoding of one agent state at one step."""

    data: bytes


@dataclass
class LedgerChain:
    """Ordered (step, digest) commitments for one agent; entry 0 is genesis."""

    agent_id: int
    entries: List[Tuple[int, bytes]] = field(default_factory=list)

    @property
    def head(self) -> Optional[bytes]:
        return self.entries[-1][1] if self.entries else None


def encode_quantized(agent_id: int, step: int, belief_q: Sequence[int], rating_q: int,
                     strength_q: int, parent_id: int, birth_step: int) -> StateEncoding:
    """Encode already-quantized integer fields; the replay path used by verification."""
    ints = [agent_id, step, *belief_q, rating_q, strength_q, parent_id, birth_step]
    return StateEncoding(VERSION_PREFIX + struct.pack(f"<{len(ints)}q", *ints))


def quantize_state(pop: Population, step: int) -> List[dict]:
    """Quantized integer fields of every agent state at one step, one state-log
    row per agent in population order. Strengths saturate at STRENGTH_MAX."""
    belief_q = np.rint(pop.belief_matrix / BELIEF_QUANTUM).astype(np.int64)
    rating_q = np.rint(pop.ratings / RATING_QUANTUM).astype(np.int64)
    strength_q = np.rint(np.minimum(pop.strengths, STRENGTH_MAX)
                         / STRENGTH_QUANTUM).astype(np.int64)
    return [{"agent_id": a, "step": step, "belief_q": b, "rating_q": r, "strength_q": s,
             "parent_id": p, "birth_step": bs}
            for a, b, r, s, p, bs in zip(pop.ids.tolist(), belief_q.tolist(), rating_q.tolist(),
                                         strength_q.tolist(), pop.parent_ids.tolist(),
                                         pop.birth_steps.tolist())]


def _digest(encoding: StateEncoding, prev: Optional[bytes]) -> bytes:
    h = hashlib.sha256()
    h.update(encoding.data)
    if prev is not None:
        h.update(prev)
    return h.digest()


def commit(chain: LedgerChain, encoding: StateEncoding, step: int) -> LedgerChain:
    """Append one commitment: H(enc) at genesis, H(enc || prev digest) after."""
    if chain.entries and step <= chain.entries[-1][0]:
        raise NonMonotonicStep(
            f"step {step} does not advance past {chain.entries[-1][0]} for agent {chain.agent_id}"
        )
    chain.entries.append((step, _digest(encoding, chain.head)))
    return chain


def verify_chain(chain: LedgerChain, replayed: Sequence[StateEncoding]) -> Optional[int]:
    """Recompute the chain from replayed encodings; return first bad step or None.

    Raises LengthMismatch when the replay and the chain disagree in length.
    """
    if len(replayed) != len(chain.entries):
        raise LengthMismatch(
            f"agent {chain.agent_id}: chain has {len(chain.entries)} entries, "
            f"replay has {len(replayed)}"
        )
    prev = None
    for (step, recorded), enc in zip(chain.entries, replayed):
        expected = _digest(enc, prev)
        if expected != recorded:
            return step
        prev = recorded
    return None


# ---------------------------------------------------------------------------
# File I/O


def write_ledger(path, chains: dict) -> None:
    with open(path, "w", encoding="ascii") as f:
        for agent_id in sorted(chains):
            for step, digest in chains[agent_id].entries:
                f.write(f"{agent_id}\t{step}\t{digest.hex()}\n")


def read_ledger(path) -> dict:
    chains: dict = {}
    with open(path, "r", encoding="ascii") as f:
        for line_no, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ShapeMismatch(f"ledger line {line_no}: expected 3 tab-separated fields")
            agent_id, step, hexdigest = int(parts[0]), int(parts[1]), parts[2]
            if len(hexdigest) != 64:
                raise ShapeMismatch(f"ledger line {line_no}: digest must be 64 hex chars")
            digest = bytes.fromhex(hexdigest)
            chains.setdefault(agent_id, LedgerChain(agent_id)).entries.append((step, digest))
    return chains


def write_state_log(path, rows: Sequence[dict]) -> None:
    with open(path, "w", encoding="ascii") as f:
        for row in rows:
            f.write(json.dumps(row, separators=(",", ":")) + "\n")


def read_state_log(path) -> List[dict]:
    rows = []
    with open(path, "r", encoding="ascii") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            row = json.loads(line)
            for key in ("agent_id", "step", "belief_q", "rating_q", "strength_q",
                        "parent_id", "birth_step"):
                if key not in row:
                    raise ShapeMismatch(f"state log line {line_no}: missing field {key!r}")
            rows.append(row)
    return rows


def verify_artifacts(ledger_path, statelog_path) -> List[Tuple[int, int]]:
    """Replay a state log against a ledger file.

    Returns a list of (agent_id, step) findings; empty means every chain
    verifies. Structural inconsistencies (length mismatches, agents present on
    one side only, misaligned steps) are reported as findings too, since they
    are tamper evidence rather than I/O failures.
    """
    chains = read_ledger(ledger_path)
    rows = read_state_log(statelog_path)

    replay: dict = {}
    for row in rows:
        replay.setdefault(int(row["agent_id"]), []).append(row)

    findings: List[Tuple[int, int]] = []
    for agent_id in sorted(set(chains) | set(replay)):
        chain = chains.get(agent_id)
        agent_rows = replay.get(agent_id, [])
        if chain is None:
            findings.append((agent_id, int(agent_rows[0]["step"])))
            continue
        if len(agent_rows) != len(chain.entries):
            n = min(len(agent_rows), len(chain.entries))
            step = chain.entries[n][0] if len(chain.entries) > n else int(agent_rows[n]["step"])
            findings.append((agent_id, step))
            continue
        misaligned = False
        for (step, _), row in zip(chain.entries, agent_rows):
            if int(row["step"]) != step:
                findings.append((agent_id, step))
                misaligned = True
                break
        if misaligned:
            continue
        encodings = [
            encode_quantized(int(r["agent_id"]), int(r["step"]), r["belief_q"],
                             int(r["rating_q"]), int(r["strength_q"]), int(r["parent_id"]),
                             int(r["birth_step"]))
            for r in agent_rows
        ]
        bad_step = verify_chain(chain, encodings)
        if bad_step is not None:
            findings.append((agent_id, bad_step))
    return findings
