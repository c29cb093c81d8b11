"""Canonical quantized state encodings and per-agent hash-chained commitments.

Encoding layout (bit-exact): 2-byte version prefix 0x0001, then fixed-width
signed 8-byte little-endian integers in this order: agent id, step, quantized
belief entries (K of them), quantized rating, quantized strength, parent id
(-1 for none), birth step. Quanta: belief 1e-9, rating 1e-6, strength 1e-9.

A step's quantized states are one (N, K+6) little-endian int64 matrix whose
columns are exactly that order (``quantize_rows``), so an agent's encoding is
the prefix followed by its row's bytes: the run commits and writes the state
log from the matrix, and ``encode_quantized`` packs the same fields from a
parsed state-log row when verifying.

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
# One quantized state row: signed 8-byte little-endian integers.
STATE_DTYPE = np.dtype("<i8")
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
# State-log fields in encoding order; belief_q holds K integers, the rest one.
STATE_FIELDS = ("agent_id", "step", "belief_q", "rating_q", "strength_q", "parent_id",
                "birth_step")


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


def quantize_rows(pop: Population, step: int) -> np.ndarray:
    """Quantized state of every agent at one step: an (N, K+6) little-endian
    int64 matrix, one row per agent in population order, columns in encoding
    order. Strengths saturate at STRENGTH_MAX."""
    n, k = pop.belief_matrix.shape
    q = np.empty((n, k + 6), dtype=STATE_DTYPE)
    q[:, 0] = pop.ids
    q[:, 1] = step
    q[:, 2:k + 2] = np.rint(pop.belief_matrix / BELIEF_QUANTUM)
    q[:, k + 2] = np.rint(pop.ratings / RATING_QUANTUM)
    q[:, k + 3] = np.rint(np.minimum(pop.strengths, STRENGTH_MAX) / STRENGTH_QUANTUM)
    q[:, k + 4] = pop.parent_ids
    q[:, k + 5] = pop.birth_steps
    return q


def state_log_rows(q: np.ndarray) -> List[dict]:
    """The state-log rows of one quantized matrix, as plain-int dicts."""
    k = q.shape[1] - 6
    return [{"agent_id": r[0], "step": r[1], "belief_q": r[2:k + 2], "rating_q": r[k + 2],
             "strength_q": r[k + 3], "parent_id": r[k + 4], "birth_step": r[k + 5]}
            for r in q.tolist()]


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


def commit_rows(chains: dict, q: np.ndarray, step: int) -> None:
    """Commit every row of a ``quantize_rows`` matrix to its agent's chain in
    ``chains`` (created at genesis): the same H(enc || prev digest) as
    ``commit``, hashed from slices of one ``tobytes()`` buffer."""
    data = memoryview(q.astype(STATE_DTYPE, copy=False).tobytes())
    width = q.shape[1] * STATE_DTYPE.itemsize
    sha256 = hashlib.sha256
    for i, agent_id in enumerate(q[:, 0].tolist()):
        chain = chains.get(agent_id)
        if chain is None:
            chain = chains[agent_id] = LedgerChain(agent_id)
        h = sha256(VERSION_PREFIX)
        h.update(data[i * width:(i + 1) * width])
        if chain.entries:
            last_step, prev = chain.entries[-1]
            if step <= last_step:
                raise NonMonotonicStep(
                    f"step {step} does not advance past {last_step} for agent {agent_id}")
            h.update(prev)
        chain.entries.append((step, h.digest()))


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
            chain = chains.get(agent_id)
            if chain is None:
                chain = chains[agent_id] = LedgerChain(agent_id)
            chain.entries.append((step, bytes.fromhex(hexdigest)))
    return chains


def _row_format(k: int) -> str:
    # One state-log line with K belief entries, as json.dumps(row,
    # separators=(",", ":")) writes it: JSON integers print as %d does.
    belief = ",".join(["%d"] * k)
    return ('{"agent_id":%d,"step":%d,"belief_q":[' + belief + '],"rating_q":%d,'
            '"strength_q":%d,"parent_id":%d,"birth_step":%d}\n')


def write_state_log(path, matrices: Sequence[np.ndarray]) -> None:
    """Write ``quantize_rows`` matrices as JSONL state-log rows, in order."""
    with open(path, "w", encoding="ascii") as f:
        for q in matrices:
            f.write((_row_format(q.shape[1] - 6) * len(q)) % tuple(q.ravel().tolist()))


def _reject_non_integer(literal: str):
    raise ValueError(f"{literal} is not an integer")


# Every state-log value is an integer: float, NaN and Infinity literals fail
# the parse itself, at no cost to lines without them.
_STATE_DECODER = json.JSONDecoder(parse_float=_reject_non_integer,
                                  parse_constant=_reject_non_integer)
_SCALAR_FIELDS = tuple(key for key in STATE_FIELDS if key != "belief_q")


def _belief_is_int64(belief, line: str) -> bool:
    if type(belief) is not list:
        return False
    try:
        # abs rejects str, null, list and object entries. The sum of the
        # magnitudes bounds every entry, so one sum inside the range clears a
        # row without comparing entry by entry.
        if (sum(map(abs, belief)) > INT64_MAX
                and not (INT64_MIN <= min(belief) and max(belief) <= INT64_MAX)):
            return False
    except TypeError:
        return False
    # bools pass abs; only a line spelling true or false can hold one
    return not (("true" in line or "false" in line)
                and any(type(v) is bool for v in belief))


def _parse_state_row(line: str, line_no: int) -> dict:
    try:
        # the line is stripped, so raw_decode must end exactly at its end
        row, end = _STATE_DECODER.raw_decode(line)
        if end != len(line):
            raise ValueError(f"extra data at column {end + 1}")
    except ValueError as exc:
        raise ShapeMismatch(f"state log line {line_no}: invalid JSON ({exc})") from None
    if type(row) is not dict:
        raise ShapeMismatch(f"state log line {line_no}: expected a JSON object")
    for key in STATE_FIELDS:
        if key not in row:
            raise ShapeMismatch(f"state log line {line_no}: missing field {key!r}")
    for key in _SCALAR_FIELDS:
        v = row[key]
        if type(v) is not int or not INT64_MIN <= v <= INT64_MAX:
            raise ShapeMismatch(f"state log line {line_no}: field {key!r} must be an "
                                f"integer in the signed 64-bit range")
    if not _belief_is_int64(row["belief_q"], line):
        raise ShapeMismatch(f"state log line {line_no}: field 'belief_q' must be a list of "
                            f"integers in the signed 64-bit range")
    return row


def read_state_log(path) -> List[dict]:
    """Parse a state log; every line must be a JSON object whose quantized
    fields are JSON integers in the signed 64-bit range (belief_q a list of
    them). Raises ShapeMismatch naming the first bad line."""
    rows = []
    with open(path, "r", encoding="ascii") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if line:
                rows.append(_parse_state_row(line, line_no))
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
        replay.setdefault(row["agent_id"], []).append(row)

    findings: List[Tuple[int, int]] = []
    for agent_id in sorted(set(chains) | set(replay)):
        chain = chains.get(agent_id)
        agent_rows = replay.get(agent_id, [])
        if chain is None:
            findings.append((agent_id, agent_rows[0]["step"]))
            continue
        if len(agent_rows) != len(chain.entries):
            n = min(len(agent_rows), len(chain.entries))
            step = chain.entries[n][0] if len(chain.entries) > n else agent_rows[n]["step"]
            findings.append((agent_id, step))
            continue
        misaligned = False
        for (step, _), row in zip(chain.entries, agent_rows):
            if row["step"] != step:
                findings.append((agent_id, step))
                misaligned = True
                break
        if misaligned:
            continue
        encodings = [encode_quantized(r["agent_id"], r["step"], r["belief_q"], r["rating_q"],
                                      r["strength_q"], r["parent_id"], r["birth_step"])
                     for r in agent_rows]
        bad_step = verify_chain(chain, encodings)
        if bad_step is not None:
            findings.append((agent_id, bad_step))
    return findings
