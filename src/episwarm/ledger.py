"""Canonical quantized state encodings and per-agent hash-chained commitments.

Encoding layout (bit-exact): 2-byte version prefix 0x0001, then fixed-width
signed 8-byte little-endian integers in this order: agent id, step, quantized
belief entries (K of them), quantized rating, quantized strength, parent id
(-1 for none), birth step. Quanta: belief 1e-9, rating 1e-6, strength 1e-9.

A step's quantized states are one (N, K+6) little-endian int64 matrix whose
columns are exactly that order (``quantize_rows``), so an agent's encoding is
the prefix followed by its row's bytes. Digests are SHA-256. Genesis:
C_0 = H(enc_0); then C_t = H(enc_t || C_{t-1}).

``chain_digests`` is the one batched hash of the chains: it lays a block's
messages (prefix, row bytes, previous digest) out as one byte matrix and makes
one hash call a row. Committing (``commit_rows``) and verifying
(``verify_artifacts``) both go through it. A run's chains are ``LedgerColumns``:
each commit's ascending agent ids and (n, 32) digests, about 40 bytes an entry,
plus every agent's head and last step in arrays indexed by agent id; its
per-agent ``LedgerChain``-like views build their entries only when read. The
scalar ``encode_quantized``, ``commit`` and ``verify_chain`` are independent
oracles for the tests.

File formats: LF-terminated lines, each INT as %d prints it (0|-?[1-9][0-9]*,
signed 64-bit). The state-log writer prints a row's belief list (its K quanta)
once per distinct list and reuses the text for every later row of its step and
of the next that has the same quanta: frozen and converged agents repeat their
list step after step. It keeps no text older than the step before, so what it
holds does not grow with the horizon. The readers accept exactly these lines
(and empty lines):
  ledger:    INT<TAB>INT<TAB>64 lowercase hex digits (agent id, step, digest)
  state log: {"agent_id":INT,"step":INT,"belief_q":[INT,...,INT],"rating_q":INT,
             "strength_q":INT,"parent_id":INT,"birth_step":INT}  (K belief entries)
"""

from __future__ import annotations

import binascii
import hashlib
import re
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

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


@dataclass
class LedgerChain:
    """Ordered (step, digest) commitments for one agent; entry 0 is genesis."""

    agent_id: int
    entries: List[Tuple[int, bytes]] = field(default_factory=list)

    @property
    def head(self) -> Optional[bytes]:
        return self.entries[-1][1] if self.entries else None


def encode_quantized(agent_id: int, step: int, belief_q: Sequence[int], rating_q: int,
                     strength_q: int, parent_id: int, birth_step: int) -> bytes:
    """The canonical bytes of already-quantized integer fields, encoded one at a
    time: an independent replay oracle for tests, since verification hashes
    matrix rows."""
    ints = [agent_id, step, *belief_q, rating_q, strength_q, parent_id, birth_step]
    return VERSION_PREFIX + struct.pack(f"<{len(ints)}q", *ints)


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


def _digest(encoding: bytes, prev: Optional[bytes]) -> bytes:
    h = hashlib.sha256()
    h.update(encoding)
    if prev is not None:
        h.update(prev)
    return h.digest()


def commit(chain: LedgerChain, encoding: bytes, step: int) -> LedgerChain:
    """Append one commitment: H(enc) at genesis, H(enc || prev digest) after."""
    if chain.entries and step <= chain.entries[-1][0]:
        raise NonMonotonicStep(
            f"step {step} does not advance past {chain.entries[-1][0]} for agent {chain.agent_id}"
        )
    chain.entries.append((step, _digest(encoding, chain.head)))
    return chain


def grown(a: np.ndarray, size: int) -> np.ndarray:
    """``a`` if it has ``size`` rows, else ``a`` zero-padded to max(size, 2 len(a)) rows."""
    if size <= len(a):
        return a
    return np.concatenate([a, np.zeros((max(size, 2 * len(a)) - len(a),) + a.shape[1:], a.dtype)])


def chain_digests(q: np.ndarray, prev: np.ndarray, chained: np.ndarray) -> np.ndarray:
    """The (n, 32) uint8 SHA-256 digests of the rows of a ``quantize_rows``
    matrix as their chains commit them: H(enc || prev[i]) where ``chained[i]``,
    else the genesis H(enc), with ``prev`` (n, 32) uint8. The messages (prefix,
    row bytes, previous digest) are one byte matrix; each row takes one hash
    call, a genesis row's without its last 32 bytes."""
    n = len(q)
    if n == 0:  # memoryview.cast refuses a zero-size buffer
        return np.empty((0, 32), np.uint8)
    width = len(VERSION_PREFIX) + STATE_DTYPE.itemsize * q.shape[1]
    msg = np.empty((n, width + 32), np.uint8)
    msg[:, :len(VERSION_PREFIX)] = np.frombuffer(VERSION_PREFIX, np.uint8)
    msg[:, len(VERSION_PREFIX):width] = np.ascontiguousarray(q, STATE_DTYPE).view(np.uint8)
    msg[:, width:] = prev
    starts = np.arange(0, n * (width + 32), width + 32)
    ends = starts + width + 32 * np.asarray(chained, dtype=bool)
    data, sha256 = memoryview(msg).cast("B"), hashlib.sha256
    return np.frombuffer(b"".join([sha256(data[s:e]).digest()
                                   for s, e in zip(starts.tolist(), ends.tolist())]),
                         np.uint8).reshape(n, 32)


class ChainView:
    """One agent's chain in a ``LedgerColumns``, read as a ``LedgerChain``:
    ``head`` reads the heads array; ``entries`` builds the (step, digest) list
    from the commit blocks on each read."""

    __slots__ = ("columns", "agent_id")

    def __init__(self, columns: "LedgerColumns", agent_id: int):
        self.columns, self.agent_id = columns, agent_id

    @property
    def head(self) -> bytes:
        return self.columns.heads[self.agent_id].tobytes()

    @property
    def entries(self) -> List[Tuple[int, bytes]]:
        c, a = self.columns, self.agent_id
        out: List[Tuple[int, bytes]] = []
        for ids, step, digests in c.blocks[c.first_blocks[a]:]:
            i = ids.searchsorted(a)
            if i < len(ids) and ids[i] == a:
                out.append((step, digests[i].tobytes()))
                if len(out) == c.counts[a]:
                    break
        return out


class LedgerColumns(Mapping):
    """Every agent's hash chain, held as columns: one (ascending agent ids,
    step, (n, 32) uint8 digests) block per ``commit_rows`` call, about 40 bytes
    an entry, plus each agent's head, last step, entry count and first block in
    arrays indexed by agent id. A read-only mapping from the id of every agent
    with a chain to its ``ChainView``."""

    def __init__(self) -> None:
        self.blocks: List[Tuple[np.ndarray, int, np.ndarray]] = []
        self.heads = np.zeros((0, 32), np.uint8)
        self.last_steps = np.zeros(0, STATE_DTYPE)
        self.counts = np.zeros(0, np.int64)
        self.first_blocks = np.zeros(0, np.int64)

    def __getitem__(self, agent_id) -> ChainView:
        if agent_id not in range(len(self.counts)) or not self.counts[int(agent_id)]:
            raise KeyError(agent_id)
        return ChainView(self, int(agent_id))

    def __iter__(self) -> Iterator[int]:
        return iter(np.flatnonzero(self.counts).tolist())

    def __len__(self) -> int:
        return int(np.count_nonzero(self.counts))


def commit_rows(chains: LedgerColumns, q: np.ndarray, step: int) -> None:
    """Commit every row of a ``quantize_rows`` matrix to its agent's chain in
    ``chains`` at ``step`` (a chain starts at an agent's first commit), hashed
    by ``chain_digests``. Each agent id must be >= 0 and appear once, and the
    step must advance past each agent's last commit; otherwise this raises,
    naming the first offending row's agent, before committing any row."""
    ids = q[:, 0]
    if len(ids) and ids.min() < 0:
        raise ShapeMismatch(f"agent id {ids.min()} is negative")
    size = int(ids.max()) + 1 if len(ids) else 0
    chains.heads, chains.last_steps, chains.counts, chains.first_blocks = (
        grown(a, size) for a in (chains.heads, chains.last_steps, chains.counts,
                                 chains.first_blocks))
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    chained = chains.counts[ids] > 0
    stale = chained & (chains.last_steps[ids] >= step)
    repeat = np.zeros(len(ids), dtype=bool)  # a later row of an agent already in q
    repeat[order[1:][sorted_ids[1:] == sorted_ids[:-1]]] = True
    if stale.any() or repeat.any():
        i = int(np.argmax(stale | repeat))
        last = int(chains.last_steps[ids[i]]) if stale[i] else step
        raise NonMonotonicStep(f"step {step} does not advance past {last} for agent {ids[i]}")
    digests = chain_digests(q, chains.heads[ids], chained)
    chains.first_blocks[ids[~chained]] = len(chains.blocks)
    chains.heads[ids] = digests
    chains.last_steps[ids] = step
    chains.counts[ids] += 1
    chains.blocks.append((sorted_ids, step, digests[order]))


def verify_chain(chain: LedgerChain, replayed: Sequence[bytes]) -> Optional[int]:
    """Recompute the chain from replayed encodings; return first bad step or None.
    An independent per-chain oracle for tests; ``verify_artifacts`` does not call it.

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


# Ledger entries rendered per write: about 300 KB of text.
_WRITE_ENTRIES = 1 << 12


def write_ledger(path, chains: LedgerColumns) -> None:
    """Write every chain, agent by agent in ascending id and each in commit
    order, from the columns: the agents are taken in id ranges of about
    ``_WRITE_ENTRIES`` entries, each gathered from every commit block, so the
    writer holds one range's entries and text at a time."""
    ends = np.cumsum(chains.counts)  # entries of the agents with ids <= i
    # a range ends after each id whose entries reach the next multiple of _WRITE_ENTRIES
    reach = ends.searchsorted(np.arange(_WRITE_ENTRIES, ends[-1] if len(ends) else 0,
                                        _WRITE_ENTRIES))
    cuts = np.unique(np.r_[0, reach + 1, len(ends)]).tolist()
    with open(path, "wb") as f:
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            parts = [(ids[s:e], step, digests[s:e]) for ids, step, digests in chains.blocks
                     for s, e in [ids.searchsorted((lo, hi)).tolist()] if e > s]
            if not parts:
                continue
            ids = np.concatenate([p[0] for p in parts])
            order = np.argsort(ids, kind="stable")
            values: list = [None] * (3 * len(ids))
            values[0::3] = ids[order].tolist()
            steps = np.repeat([p[1] for p in parts], [len(p[0]) for p in parts])
            values[1::3] = steps[order].tolist()
            values[2::3] = np.frombuffer(binascii.hexlify(
                np.concatenate([p[2] for p in parts])[order]), "S64").tolist()
            f.write((b"%d\t%d\t%s\n" * len(ids)) % tuple(values))


def _row_format(belief: str) -> str:
    # One state-log line whose belief list is printed by ``belief``, as
    # json.dumps(row, separators=(",", ":")) writes it: JSON integers print as
    # %d does. The reader and the writer both take their grammar from here.
    return ('{"agent_id":%d,"step":%d,"belief_q":[' + belief + '],"rating_q":%d,'
            '"strength_q":%d,"parent_id":%d,"birth_step":%d}\n')


def _belief_format(k: int) -> str:
    return ",".join(["%d"] * k)


def write_state_log(path, matrices: Sequence[np.ndarray]) -> None:
    """Write ``quantize_rows`` matrices as JSONL state-log rows, in order,
    each belief list printed once and reused as the module docstring says,
    keyed by its quanta's bytes. A step's new lists take one format call, and
    its rows another, with each row's list text as one value."""
    row_format, prev = _row_format("%s"), {}
    with open(path, "w", encoding="ascii") as f:
        for q in matrices:
            n, k = len(q), q.shape[1] - 6
            segments = np.ascontiguousarray(q[:, 2:k + 2], STATE_DTYPE)
            # each row's segment as bytes; a zero-width void view would drop the rows
            keys = segments.view(f"V{8 * k}").ravel().tolist() if k else [b""] * n
            new = [key for key in dict.fromkeys(keys) if key not in prev]
            text = "\n".join([_belief_format(k)] * len(new)) % tuple(
                np.frombuffer(b"".join(new), STATE_DTYPE).tolist())
            prev.update(zip(new, text.split("\n")))
            values: list = [None] * (7 * n)
            values[2::7] = texts = [prev[key] for key in keys]
            for slot, column in zip((0, 1, 3, 4, 5, 6),
                                    q[:, [0, 1, k + 2, k + 3, k + 4, k + 5]].T.tolist()):
                values[slot::7] = column
            f.write((row_format * n) % tuple(values))
            prev = dict(zip(keys, texts))


# The readers take lines in blocks of about this many bytes (a readlines size
# hint), so verify holds one block of state-log lines and its matrix at a time.
_BLOCK_BYTES = 1 << 18
# An integer as %d prints it: no plus sign, no leading zeros, no -0.
_INT = rb"(?:0|-?[1-9][0-9]*)"
# A line as write_ledger prints it, or an empty line.
_LEDGER_LINE = re.compile(rb"(?:" + _INT + rb"\t" + _INT + rb"\t[0-9a-f]{64})?\n")
# bytes.translate table: every byte that cannot be part of an integer -> space.
_INT_BYTES = bytes(c if c in b"-0123456789" else 0x20 for c in range(256))


def _check_lines(pattern, lines: List[bytes], first: int, what: str, expected: str) -> None:
    # One call checks the block: deleting every match of the line pattern leaves
    # nothing only if the matches tile the block, line after line. Only a bad
    # block is searched line by line, for the message. (Matching the block with
    # the pattern repeated keeps a backtracking stack of about 14 bytes a byte.)
    if pattern.sub(b"", b"".join(lines)):
        bad = next(i for i, line in enumerate(lines) if not pattern.fullmatch(line))
        raise ShapeMismatch(f"{what} line {first + bad}: expected {expected}")


def _int64s(parts: List[bytes], first: int, what: str) -> np.ndarray:
    """The integers of a block of lines that match their grammar, in order, as
    int64. ``np.fromstring`` is exact inside the int64 range and saturates
    outside it, so a block holding either extreme is checked token by token."""
    text = b"".join(parts).translate(_INT_BYTES)
    if text.isspace():  # fromstring reads blank text as one 0
        return np.empty(0, dtype=STATE_DTYPE)
    values = np.fromstring(text, dtype=STATE_DTYPE, sep=" ")
    if values.size and (values.max() == INT64_MAX or values.min() == INT64_MIN):
        for line_no, part in enumerate(parts, first):
            for token in part.translate(_INT_BYTES).split():
                if not INT64_MIN <= int(token) <= INT64_MAX:
                    raise ShapeMismatch(f"{what} line {line_no}: {token.decode()} is "
                                        f"outside the signed 64-bit range")
    return values


def read_ledger(path) -> Tuple[np.ndarray, np.ndarray, bytearray]:
    """Read a ledger as columns in file order: int64 agent ids, int64 steps,
    and the 32-byte digests concatenated. Every non-empty line must be one
    ``write_ledger`` prints; otherwise raises ShapeMismatch naming the line.
    A first pass counts the lines; the columns (48 bytes an entry) fill in place."""
    with open(path, "rb") as f:
        count = sum(block.count(b"\n") for block in iter(lambda: f.read(_BLOCK_BYTES), b""))
        f.seek(0)
        ids_steps, digests = np.empty((count, 2), STATE_DTYPE), bytearray(32 * count)
        n, first = 0, 1
        for lines in iter(lambda: f.readlines(_BLOCK_BYTES), []):
            _check_lines(_LEDGER_LINE, lines, first, "ledger",
                         "agent_id<TAB>step<TAB>64 lowercase hex digits")
            # a matching non-empty line ends in TAB, 64 hex digits and LF
            block = _int64s([line[:-65] for line in lines], first, "ledger").reshape(-1, 2)
            ids_steps[n:n + len(block)] = block
            digests[32 * n:32 * (n + len(block))] = binascii.unhexlify(
                b"".join(line[-65:-1] for line in lines))
            n += len(block)
            first += len(lines)
    del digests[32 * n:]  # the empty lines' share
    return ids_steps[:n, 0], ids_steps[:n, 1], digests


def read_state_log(path) -> Iterator[np.ndarray]:
    """Yield the state log as (B, K+6) little-endian int64 matrices in
    ``quantize_rows`` column order, one per block of lines: the inverse of
    ``write_state_log``. K comes from the first row; every non-empty line must
    be one ``write_state_log`` prints for that K, with integers in the signed
    64-bit range. Otherwise raises ShapeMismatch naming the line."""
    pattern, first = None, 1
    with open(path, "rb") as f:
        for lines in iter(lambda: f.readlines(_BLOCK_BYTES), []):
            if pattern is None and (row := next((x for x in lines if x != b"\n"), b"")):
                # a line as write_state_log prints it for this K, or an empty line
                width = max(len(row.translate(_INT_BYTES).split()), 6)
                fmt = _row_format(_belief_format(width - 6))[:-1].encode().split(b"%d")
                pattern = re.compile(b"(?:" + _INT.join(map(re.escape, fmt)) + b")?\n")
            if pattern is not None:
                _check_lines(pattern, lines, first, "state log",
                             f"a state row as write_state_log prints it with K={width - 6}")
                yield _int64s(lines, first, "state log").reshape(-1, width)
            first += len(lines)


def verify_artifacts(ledger_path, statelog_path) -> List[Tuple[int, int]]:
    """Replay a state log against a ledger file, streaming the state log once.

    Returns a sorted list of (agent_id, step) findings, at most one per agent;
    empty means every chain verifies. An agent's n-th state-log row is checked
    against its n-th ledger entry: first the step, then H(enc || recorded
    digest of entry n-1). Length mismatches, agents present on one side only
    and misaligned steps are findings too: tamper evidence, not I/O failures.
    """
    ids, steps, digests = read_ledger(ledger_path)
    # Group the ledger by agent, keeping file order within each agent: entry
    # n of agent slots[a] is grouped entry start[a] + n, at file position
    # file_pos(start[a] + n). write_ledger groups already; other orders are
    # grouped by one stable sort, while steps and digests stay in file order.
    file_pos = np.asarray
    if not np.all(ids[1:] >= ids[:-1]):
        order = np.argsort(ids, kind="stable")
        ids, file_pos = ids[order], order.__getitem__
    # each agent's first grouped entry; [:len(ids)] drops the 0 of an empty ledger
    start = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])[:len(ids)]
    agents, length = ids[start], np.diff(start, append=len(ids))
    recorded = np.frombuffer(digests, np.uint8).reshape(-1, 32)  # a view, in file order
    # A last slot, with no entries, takes the rows of agents absent from the ledger.
    slots = np.append(agents, INT64_MAX)
    start, length = np.append(start, 0), np.append(length, 0)
    seen = np.zeros(len(slots), dtype=np.int64)  # rows replayed per slot
    misaligned = length.copy()  # first row index whose step differs, else length
    bad = length.copy()  # first row index whose digest differs, else length
    unmatched: dict = {}  # agent id -> step of its first row with no ledger entry
    for q in read_state_log(statelog_path):
        a = np.searchsorted(slots, q[:, 0])
        a[slots[a] != q[:, 0]] = len(agents)
        # n: each row's index among its agent's rows, earlier blocks included
        by_slot = np.argsort(a, kind="stable")
        n = np.empty_like(a)
        n[by_slot] = np.arange(len(a)) - np.searchsorted(a[by_slot], a[by_slot])
        n += seen[a]
        seen += np.bincount(a, minlength=len(slots))
        over = n >= length[a]
        for agent_id, step in q[over, :2].tolist():
            unmatched.setdefault(agent_id, step)
        rows, a, n = np.flatnonzero(~over), a[~over], n[~over]
        pos = start[a] + n
        off = steps[file_pos(pos)] != q[rows, 1]
        np.minimum.at(misaligned, a[off], n[off])
        # each row chains onto its agent's previous recorded digest, if any
        chained = n > 0
        wrong = (chain_digests(q[rows], recorded[file_pos(pos - chained)], chained)
                 != recorded[file_pos(pos)]).any(axis=1)
        np.minimum.at(bad, a[wrong], n[wrong])
    # Per agent, a length mismatch outranks a misaligned step, which outranks a
    # digest mismatch, each reported at its first index; rows past the end of
    # a chain, or of an agent the ledger lacks, are reported at the first one.
    index = np.where(seen < length, seen, np.where(misaligned < length, misaligned, bad))
    hit = np.flatnonzero((seen <= length) & (index < length))
    return sorted([*unmatched.items(),
                   *zip(slots[hit].tolist(), steps[file_pos(start[hit] + index[hit])].tolist())])
