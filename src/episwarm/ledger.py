"""Canonical quantized state encodings and per-agent hash-chained commitments.

Encoding layout (bit-exact): 2-byte version prefix 0x0001, then fixed-width
signed 8-byte little-endian integers in this order: agent id, step, quantized
belief entries (K of them), quantized rating, quantized strength, parent id
(-1 for none), birth step. Quanta: belief 1e-9, rating 1e-6, strength 1e-9.

A step's quantized states are a pair of arrays (``quantize_rows``), one row
per agent: the (N, 6) little-endian int64 scalar columns in state-log order
(agent id, step, rating, strength, parent id, birth step), and the (N, K)
belief quanta, which lie in [0, 10^9], as int32, so a row takes 48 + 4K bytes.
Digests are SHA-256. Genesis: C_0 = H(enc_0); then C_t = H(enc_t || C_{t-1}).

``chain_digests`` is the one batched hash of the chains: it lays a block's
messages (prefix, fields in encoding order, previous digest) out as one byte
matrix and makes one hash call a row. Committing (``commit_rows``) and
verifying (``audit_artifacts``) both go through it. A run's chains are
``LedgerColumns``: each commit's ascending agent ids and (n, 32) digests, about
40 bytes an entry, plus every agent's head and last step in arrays indexed by
agent id; its per-agent ``LedgerChain``-like views build their entries only
when read. The scalar ``encode_quantized``, ``commit`` and ``verify_chain`` are
independent oracles for the tests. ``ledger_root`` is one digest of a whole
ledger.

A run's record takes its arrays from one ``Arena`` of anonymous memory
mappings: the commit blocks' ids and digests, each step's quantized pair and,
in the engine, the score columns. The arena bump-allocates from
``ARENA_CHUNK``-byte mappings, a larger array getting a mapping of its own, so
a freed record returns its pages to the OS whatever state the C heap is in. An
arena that cannot map memory raises MemoryError. The mappings are private, so
a forked child (the writer's and the verifier's) reads them copy-on-write.

File formats: LF-terminated lines, each INT as %d prints it (0|-?[1-9][0-9]*,
signed 64-bit):
  ledger:    INT<TAB>INT<TAB>64 lowercase hex digits (agent id, step, digest)
  state log: {"agent_id":INT,"step":INT,"belief_q":[INT,...,INT],"rating_q":INT,
             "strength_q":INT,"parent_id":INT,"birth_step":INT}  (K belief entries)
The state-log writer prints each distinct belief list (its K quanta) once and
reuses the text for later rows of its step and the next with the same quanta
(frozen and converged agents repeat theirs), holding no text older than the
step before. The readers accept exactly what the writers print, and empty
lines: a block passes only if printing the integers parsed from it with the
writers' own format strings (``_ledger_rows``, ``_row_format``) gives back its
bytes, which a token that is not canonical %d or lies outside int64 does not.
Like the writer, the state-log reader parses and checks each distinct
belief-list text of a block once, or not at all if the block before held it.
A run of lines passes if and only if each of its lines does, so a failed block
names its first non-empty line that the check refuses alone: the file's first
faulty line at any block size, for its first %d-canonical integer outside int64
(a digest's hex digits are not integers), else for the grammar it breaks.

``audit_artifacts`` replays a state log of more than two read blocks on two
processes: a forked child (``_alongside``, which ``engine.write_artifacts``
uses too) replays the lines before the middle, while the caller counts each
agent's rows there from their agent ids alone and replays the rest from those
counts. Both halves number lines from the start of the file, and the child's
error comes first, so an error names the line one pass would; counts that
disagree mean the file changed while it was read. Without ``os.fork`` the
same replay runs once over the whole file.
"""

from __future__ import annotations

import binascii
import contextlib
import errno
import hashlib
import math
import mmap
import os
import pickle
import re
import struct
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

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
# An encoded field, and a step's scalar columns: signed 8-byte little-endian integers.
STATE_DTYPE = np.dtype("<i8")
INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
# A step's belief quanta: each is a normalized belief over BELIEF_QUANTUM, in
# [0, 10^9], so signed 4-byte integers hold them.
BELIEF_DTYPE = np.dtype("<i4")
INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1


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
    ``chain_digests``' message matrix."""
    ints = [agent_id, step, *belief_q, rating_q, strength_q, parent_id, birth_step]
    return VERSION_PREFIX + struct.pack(f"<{len(ints)}q", *ints)


def quantize_rows(pop: Population, step: int, arena: Arena) -> Tuple[np.ndarray, np.ndarray]:
    """Quantized state of every agent at one step, one row per agent in
    population order, in ``arena``: the (N, 6) int64 scalar columns (agent id,
    step, rating, strength, parent id, birth step) and the (N, K) int32 belief
    quanta. Strengths saturate at STRENGTH_MAX. A rounded belief quantum
    outside the int32 range, or NaN, raises ShapeMismatch before anything is
    taken from the arena."""
    quanta = pop.belief_matrix / BELIEF_QUANTUM
    np.rint(quanta, out=quanta)
    if not ((quanta >= INT32_MIN) & (quanta <= INT32_MAX)).all():
        raise ShapeMismatch(f"a belief quantum at step {step} is outside the signed 32-bit range")
    scalars = arena.empty((len(quanta), 6), STATE_DTYPE)
    beliefs = arena.empty(quanta.shape, BELIEF_DTYPE)
    scalars[:, 0] = pop.ids
    scalars[:, 1] = step
    scalars[:, 2] = np.rint(pop.ratings / RATING_QUANTUM)
    scalars[:, 3] = np.rint(np.minimum(pop.strengths, STRENGTH_MAX) / STRENGTH_QUANTUM)
    scalars[:, 4] = pop.parent_ids
    scalars[:, 5] = pop.birth_steps
    beliefs[...] = quanta
    return scalars, beliefs


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


# The size of an arena's shared mappings, and the alignment of its arrays.
ARENA_CHUNK = 8 << 20
ARENA_ALIGN = 64
# Private mappings, so a forked child's pages stay copy-on-write, where the
# platform has the flag.
_MAP_FLAGS = {"flags": mmap.MAP_PRIVATE} if hasattr(mmap, "MAP_PRIVATE") else {}


def _mapping(size: int) -> mmap.mmap:
    # ``size`` bytes of anonymous memory, advised into huge pages where the
    # platform has them, so that a page fault fills more of the record. The
    # advice is a hint: a kernel built without huge pages refuses it. Memory
    # the OS will not map is MemoryError, as a refused allocation is.
    try:
        m = mmap.mmap(-1, size, **_MAP_FLAGS)
    except OSError as exc:
        if exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map {size} bytes for a run's record") from None
    if hasattr(mmap, "MADV_HUGEPAGE"):
        with contextlib.suppress(OSError):
            m.madvise(mmap.MADV_HUGEPAGE)
    return m


class Arena:
    """The arrays of one run's record, in anonymous memory mappings of their
    own: each array is bump-allocated from the current ARENA_CHUNK-byte
    mapping, or gets a mapping of its own if it is larger. An array's ``base``
    is its mapping, so a mapping is unmapped, and its pages go back to the OS,
    once the arena has moved past it and the last array in it is freed,
    whatever state the C heap is in. ``nbytes`` counts the bytes handed out."""

    def __init__(self) -> None:
        self._chunk: Optional[mmap.mmap] = None
        self._used = self.nbytes = 0

    def empty(self, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """An uninitialized array in the arena."""
        dtype = np.dtype(dtype)
        size = math.prod(shape) * dtype.itemsize
        padded = -(-size // ARENA_ALIGN) * ARENA_ALIGN
        self.nbytes += padded
        if size > ARENA_CHUNK:
            return np.ndarray(shape, dtype, buffer=_mapping(size))
        if self._chunk is None or self._used + size > ARENA_CHUNK:
            self._chunk, self._used = _mapping(ARENA_CHUNK), 0
        out = np.ndarray(shape, dtype, buffer=self._chunk, offset=self._used)
        self._used += padded
        return out

    def copy(self, a: np.ndarray) -> np.ndarray:
        """A copy of ``a`` in the arena."""
        out = self.empty(a.shape, a.dtype)
        out[...] = a
        return out

    def __reduce__(self):
        # A mapping does not pickle, and a pickled record's arrays travel as
        # copies of their bytes, so an unpickled arena starts empty.
        return Arena, ()


def chain_digests(scalars: np.ndarray, beliefs: np.ndarray, prev: np.ndarray,
                  chained: np.ndarray) -> np.ndarray:
    """The (n, 32) uint8 SHA-256 digests of the rows of a ``quantize_rows``
    pair (beliefs of any integer dtype) as their chains commit them:
    H(enc || prev[i]) where ``chained[i]``, else the genesis H(enc), with
    ``prev`` (n, 32) uint8. The messages (prefix, fields in encoding order,
    previous digest) are one byte matrix, its fields written through one
    unaligned <i8 view of it; each row takes one hash call, a genesis row's
    without its last 32 bytes."""
    n, k = beliefs.shape
    start, width = len(VERSION_PREFIX), len(VERSION_PREFIX) + STATE_DTYPE.itemsize * (k + 6)
    msg = np.empty((n, width + 32), np.uint8)
    msg[:, :start] = np.frombuffer(VERSION_PREFIX, np.uint8)
    fields = msg[:, start:width].view(STATE_DTYPE)
    fields[:, :2], fields[:, 2:k + 2], fields[:, k + 2:] = scalars[:, :2], beliefs, scalars[:, 2:]
    msg[:, width:] = prev
    rows, sha256 = msg.view(f"V{width + 32}")[:, 0].tolist(), hashlib.sha256  # one bytes a row
    return np.frombuffer(b"".join([sha256(row if c else row[:width]).digest() for row, c in
                                   zip(rows, np.asarray(chained, dtype=bool).tolist())]),
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
    an entry in ``arena`` (a new one if None), plus each agent's head, last
    step, entry count and first block in arrays indexed by agent id. A
    read-only mapping from the id of every agent with a chain to its
    ``ChainView``."""

    def __init__(self, arena: Optional[Arena] = None) -> None:
        self.arena = Arena() if arena is None else arena
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


def commit_rows(chains: LedgerColumns, scalars: np.ndarray, beliefs: np.ndarray,
                step: int) -> None:
    """Commit every row of a ``quantize_rows`` pair to its agent's chain in
    ``chains`` at ``step`` (a chain starts at an agent's first commit), hashed
    by ``chain_digests``. Each agent id must be >= 0 and appear once, and the
    step must advance past each agent's last commit; otherwise this raises,
    naming the first offending row's agent, before committing any row."""
    ids = scalars[:, 0]
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
    repeat = np.zeros(len(ids), dtype=bool)  # a later row of an agent already in the block
    repeat[order[1:][sorted_ids[1:] == sorted_ids[:-1]]] = True
    if stale.any() or repeat.any():
        i = int(np.argmax(stale | repeat))
        last = int(chains.last_steps[ids[i]]) if stale[i] else step
        raise NonMonotonicStep(f"step {step} does not advance past {last} for agent {ids[i]}")
    digests = chain_digests(scalars, beliefs, chains.heads[ids], chained)
    chains.first_blocks[ids[~chained]] = len(chains.blocks)
    chains.heads[ids] = digests
    chains.last_steps[ids] = step
    chains.counts[ids] += 1
    keep = chains.arena.copy
    chains.blocks.append((keep(sorted_ids), step, keep(digests[order])))


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


def _ledger_rows(ids: list, steps: list, digests) -> bytes:
    # Ledger lines as write_ledger prints them, one per agent id, step and
    # 32-byte digest (``digests`` concatenated). The reader and the writer
    # both take their grammar from here.
    values: list = [None] * (3 * len(ids))
    values[0::3], values[1::3] = ids, steps
    values[2::3] = np.frombuffer(binascii.hexlify(digests), "S64").tolist()
    return (b"%d\t%d\t%s\n" * len(ids)) % tuple(values)


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
            steps = np.repeat([p[1] for p in parts], [len(p[0]) for p in parts])
            f.write(_ledger_rows(ids[order].tolist(), steps[order].tolist(),
                                 np.concatenate([p[2] for p in parts])[order]))


def _row_format(belief: str) -> str:
    # One state-log line whose belief list is printed by ``belief``, as
    # json.dumps(row, separators=(",", ":")) writes it: JSON integers print as
    # %d does. The reader and the writer both take their grammar from here.
    return ('{"agent_id":%d,"step":%d,"belief_q":[' + belief + '],"rating_q":%d,'
            '"strength_q":%d,"parent_id":%d,"birth_step":%d}\n')


def _belief_format(k: int) -> str:
    return ",".join(["%d"] * k)


def _state_rows(row_format, columns: list, texts: list):
    # State-log lines printed by ``row_format`` (``_row_format("%s")``, str or
    # bytes): one per belief-list text, its agent id, step, rating, strength,
    # parent id and birth step taken from the six ``columns``.
    values: list = [None] * (7 * len(texts))
    values[2::7] = texts
    for slot, column in zip((0, 1, 3, 4, 5, 6), columns):
        values[slot::7] = column
    return (row_format * len(texts)) % tuple(values)


def write_state_log(path, steps: Iterable[Tuple[np.ndarray, np.ndarray]]) -> None:
    """Write (scalars, beliefs) pairs in ``quantize_rows``' layout (a run's
    state log, or ``read_state_log``'s blocks) as JSONL state-log rows, in
    order, each belief list printed once and reused as the module docstring
    says, keyed by its quanta's bytes. A step's new lists take one format
    call, and its rows another, with each row's list text as one value."""
    row_format, prev = _row_format("%s"), {}
    with open(path, "w", encoding="ascii") as f:
        for scalars, beliefs in steps:
            n, k = beliefs.shape
            # each row's quanta as bytes; a zero-width void view would drop the rows
            keys = beliefs.view(f"V{beliefs.itemsize * k}").ravel().tolist() if k else [b""] * n
            new = [key for key in dict.fromkeys(keys) if key not in prev]
            text = "\n".join([_belief_format(k)] * len(new)) % tuple(
                np.frombuffer(b"".join(new), beliefs.dtype).tolist())
            prev.update(zip(new, text.split("\n")))
            texts = [prev[key] for key in keys]
            f.write(_state_rows(row_format, scalars.T.tolist(), texts))
            prev = dict(zip(keys, texts))


# The readers take lines in blocks of about this many bytes (a readlines size
# hint), so verify holds one block of state-log lines and its arrays at a time.
# A block's check holds about five times its bytes (the joined text, its
# printed copy and the Python ints between), hence 128 KB rather than more.
_BLOCK_BYTES = 1 << 17
# bytes.translate table: every byte that cannot be part of an integer -> space.
_INT_BYTES = bytes(c if c in b"-0123456789" else 0x20 for c in range(256))
# Bytes that neither belong to an integer nor separate two in what the writers
# print (keys, quotes, braces, colons): the parsers delete them, so that
# np.fromstring has less text to skip.
_KEY_BYTES = bytes(c for c in range(256) if c not in b"-0123456789,\t\n ")


def _ints(text: bytes) -> np.ndarray:
    # The integers of ``text``, split at commas and whitespace, as int64 by
    # ``np.fromstring``, which saturates outside that range and may read a
    # malformed token as another number (or raise ValueError), so only a
    # render check of the result tells what the text held.
    text = text.translate(_INT_BYTES, _KEY_BYTES)
    return np.fromstring(text, STATE_DTYPE, sep=" ") if text.strip() else np.empty(0, STATE_DTYPE)


def _refuse(block: List[bytes], first: int, what: str, expected: str, fields, check, *args):
    # Raise ShapeMismatch for a block of lines, the first numbered ``first``,
    # that ``check(lines, *args)`` refused with ValueError: name its first
    # non-empty line that the check refuses alone, for the first %d-canonical
    # integer outside int64 in ``line[fields]``, else for ``expected``.
    for no, line in enumerate(block, first):
        try:
            if line != b"\n":
                check([line], *args)
        except ValueError:
            big = [token for token in line[fields].translate(_INT_BYTES).split()
                   if re.fullmatch(rb"0|-?[1-9][0-9]*", token)
                   and not INT64_MIN <= int(token) <= INT64_MAX]
            raise ShapeMismatch(f"{what} line {no}: " + (
                f"{big[0].decode()} is outside the signed 64-bit range" if big
                else f"expected {expected}")) from None


def _blocks(f, lo: int = 0, hi: Optional[int] = None) -> Iterator[List[bytes]]:
    # The lines of binary file ``f`` from byte ``lo`` to byte ``hi`` (None:
    # the end), both at line starts, in readlines blocks of about _BLOCK_BYTES.
    f.seek(lo)
    for block in iter(lambda: f.readlines(_BLOCK_BYTES), []):
        lo += sum(map(len, block))
        while hi is not None and lo > hi:  # the lines read past hi
            lo -= len(block.pop())
        yield block
        if hi is not None and lo >= hi:
            return


def _ledger_block(lines: List[bytes]) -> Tuple[np.ndarray, bytes]:
    # The (n, 2) ids and steps and the concatenated digests of non-empty
    # ledger lines, each ending in TAB, 64 hex digits and LF as it prints;
    # raises ValueError unless _ledger_rows prints them back exactly.
    ids_steps = _ints(b"".join([line[:-65] for line in lines])).reshape(-1, 2)
    digests = binascii.unhexlify(b"".join([line[-65:-1] for line in lines]))
    if (len(ids_steps) != len(lines) or len(digests) != 32 * len(lines)
            or _ledger_rows(*ids_steps.T.tolist(), digests) != b"".join(lines)):
        raise ValueError("not a ledger line")
    return ids_steps, digests


def read_ledger(path) -> Tuple[np.ndarray, np.ndarray, bytearray]:
    """Read a ledger as columns in file order: int64 agent ids, int64 steps,
    and the 32-byte digests concatenated. Every non-empty line must be one
    ``write_ledger`` prints, else ShapeMismatch names the first that is not.
    A first pass counts the lines; the columns (48 bytes an entry) fill in place."""
    with open(path, "rb") as f:
        count = sum(block.count(b"\n") for block in iter(lambda: f.read(_BLOCK_BYTES), b""))
        ids_steps, digests = np.empty((count, 2), STATE_DTYPE), bytearray(32 * count)
        n, first = 0, 1
        for block in _blocks(f):
            try:
                ints, text_digests = _ledger_block([line for line in block if line != b"\n"])
            except ValueError:
                _refuse(block, first, "ledger", "agent_id<TAB>step<TAB>64 lowercase hex digits",
                        slice(-65), _ledger_block)
            ids_steps[n:n + len(ints)] = ints
            digests[32 * n:32 * (n + len(ints))] = text_digests
            n += len(ints)
            first += len(block)
    del digests[32 * n:]  # the empty lines' share
    return ids_steps[:n, 0], ids_steps[:n, 1], digests


def _state_block(lines: List[bytes], k: int, known):
    # The (n, 6) scalar columns of non-empty state-log lines (agent id, step,
    # rating, strength, parent id, birth step), their belief-list texts, and
    # the distinct texts not in ``known`` with their (m, K) entries; raises
    # ValueError unless _row_format prints the lines back exactly.
    text = b"".join(lines)
    parts = text.replace(b"]", b"[").split(b"[")  # a line as it prints holds one [ and one ]
    if len(parts) != 2 * len(lines) + 1:
        raise ValueError("not a state row")
    texts, scalars = parts[1::2], _ints(b"".join(parts[0::2])).reshape(-1, 6)
    del parts  # frees the scalar text before the block is printed back
    new = [t for t in dict.fromkeys(texts) if t not in known]
    beliefs = _ints(b",".join(new)).reshape(len(new), k)
    if (b"\n".join([_belief_format(k).encode()] * len(new))
            % tuple(beliefs.ravel().tolist()) != b"\n".join(new)
            or _state_rows(_row_format("%s").encode(), scalars.T.tolist(), texts) != text):
        raise ValueError("not a state row")
    return scalars, texts, new, beliefs


def _belief_count(line: bytes) -> int:
    # K, as a state-log row's integers count it
    return max(len(line.translate(_INT_BYTES).split()), 6) - 6


def read_state_log(path, lo: int = 0, hi: Optional[int] = None, k: Optional[int] = None,
                   first: int = 1) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield the state log as (scalars, beliefs) pairs in ``quantize_rows``'
    layout, both little-endian int64, one per block of lines: the inverse of
    ``write_state_log``. Reads the lines from byte ``lo`` to byte ``hi``
    (None: the end of the file), both at line starts. K is ``k``, else it
    comes from the first row read; every non-empty line must be one
    ``write_state_log`` prints for that K, with integers in the signed 64-bit
    range, else ShapeMismatch names the first that is not, the line at ``lo``
    numbered ``first``."""
    table, known = None, {}  # known: the block before's texts -> their rows of table
    with open(path, "rb") as f:
        for block in _blocks(f, lo, hi):
            lines = [line for line in block if line != b"\n"]
            if lines:
                if table is None:
                    k = _belief_count(lines[0]) if k is None else k
                    table = np.empty((0, k), STATE_DTYPE)
                try:
                    scalars, texts, new, beliefs = _state_block(lines, k, known)
                except ValueError:
                    _refuse(block, first, "state log",
                            f"a state row as write_state_log prints it with K={k}",
                            slice(None), _state_block, k, ())
                table = np.concatenate([table, beliefs])
                known.update(zip(new, range(len(table) - len(new), len(table))))
                yield scalars, table[[known[t] for t in texts]]
                distinct = dict.fromkeys(texts)
                table = table[[known[t] for t in distinct]]
                known = dict(zip(distinct, range(len(distinct))))
            first += len(block)


def _root(ids, heads: np.ndarray) -> str:
    pairs = np.empty(len(ids), [("id", STATE_DTYPE), ("head", "V32")])
    pairs["id"], pairs["head"] = ids, heads
    return hashlib.sha256(pairs.tobytes()).hexdigest()


def ledger_root(chains: Mapping) -> str:
    """One digest of a run's whole ledger, as hex: SHA-256 over every chain's
    agent id (signed 8-byte little-endian) and 32-byte head, in ascending id."""
    ids = sorted(chains)
    return _root(ids, np.frombuffer(b"".join([chains[a].head for a in ids]), "V32"))


def _pickled(exc: BaseException) -> bytes:
    """``exc`` as bytes that unpickle, or, for an exception that does not
    survive pickling, a RuntimeError naming it."""
    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
        return data
    except Exception:
        return pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))


def _alongside(child: Callable[[], object], parent: Callable[[], object]) -> tuple:
    """Call ``child()`` in a forked process while ``parent()`` runs in this
    one; once both are done and the child has been reaped, return both
    results, the child's sent back pickled through a pipe.

    The child leaves through ``os._exit``, so it never flushes this process's
    stdio buffers nor returns into the caller's stack. An exception it raises
    comes back through the pipe, pickled, and is raised here as the same
    exception. The child is reaped on every path. Where ``os.fork`` does not
    exist or raises OSError (no free process or memory), both run here, child
    first. Either way errors come out as if ``child()`` and then ``parent()``
    had run in turn: where both raise, the child's error is raised."""
    pid = None
    if hasattr(os, "fork"):
        r, w = os.pipe()
        try:
            pid = os.fork()
        except BaseException as exc:
            os.close(r)
            os.close(w)
            if not isinstance(exc, OSError):
                raise
    if pid is None:
        return child(), parent()
    if pid == 0:
        status = 1
        try:
            os.close(r)
            try:
                sent, failed = pickle.dumps(child()), False
            except BaseException as exc:
                sent, failed = _pickled(exc), True
            with open(w, "wb") as pipe:
                pipe.write(sent)
            status = int(failed)
        finally:
            os._exit(status)
    os.close(w)
    try:
        mine = parent()
    finally:
        try:
            with open(r, "rb") as pipe:
                sent = pipe.read()
        finally:
            status = os.waitpid(pid, 0)[1]
        if status:  # raised in place of any error of parent()
            raise pickle.loads(sent) if sent else ChildProcessError(
                f"forked child exited with status {os.waitstatus_to_exitcode(status)}")
    return pickle.loads(sent), mine


def verify_artifacts(ledger_path, statelog_path) -> List[Tuple[int, int]]:
    """The findings of ``audit_artifacts``."""
    return audit_artifacts(ledger_path, statelog_path)[0]


def audit_artifacts(ledger_path, statelog_path) -> Tuple[List[Tuple[int, int]], str]:
    """Replay a state log against a ledger file, streaming the state log once.

    Returns a sorted list of (agent_id, step) findings, at most one per agent,
    and the ``ledger_root`` of the ledger file, each chain's head its last
    entry in file order. No findings means every chain verifies. An agent's
    n-th state-log row is checked against its n-th ledger entry: first the
    step, then H(enc || recorded digest of entry n-1). Length mismatches,
    agents present on one side only and misaligned steps are findings too:
    tamper evidence, not I/O failures.

    A state log of more than two ``_BLOCK_BYTES`` blocks is replayed on two
    processes (``_alongside``), once the ledger is read: a forked child
    replays the lines before the first line start past the middle byte, while
    this process counts each agent's rows there from their ids alone and
    replays the rest from those counts. Both halves number lines from the
    start of the file, and where both raise, the child's error is raised, so
    the findings, and any error raised, are those of one pass over the file.
    Row counts that differ from the scan's mean the file changed while it was
    read: ShapeMismatch. Without ``os.fork`` the one pass runs here.
    """
    ids, steps, digests = read_ledger(ledger_path)
    recorded = np.frombuffer(digests, np.uint8).reshape(-1, 32)
    # Group the ledger by agent, keeping file order within each agent, so that
    # entry n of agent slots[a] is entry start[a] + n. write_ledger groups
    # already; other orders are grouped by one stable sort.
    if not np.all(ids[1:] >= ids[:-1]):
        order = np.argsort(ids, kind="stable")
        ids, steps, recorded = ids[order], steps[order], recorded[order]
    # each agent's first entry; [:len(ids)] drops the 0 of an empty ledger
    start = np.flatnonzero(np.r_[True, ids[1:] != ids[:-1]])[:len(ids)]
    agents, length = ids[start], np.diff(start, append=len(ids))
    root = _root(agents, recorded[start + length - 1].view("V32").ravel())
    # A last slot, with no entries, takes the rows of agents absent from the ledger.
    slots = np.append(agents, INT64_MAX)
    start, length = np.append(start, 0), np.append(length, 0)

    def slot(agent_ids: np.ndarray) -> np.ndarray:
        a = np.searchsorted(slots, agent_ids)
        a[slots[a] != agent_ids] = len(agents)
        return a

    def replay(lo: int, hi: Optional[int], k: Optional[int], seen: np.ndarray, first: int):
        # The state log's lines from byte lo to hi replayed, the first
        # numbered ``first`` and ``seen`` rows of each slot before them: the
        # rows seen per slot after them; per slot, the first row index whose
        # step (``misaligned``) or digest (``bad``) differs, else length; and
        # for each agent the step of its first row with no ledger entry
        # (``unmatched``).
        seen = seen.copy()
        misaligned, bad, unmatched = length.copy(), length.copy(), {}
        for scalars, beliefs in read_state_log(statelog_path, lo, hi, k, first):
            a = slot(scalars[:, 0])
            # n: each row's index among its agent's rows, earlier blocks included
            by_slot = np.argsort(a, kind="stable")
            n = np.empty_like(a)
            n[by_slot] = np.arange(len(a)) - np.searchsorted(a[by_slot], a[by_slot])
            n += seen[a]
            seen += np.bincount(a, minlength=len(slots))
            over = n >= length[a]
            for agent_id, step in scalars[over, :2].tolist():
                unmatched.setdefault(agent_id, step)
            rows, a, n = np.flatnonzero(~over), a[~over], n[~over]
            pos = start[a] + n
            off = steps[pos] != scalars[rows, 1]
            np.minimum.at(misaligned, a[off], n[off])
            # each row chains onto its agent's previous recorded digest, if any
            chained = n > 0
            wrong = (chain_digests(scalars[rows], beliefs[rows], recorded[pos - chained],
                                   chained) != recorded[pos]).any(axis=1)
            np.minimum.at(bad, a[wrong], n[wrong])
        return seen, misaligned, bad, unmatched

    def scan_and_replay(cut: int):
        # Each slot's rows before the cut, from the lines' agent ids alone, and
        # the replay of the lines after it, counting on from those rows and lines.
        counts, k, lines_before = np.zeros(len(slots), np.int64), None, 0
        at = _row_format("%s").index("%d")  # a printed row starts {"agent_id":INT,
        with open(statelog_path, "rb") as f:
            for block in _blocks(f, 0, cut):
                lines_before += len(block)
                lines = [line for line in block if line != b"\n"]
                if lines:
                    k = _belief_count(lines[0]) if k is None else k
                    counts += np.bincount(slot(np.array(
                        [int(line[at:line.index(b",", at)]) for line in lines], STATE_DTYPE)),
                        minlength=len(slots))
        return counts, replay(cut, None, k, counts, lines_before + 1)

    zeros = np.zeros(len(slots), np.int64)
    size = os.path.getsize(statelog_path)
    if size <= 2 * _BLOCK_BYTES or not hasattr(os, "fork"):
        seen, misaligned, bad, unmatched = replay(0, None, None, zeros, 1)
    else:
        with open(statelog_path, "rb") as f:
            f.seek(size // 2)
            f.readline()
            cut = f.tell()
        (counted, *before), (counts, (seen, misaligned, bad, unmatched)) = _alongside(
            lambda: replay(0, cut, None, zeros, 1), lambda: scan_and_replay(cut))
        if not np.array_equal(counted, counts):  # the second half counted on from these
            raise ShapeMismatch("state log changed while it was read")
        misaligned, bad = np.minimum(misaligned, before[0]), np.minimum(bad, before[1])
        unmatched = {**unmatched, **before[2]}  # the first half's rows come first
    # Per agent, a length mismatch outranks a misaligned step, which outranks a
    # digest mismatch, each reported at its first index; rows past the end of
    # a chain, or of an agent the ledger lacks, are reported at the first one.
    index = np.where(seen < length, seen, np.where(misaligned < length, misaligned, bad))
    hit = np.flatnonzero((seen <= length) & (index < length))
    return sorted([*unmatched.items(), *zip(slots[hit].tolist(),
                                            steps[start[hit] + index[hit]].tolist())]), root
