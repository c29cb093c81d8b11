import gc
import hashlib
import json
import mmap
import os
import random
import re
import struct
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from conftest import encoding_rows, json_lines, small_config, state_pair, statelog_rows
from episwarm import ledger
from episwarm.engine import default_schedule, simulate
from episwarm.errors import LengthMismatch, NonMonotonicStep, ShapeMismatch
from episwarm.evolution import Population
from episwarm.ledger import (INT64_MAX, INT64_MIN, STRENGTH_MAX, Arena, LedgerChain,
                             LedgerColumns, audit_artifacts, chain_digests, commit, commit_rows,
                             encode_quantized, quantize_rows, read_state_log, verify_chain,
                             verify_artifacts, write_ledger, write_state_log)
from episwarm.spaces import HypothesisSpace

SP2 = HypothesisSpace.indexed(2)


def agent(aid=0, rating=0.5, strength=1.0, probs=(0.25, 0.75), parent=-1, birth=0):
    """One-agent population."""
    pop = Population.create(SP2, np.array([probs]), r0=rating, strength0=strength,
                            ids=np.array([aid]), birth_step=birth)
    pop.parent_ids[0] = parent
    return pop


def encode_state(pop, step):
    """Encoding of the first agent at ``step``: its quantized row packed field by
    field, as verification replays it."""
    r = encoding_rows(*quantize_rows(pop, step, Arena()))[0].tolist()
    k = len(r) - 6
    return encode_quantized(r[0], r[1], r[2:k + 2], *r[k + 2:])


class TestEncoding:
    def test_rating_above_quantum_distinct(self):
        a = encode_state(agent(rating=0.5), 0)
        b = encode_state(agent(rating=0.5 + 1e-5), 0)
        assert a != b

    def test_rating_below_quantum_identical(self):
        a = encode_state(agent(rating=0.5), 0)
        b = encode_state(agent(rating=0.5 + 1e-8), 0)
        assert a == b

    def test_deterministic(self):
        assert encode_state(agent(), 3) == encode_state(agent(), 3)

    def test_version_prefix_and_length(self):
        enc = encode_state(agent(), 0)
        assert enc[:2] == b"\x00\x01"
        # prefix + 8 ints: id, step, K=2 belief entries, rating, strength, parent, birth
        assert len(enc) == 2 + 8 * 8

    def test_parent_none_encoded_as_minus_one(self):
        q = quantize_rows(agent(), 0, Arena())[0][0]
        assert q[-2] == -1
        q2 = quantize_rows(agent(parent=7), 0, Arena())[0][0]
        assert q2[-2] == 7

    def test_population_rows(self):
        pop = Population.create(SP2, np.array([[0.25, 0.75], [1.0, 0.0]]), r0=0.5,
                                ids=np.array([4, 9]), birth_step=2)
        pop.ratings[1] = 0.1234567
        pop.strengths[1] = 1e12  # beyond the encodable range: saturates
        scalars, beliefs = quantize_rows(pop, 3, Arena())
        # scalar columns: id, step, rating, strength, parent id, birth step
        assert scalars.tolist() == [
            [4, 3, 500_000, 1_000_000_000, -1, 2],
            [9, 3, 123_457, round(STRENGTH_MAX / 1e-9), -1, 2],
        ]
        assert beliefs.tolist() == [[250_000_000, 750_000_000], [1_000_000_000, 0]]
        assert scalars.dtype == np.dtype("<i8") and beliefs.dtype == np.dtype("<i4")

    def test_injectivity_fuzz(self):
        # 1e5 distinct random quantized states: no encoding or digest collisions
        import hashlib
        rng = np.random.default_rng(0)
        n = 100_000
        states = set()
        while len(states) < n:
            need = n - len(states)
            block = rng.integers(0, 10 ** 9, size=(need, 5))
            states.update(map(tuple, block.tolist()))
        encodings = set()
        digests = set()
        for aid, step, b0, b1, rq in states:
            enc = encode_quantized(aid, step, [b0, b1], rq, 10 ** 9, -1, 0)
            encodings.add(enc)
            digests.add(hashlib.sha256(enc).digest())
        assert len(encodings) == n
        assert len(digests) == n


class TestCommit:
    def test_genesis_hash(self):
        import hashlib
        enc = encode_state(agent(), 0)
        chain = commit(LedgerChain(0), enc, 0)
        assert chain.entries[0] == (0, hashlib.sha256(enc).digest())

    def test_chained_digest(self):
        import hashlib
        e0, e1 = encode_state(agent(), 0), encode_state(agent(rating=0.6), 1)
        chain = commit(commit(LedgerChain(0), e0, 0), e1, 1)
        d0 = hashlib.sha256(e0).digest()
        assert chain.entries[1] == (1, hashlib.sha256(e1 + d0).digest())

    def test_same_encoding_different_digests(self):
        enc = encode_state(agent(), 0)
        chain = LedgerChain(0)
        commit(chain, enc, 0)
        commit(chain, enc, 1)
        assert chain.entries[0][1] != chain.entries[1][1]

    def test_non_monotonic_rejected(self):
        enc = encode_state(agent(), 0)
        chain = commit(LedgerChain(0), enc, 5)
        with pytest.raises(NonMonotonicStep):
            commit(chain, enc, 5)
        with pytest.raises(NonMonotonicStep):
            commit(chain, enc, 4)

    def test_commit_rows_repeated_step_rejected(self):
        chains = LedgerColumns()
        q = quantize_rows(agent(), 5, Arena())
        commit_rows(chains, *q, 5)
        with pytest.raises(NonMonotonicStep):
            commit_rows(chains, *q, 5)
        with pytest.raises(NonMonotonicStep):
            commit_rows(chains, *quantize_rows(agent(), 4, Arena()), 4)
        assert [step for step, _ in chains[0].entries] == [5]


    def test_failed_commit_commits_nothing(self):
        def agents(step, *ids):  # one quantize_rows pair holding agent(aid=a) for each id
            return tuple(np.concatenate(columns) for columns in
                         zip(*(quantize_rows(agent(aid=a), step, Arena()) for a in ids)))

        chains = LedgerColumns()
        both = agents(2, 0, 1)
        commit_rows(chains, *both, 2)
        commit_rows(chains, *agents(3, 1), 3)
        before = chains[0].entries, chains[0].head
        both[0][:, 1] = 3
        # the second agent's step 3 repeats: the first agent's row must not commit
        with pytest.raises(NonMonotonicStep, match="past 3 for agent 1"):
            commit_rows(chains, *both, 3)
        assert (chains[0].entries, chains[0].head) == before
        assert [step for step, _ in chains[1].entries] == [2, 3]
        # an agent twice in one block, even at a step past its last commit
        with pytest.raises(NonMonotonicStep, match="past 4 for agent 0"):
            commit_rows(chains, *agents(4, 0, 0), 4)
        # agent ids index the heads array: a negative one is refused
        with pytest.raises(ShapeMismatch, match="negative"):
            commit_rows(chains, *agents(4, 0, -3), 4)
        assert (chains[0].entries, chains[0].head) == before


class TestChainDigests:
    """``chain_digests`` against the scalar oracle: ``encode_quantized`` then
    ``commit`` onto a chain whose last entry holds the previous digest."""

    @staticmethod
    def oracle(q, prev, chained):
        # q: the rows in encoding order
        out = []
        for row, p, c in zip(q.tolist(), prev, chained):
            k = len(row) - 6
            enc = encode_quantized(row[0], row[1], row[2:k + 2], *row[k + 2:])
            chain = LedgerChain(row[0], [(row[1] - 1, p.tobytes())] if c else [])
            out.append(commit(chain, enc, row[1]).head)
        return out

    @pytest.mark.parametrize("k", [1, 10, 100])
    def test_matches_scalar_oracle(self, k):
        rng = np.random.default_rng(k)
        n = 50
        q = rng.integers(INT64_MIN, INT64_MAX, size=(n, k + 6), endpoint=True)
        q[:, 1] = rng.integers(1, 1000, size=n)
        q[0, 2:] = INT64_MAX
        q[1, 2:] = INT64_MIN
        q[2, 0], q[3, 0] = INT64_MAX, INT64_MIN
        prev = rng.integers(0, 256, size=(n, 32), dtype=np.uint8)
        chained = rng.random(n) < 0.5
        chained[:2] = True, False
        digests = chain_digests(*state_pair(q), prev, chained)
        assert digests.shape == (n, 32) and digests.dtype == np.uint8
        assert [d.tobytes() for d in digests] == self.oracle(q, prev, chained)

    def test_non_contiguous_input(self):
        rng = np.random.default_rng(7)
        wide = rng.integers(-10 ** 12, 10 ** 12, size=(40, 2 * 16))
        q = wide[::-2, ::2]
        scalars, beliefs = q[:, :6], q[:, 6:]  # neither row- nor column-contiguous
        assert not any(a.flags.c_contiguous or a.flags.f_contiguous for a in (scalars, beliefs))
        prev = rng.integers(0, 256, size=(40, 32), dtype=np.uint8)[::2]
        chained = np.arange(20) % 3 > 0
        expected = self.oracle(encoding_rows(scalars, beliefs), np.ascontiguousarray(prev),
                               chained)
        assert [d.tobytes() for d in chain_digests(scalars, beliefs, prev, chained)] == expected
        assert [d.tobytes() for d in chain_digests(np.asfortranarray(scalars),
                                                   np.asfortranarray(beliefs), prev,
                                                   chained.tolist())] == expected

    def test_empty_block(self):
        digests = chain_digests(np.empty((0, 6), "<i8"), np.empty((0, 10), "<i4"),
                                np.empty((0, 32), np.uint8), np.empty(0, dtype=bool))
        assert digests.shape == (0, 32) and digests.dtype == np.uint8


class TestLedgerColumns:
    def commit_run(self, agents, steps, k=2):
        chains, rng = LedgerColumns(), np.random.default_rng(0)
        for t in range(steps):
            q = rng.integers(0, 10 ** 9, size=(agents, k + 6))
            q[:, 0], q[:, 1] = np.arange(agents), t
            commit_rows(chains, *state_pair(q), t)
        return chains

    def test_mapping_reads_the_columns(self):
        chains = LedgerColumns()
        for t, ids in enumerate(([4, 1], [1, 4, 9], [9], [2, 9])):
            q = np.zeros((len(ids), 8), "<i8")
            q[:, 0], q[:, 1], q[:, 2] = ids, t, np.arange(len(ids)) + 10 * t
            commit_rows(chains, *state_pair(q), t)
        assert list(chains) == [1, 2, 4, 9] and len(chains) == 4
        assert [[s for s, _ in chains[a].entries] for a in chains] == \
            [[0, 1], [3], [0, 1], [1, 2, 3]]
        for a in chains:
            assert chains[a].agent_id == a and chains[a].head == chains[a].entries[-1][1]
        for absent in (0, 3, 10, -1, 2.5, "1"):
            assert absent not in chains
            with pytest.raises(KeyError):
                chains[absent]

    @pytest.mark.parametrize("write_entries", [1, 7, ledger._WRITE_ENTRIES])
    def test_writer_prints_each_chain_in_order(self, write_entries, tmp_path, monkeypatch):
        # an asynchronous run with spawns and deaths, so agents join and leave blocks
        monkeypatch.setattr(ledger, "_WRITE_ENTRIES", write_entries)
        cfg = small_config(evolution={"tau_ext": 0.2, "tau_rep": 0.6, "grace": 3},
                           run={"horizon": 30, "mode": "async", "async_bound": 3})
        chains = simulate(cfg, schedule=default_schedule(cfg)).chains
        write_ledger(tmp_path / "ledger.tsv", chains)
        expected = "".join(f"{a}\t{step}\t{digest.hex()}\n"
                           for a in sorted(chains) for step, digest in chains[a].entries)
        assert (tmp_path / "ledger.tsv").read_text() == expected

    def test_run_record_bytes_per_entry(self):
        # Each entry holds its agent id (8 bytes) and digest (32). Per agent id
        # there are a head, a last step, a count and a first block (56 bytes,
        # in arrays grown by doubling: at most 112), and per commit block two
        # array headers and a tuple (under 400 bytes). With 500 agents and 100
        # steps that adds at most (500 * 112 + 100 * 400) / 50,000 < 2 bytes an
        # entry: the bound is 42. The blocks' arrays live in the chains' arena,
        # whose mappings tracemalloc does not see, so its bytes are added.
        self.commit_run(2, 2)  # lazy imports first
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            chains = self.commit_run(500, 100)
            held = tracemalloc.get_traced_memory()[0] - before + chains.arena.nbytes
        finally:
            tracemalloc.stop()
        assert sum(len(chains[a].entries) for a in chains) == 50_000
        assert held / 50_000 <= 42, held / 50_000

    def test_reading_every_chain_allocates_per_agent(self):
        # Reading each chain's length and head builds one chain's entries at a
        # time, freed before the next: a list slot, a (step, digest) tuple, a
        # 32-byte bytes object and an int, under 200 bytes an entry for the
        # longest chain (100 entries), plus a head list of under 200 bytes an
        # agent. Building every chain at once would take over 10 MB here.
        chains = self.commit_run(500, 100)
        tracemalloc.start()
        try:
            count = sum(len(c.entries) for c in chains.values())
            heads = [chains[a].head for a in sorted(chains)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 50_000 and len(heads) == 500
        assert peak <= 200 * (100 + 500), peak

    def test_write_peak_one_block(self, tmp_path):
        # The writer holds one id range of about _WRITE_ENTRIES entries. At its
        # peak, the final format call, an entry has its id and order (16
        # bytes), three slots of the values list and of its tuple (48), an id
        # int (32), a hex bytes object (about 104), a template share (9) and its
        # text (under 80): under 300 bytes, bounded at 400. A step int is
        # shared here (steps < 256). Per commit block the range holds a tuple
        # of three slices (under 400 bytes). The 100,000-entry ledger written
        # here is 7.2 MB of text.
        chains = self.commit_run(1000, 100)
        write_ledger(tmp_path / "ledger.tsv", self.commit_run(2, 2))  # lazy imports first
        tracemalloc.start()
        try:
            write_ledger(tmp_path / "ledger.tsv", chains)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "ledger.tsv").stat().st_size > 7 * 10 ** 6
        assert peak <= 400 * ledger._WRITE_ENTRIES + 400 * 100, peak

    def test_writer_skips_an_id_range_without_entries(self, tmp_path):
        # Committed one at a time, agents 0, 1 and 2 grow the id-indexed
        # arrays to 1, 2 and then 4 ids (grown doubles), so id 3 has none.
        # Agent 2's 5,000 entries end the first ~_WRITE_ENTRIES range at
        # id 2, and the last range holds id 3 alone, with nothing to write.
        chains, steps = LedgerColumns(), []
        for a, t in [(0, 0), (1, 0), *((2, t) for t in range(5000))]:
            pair = state_pair(np.array([[a, t, 7, 5, 1, -1, 0]], "<i8"))
            commit_rows(chains, *pair, t)
            steps.append(pair)
        assert chains.counts.tolist() == [1, 1, 5000, 0]
        ends = np.cumsum(chains.counts)
        assert ends.searchsorted(ledger._WRITE_ENTRIES) + 1 == 3  # cuts [0, 3, 4]
        write_ledger(tmp_path / "ledger.tsv", chains)
        ids, ledger_steps, _ = ledger.read_ledger(tmp_path / "ledger.tsv")
        assert ids.tolist() == [0, 1] + [2] * 5000
        assert ledger_steps.tolist() == [0, 0, *range(5000)]
        write_state_log(tmp_path / "statelog.jsonl", steps)
        assert verify_artifacts(tmp_path / "ledger.tsv", tmp_path / "statelog.jsonl") == []


class TestArena:
    def test_array_past_a_chunk_gets_a_mapping_of_its_own(self):
        arena = Arena()
        shared = arena.empty((3,), np.int64)
        chunk, used, held = arena._chunk, arena._used, arena.nbytes
        size = ledger.ARENA_CHUNK + 24
        big = arena.empty((size // 8,), np.int64)
        big[...] = 1
        mapping = big.base
        assert isinstance(mapping, mmap.mmap) and mapping is not chunk and len(mapping) == size
        assert arena._chunk is chunk and arena._used == used
        padded = -(-size // ledger.ARENA_ALIGN) * ledger.ARENA_ALIGN
        assert arena.nbytes == held + padded == held + ledger.ARENA_CHUNK + 64
        ref = weakref.ref(mapping)
        del big, mapping
        gc.collect()
        assert ref() is None
        assert shared.base is chunk


def state_rows(step, rows):
    """A quantize_rows-shaped matrix of ``rows`` (agent id, belief segment,
    rating, strength, parent, birth) at ``step``."""
    return np.array([[a, step, *belief, *rest] for a, belief, *rest in rows],
                    dtype="<i8").reshape(len(rows), -1)


class TestLedgerRoot:
    def test_one_digest_of_ids_and_heads_in_ascending_id(self):
        chains = {7: LedgerChain(7, [(0, b"\x01" * 32)]),
                  2: LedgerChain(2, [(0, b"\x02" * 32), (1, b"\x03" * 32)])}
        expected = hashlib.sha256(struct.pack("<q", 2) + b"\x03" * 32
                                  + struct.pack("<q", 7) + b"\x01" * 32).hexdigest()
        assert ledger.ledger_root(chains) == expected
        assert ledger.ledger_root({}) == hashlib.sha256(b"").hexdigest()


class TestStateLogWriter:
    """The writer prints each distinct belief segment once and reuses it for
    the rest of its step and the next; its bytes must equal json.dumps of
    every row."""

    def check(self, matrices, tmp_path):
        # matrices: each step's rows in encoding order, or a run's state log
        steps = [state_pair(q) if isinstance(q, np.ndarray) else q for q in matrices]
        path = tmp_path / "statelog.jsonl"
        write_state_log(path, steps)
        assert path.read_bytes() == json_lines(statelog_rows(steps))

    def test_async_run_reuses_frozen_rows(self, tmp_path):
        cfg = small_config(space={"hypotheses": 20}, outcomes=20,
                           run={"horizon": 60, "mode": "async", "async_bound": 4})
        matrices = simulate(cfg).statelog
        reused, before = 0, set()
        for _, beliefs in matrices:
            segments = set(map(tuple, beliefs.tolist()))
            reused, before = reused + len(segments & before), segments
        assert reused > len(matrices)  # frozen rows repeat the step before's segments
        self.check(matrices, tmp_path)

    def test_segment_back_after_one_step(self, tmp_path):
        # A -> B -> A for one agent: the third step cannot take A from the second
        a, b = (1, -2, 3), (4, 5, -6)
        self.check([state_rows(0, [(7, a, 10, 11, -1, 0)]),
                    state_rows(1, [(7, b, 12, 11, -1, 0)]),
                    state_rows(2, [(7, a, 13, 11, -1, 0)]),
                    state_rows(3, [(7, a, 13, 11, -1, 0), (8, b, 0, 0, 7, 3)])], tmp_path)

    def test_repeated_segments_within_a_step(self, tmp_path):
        a, b = (5, 5), (5, 6)
        self.check([state_rows(0, [(0, a, 1, 2, -1, 0), (1, b, 1, 2, -1, 0),
                                   (2, a, 9, 8, 0, 0), (3, a, 1, 2, -1, 0)]),
                    state_rows(1, [(0, b, 1, 2, -1, 0), (2, b, 9, 8, 0, 0),
                                   (3, a, 4, 4, -1, 0)])], tmp_path)

    def test_empty_matrices_and_zero_width_segments(self, tmp_path):
        self.check([np.empty((0, 9), "<i8"), state_rows(1, [(0, (1, 2, 3), 4, 5, 6, 7)]),
                    np.empty((0, 9), "<i8"), state_rows(3, [(0, (1, 2, 3), 4, 5, 6, 7)])],
                   tmp_path)
        self.check([state_rows(0, [(0, (), 1, 2, -1, 0), (1, (), 3, 4, -1, 0)]),
                    np.empty((0, 6), "<i8"), state_rows(2, [(0, (), 1, 2, -1, 0)])], tmp_path)
        self.check([], tmp_path)

    def test_int64_extremes(self, tmp_path):
        lo, hi = INT64_MIN, INT64_MAX
        self.check([state_rows(0, [(hi, (lo, hi, 0), lo, hi, lo, hi),
                                   (0, (hi, lo, -1), 1, 2, 3, 4)]),
                    state_rows(hi, [(lo, (lo, hi, 0), hi, lo, hi, lo),
                                    (1, (lo, lo, lo), 0, 0, 0, 0)]),
                    state_rows(lo, [(0, (hi, lo, -1), 1, 2, 3, 4)])], tmp_path)

    def test_random_segments_from_a_small_pool(self, tmp_path):
        rng = np.random.default_rng(5)
        pool = rng.integers(INT64_MIN, INT64_MAX, size=(4, 7), endpoint=True)
        matrices = []
        for t in range(30):
            q = rng.integers(-10, 10 ** 12, size=(int(rng.integers(0, 9)), 13))
            q[:, 2:9] = pool[rng.integers(0, len(pool), size=len(q))]
            q[:, 1] = t
            matrices.append(q)
        self.check(matrices, tmp_path)

    def test_peak_does_not_grow_with_steps(self, tmp_path):
        # Every step's segments are new here, so a writer whose segment texts
        # outlived the step after theirs would hold 500 steps of them (about
        # 2.7 MB) instead of 50 (270 KB); a step's own text is about 4 KB.
        rng = np.random.default_rng(0)
        matrices = [state_pair(rng.integers(0, 10 ** 9, size=(10, 26))) for _ in range(500)]
        write_state_log(tmp_path / "statelog.jsonl", matrices[:2])  # lazy set-up first

        def peak(steps):
            tracemalloc.start()
            try:
                write_state_log(tmp_path / "statelog.jsonl", matrices[:steps])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(50), peak(500)
        assert long <= short + 64 * 1024, (short, long)


class TestVerifyChain:
    def build(self, steps=10):
        chain = LedgerChain(0)
        encodings = []
        for t in range(steps):
            enc = encode_state(agent(rating=0.3 + 0.01 * t), t)
            commit(chain, enc, t)
            encodings.append(enc)
        return chain, encodings

    def test_untampered_ok(self):
        chain, encodings = self.build(100)
        assert verify_chain(chain, encodings) is None

    def test_prefix_chains_ok(self):
        chain, encodings = self.build(20)
        for cut in (1, 5, 19):
            prefix = LedgerChain(0)
            prefix.entries = chain.entries[:cut]
            assert verify_chain(prefix, encodings[:cut]) is None

    def test_tampered_state_located(self):
        chain, encodings = self.build(100)
        bad = bytearray(encodings[40])
        bad[10] ^= 0x01
        encodings[40] = bytes(bad)
        assert verify_chain(chain, encodings) == 40

    def test_truncation_length_mismatch(self):
        chain, encodings = self.build(10)
        with pytest.raises(LengthMismatch):
            verify_chain(chain, encodings[:-1])


class TestArtifacts:
    def write_run(self, tmp_path, steps=5):
        chains = LedgerColumns()
        matrices = []
        for aid in (0, 1):
            for t in range(steps):
                a = agent(aid=aid, rating=0.4 + 0.1 * aid + 0.001 * t)
                commit_rows(chains, *quantize_rows(a, t, Arena()), t)
                matrices.append(quantize_rows(a, t, Arena()))
        ledger_path = tmp_path / "ledger.tsv"
        statelog_path = tmp_path / "statelog.jsonl"
        write_ledger(ledger_path, chains)
        write_state_log(statelog_path, matrices)
        return ledger_path, statelog_path

    def test_round_trip_verifies(self, tmp_path):
        ledger_path, statelog_path = self.write_run(tmp_path)
        assert verify_artifacts(ledger_path, statelog_path) == []

    def test_ledger_format(self, tmp_path):
        ledger_path, statelog_path = self.write_run(tmp_path, steps=2)
        lines = ledger_path.read_text().splitlines()
        assert len(lines) == 4
        parts = lines[0].split("\t")
        assert len(parts) == 3
        int(parts[0]); int(parts[1]); bytes.fromhex(parts[2])

    def test_statelog_edit_detected(self, tmp_path):
        ledger_path, statelog_path = self.write_run(tmp_path)
        lines = statelog_path.read_text().splitlines()
        lines[3] = lines[3].replace('"rating_q":', '"rating_q":1', 1)
        statelog_path.write_text("\n".join(lines) + "\n")
        findings = verify_artifacts(ledger_path, statelog_path)
        assert findings, "edited rating must be detected"

    def test_ledger_flip_located(self, tmp_path):
        ledger_path, statelog_path = self.write_run(tmp_path)
        lines = ledger_path.read_text().splitlines()
        digest = lines[2].split("\t")[2]
        flipped = ("0" if digest[5] != "0" else "1")
        lines[2] = "\t".join(lines[2].split("\t")[:2] + [digest[:5] + flipped + digest[6:]])
        ledger_path.write_text("\n".join(lines) + "\n")
        findings = verify_artifacts(ledger_path, statelog_path)
        assert (0, 2) in findings

    def test_truncated_ledger_reported(self, tmp_path):
        ledger_path, statelog_path = self.write_run(tmp_path)
        lines = ledger_path.read_text().splitlines()
        ledger_path.write_text("\n".join(lines[:-1]) + "\n")
        findings = verify_artifacts(ledger_path, statelog_path)
        assert findings


class TestGoldenDigests:
    """Cross-platform determinism: fixed states must yield these exact digests."""

    def test_golden(self):
        chain = LedgerChain(7)
        a1 = agent(aid=7, rating=0.125, strength=2.0, probs=(0.25, 0.75), parent=3, birth=2)
        a2 = agent(aid=7, rating=0.25, strength=2.5, probs=(0.1, 0.9), parent=3, birth=2)
        commit(chain, encode_state(a1, 2), 2)
        commit(chain, encode_state(a2, 3), 3)
        assert chain.entries[0][1].hex() == GOLDEN_0
        assert chain.entries[1][1].hex() == GOLDEN_1

    def test_golden_commit_rows(self):
        chains = LedgerColumns()
        a1 = agent(aid=7, rating=0.125, strength=2.0, probs=(0.25, 0.75), parent=3, birth=2)
        a2 = agent(aid=7, rating=0.25, strength=2.5, probs=(0.1, 0.9), parent=3, birth=2)
        commit_rows(chains, *quantize_rows(a1, 2, Arena()), 2)
        commit_rows(chains, *quantize_rows(a2, 3, Arena()), 3)
        assert [d.hex() for _, d in chains[7].entries] == [GOLDEN_0, GOLDEN_1]


GOLDEN_0 = "46179aec9ddec0e7b95e376004ffaef1c76e22035a377f6c6c30f418a26bd00c"
GOLDEN_1 = "434d46760aa417bcc83cbb0725e7b4435a6c4df470deb2c87307a814af2f5929"


def reference_findings(ledger_path, statelog_path):
    """The per-row verifier that verify_artifacts replaced, kept as its oracle:
    JSON rows grouped per agent, replayed through encode_quantized and
    verify_chain."""
    chains = {}
    for line in Path(ledger_path).read_text().splitlines():
        if line:
            agent_id, step, digest = line.split("\t")
            chain = chains.setdefault(int(agent_id), LedgerChain(int(agent_id)))
            chain.entries.append((int(step), bytes.fromhex(digest)))
    replay = {}
    for line in Path(statelog_path).read_text().splitlines():
        if line:
            row = json.loads(line)
            replay.setdefault(row["agent_id"], []).append(row)
    findings = []
    for agent_id in sorted(set(chains) | set(replay)):
        chain, rows = chains.get(agent_id), replay.get(agent_id, [])
        if chain is None:
            findings.append((agent_id, rows[0]["step"]))
            continue
        if len(rows) != len(chain.entries):
            n = min(len(rows), len(chain.entries))
            findings.append((agent_id, chain.entries[n][0] if len(chain.entries) > n
                             else rows[n]["step"]))
            continue
        misaligned = [step for (step, _), row in zip(chain.entries, rows) if row["step"] != step]
        if misaligned:
            findings.append((agent_id, misaligned[0]))
            continue
        bad = verify_chain(chain, [encode_quantized(**row) for row in rows])
        if bad is not None:
            findings.append((agent_id, bad))
    return findings


def _flip_digit(line, rng):
    """Change one digit of one number in a line so that the line keeps its
    grammar: a non-leading digit, or a single digit to another non-zero one;
    in a ledger line the number may also be the hex digest."""
    tokens = list(re.finditer(r"[0-9a-f]{64}|[0-9]+", line))
    token = rng.choice(tokens)
    if len(token.group()) == 64:
        i = token.start() + rng.randrange(64)
        return line[:i] + rng.choice([c for c in "0123456789abcdef" if c != line[i]]) + line[i + 1:]
    if len(token.group()) == 1:
        i, digits = token.start(), "123456789"
    else:
        i, digits = token.start() + rng.randrange(1, len(token.group())), "0123456789"
    return line[:i] + rng.choice([c for c in digits if c != line[i]]) + line[i + 1:]


def _swap(lines, rng):
    i, j = rng.sample(range(len(lines)), 2)
    lines[i], lines[j] = lines[j], lines[i]


def _move(lines, rng):
    i, j = rng.sample(range(len(lines)), 2)
    lines.insert(j, lines.pop(i))


def _truncate(lines, rng):
    del lines[rng.randrange(len(lines)):]


def _flip(lines, rng):
    i = rng.randrange(len(lines))
    lines[i] = _flip_digit(lines[i], rng)


# Structural tampers; each edits a list of lines in place, drawing from rng.
# Blank lines change nothing: both verifiers skip them.
TAMPERS = {
    "blank_lines": lambda lines, rng: lines.insert(rng.randrange(len(lines) + 1), "\n" * 400),
    "delete": lambda lines, rng: lines.pop(rng.randrange(len(lines))),
    "duplicate": lambda lines, rng: lines.insert(rng.randrange(len(lines) + 1),
                                                 lines[rng.randrange(len(lines))]),
    "swap": _swap,
    "move": _move,
    "truncate": _truncate,
    "flip_digit": _flip,
}


@pytest.fixture(scope="module")
def async_artifacts(tmp_path_factory):
    """Ledger and state-log lines of an asynchronous run with spawns and deaths."""
    cfg = small_config(evolution={"tau_ext": 0.2, "tau_rep": 0.6, "grace": 3},
                       rating={"sigma": 0.05},
                       run={"horizon": 40, "mode": "async", "async_bound": 3})
    res = simulate(cfg, schedule=default_schedule(cfg))
    assert sum(m.spawns for m in res.metrics) > 0 and sum(m.deaths for m in res.metrics) > 0
    assert any(m.active_count < m.population_size for m in res.metrics)
    out = tmp_path_factory.mktemp("async")
    write_ledger(out / "ledger.tsv", res.chains)
    write_state_log(out / "statelog.jsonl", res.statelog)
    return {name: (out / name).read_text().splitlines(keepends=True)
            for name in ("ledger.tsv", "statelog.jsonl")}


class TestStreamingVerify:
    @pytest.mark.parametrize("block_bytes", [ledger._BLOCK_BYTES, 300])
    @pytest.mark.parametrize("kind", sorted(TAMPERS))
    def test_findings_match_reference(self, kind, block_bytes, async_artifacts, tmp_path,
                                      monkeypatch):
        monkeypatch.setattr(ledger, "_BLOCK_BYTES", block_bytes)
        found = 0
        for name in sorted(async_artifacts):
            for seed in range(8):
                files = {n: list(lines) for n, lines in async_artifacts.items()}
                TAMPERS[kind](files[name], random.Random(seed))
                for n, lines in files.items():
                    (tmp_path / n).write_text("".join(lines))
                paths = (tmp_path / "ledger.tsv", tmp_path / "statelog.jsonl")
                expected = reference_findings(*paths)
                assert verify_artifacts(*paths) == expected, (name, seed)
                found += bool(expected)
        assert found == 0 if kind == "blank_lines" else found >= 8

    def test_misaligned_step_outranks_earlier_digest(self, async_artifacts, tmp_path):
        lines = list(async_artifacts["statelog.jsonl"])
        agent_id = json.loads(lines[0])["agent_id"]
        mine = [i for i, line in enumerate(lines) if json.loads(line)["agent_id"] == agent_id]
        for i, key, change in ((mine[0], "rating_q", 1), (mine[2], "step", 1000)):
            row = json.loads(lines[i])
            row[key] += change
            lines[i] = json.dumps(row, separators=(",", ":")) + "\n"
        (tmp_path / "statelog.jsonl").write_text("".join(lines))
        (tmp_path / "ledger.tsv").write_text("".join(async_artifacts["ledger.tsv"]))
        paths = (tmp_path / "ledger.tsv", tmp_path / "statelog.jsonl")
        step_2 = json.loads(async_artifacts["statelog.jsonl"][mine[2]])["step"]
        assert verify_artifacts(*paths) == reference_findings(*paths) == [(agent_id, step_2)]

    def test_untampered_run_verifies(self, async_artifacts, tmp_path, monkeypatch):
        for n, lines in async_artifacts.items():
            (tmp_path / n).write_text("".join(lines))
        for block_bytes in (1, 300, ledger._BLOCK_BYTES):
            monkeypatch.setattr(ledger, "_BLOCK_BYTES", block_bytes)
            assert verify_artifacts(tmp_path / "ledger.tsv", tmp_path / "statelog.jsonl") == []

    @pytest.mark.parametrize("block_bytes", [1, 300, ledger._BLOCK_BYTES])
    def test_read_state_log_inverts_writer(self, block_bytes, tmp_path, monkeypatch):
        monkeypatch.setattr(ledger, "_BLOCK_BYTES", block_bytes)
        rng = np.random.default_rng(3)
        matrices = [rng.integers(INT64_MIN, INT64_MAX, size=(n, 9), endpoint=True)
                    for n in (1, 7, 0, 40)]
        matrices[0][0, 2:4] = INT64_MAX, INT64_MIN
        matrices[1][:, 4:6] = 0, -1
        path = tmp_path / "statelog.jsonl"
        write_state_log(path, map(state_pair, matrices))
        blocks = list(read_state_log(path))
        assert all(s.dtype == b.dtype == np.dtype("<i8") and s.shape[1] == 6 and b.shape[1] == 3
                   for s, b in blocks)
        assert np.array_equal(np.concatenate([encoding_rows(*b) for b in blocks]),
                              np.concatenate(matrices))
        write_state_log(tmp_path / "again.jsonl", read_state_log(path))  # blocks in, same bytes
        assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()

    def test_int64_extremes_verify_clean(self, tmp_path):
        q = np.array([[3, 0, INT64_MAX, INT64_MIN, INT64_MIN, INT64_MAX, -1, 0],
                      [4, 0, 0, 1, INT64_MAX, 5, 3, 0]], dtype="<i8")
        chains = LedgerColumns()
        commit_rows(chains, *state_pair(q), 0)
        write_ledger(tmp_path / "ledger.tsv", chains)
        write_state_log(tmp_path / "statelog.jsonl", [state_pair(q)])
        assert verify_artifacts(tmp_path / "ledger.tsv", tmp_path / "statelog.jsonl") == []

    def test_verify_memory_below_state_log_size(self, tmp_path):
        rng = np.random.default_rng(0)
        n, k, steps = 100, 100, 100
        chains, matrices = LedgerColumns(), []
        for t in range(steps):
            q = rng.integers(10 ** 9, 10 ** 10, size=(n, k + 6))
            q[:, 0], q[:, 1] = np.arange(n), t
            commit_rows(chains, *state_pair(q), t)
            matrices.append(state_pair(q))
        write_ledger(tmp_path / "ledger.tsv", chains)
        write_state_log(tmp_path / "statelog.jsonl", matrices)
        del chains, matrices
        size = (tmp_path / "statelog.jsonl").stat().st_size
        assert size >= 10 * 2 ** 20
        tracemalloc.start()
        try:
            findings = verify_artifacts(tmp_path / "ledger.tsv", tmp_path / "statelog.jsonl")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert findings == []
        assert peak < size, (peak, size)

    def test_verify_memory_per_ledger_entry(self, tmp_path):
        # Ledger columns take 48 bytes per entry (two int64s and a digest);
        # the peaks' difference between two ledger sizes leaves out the
        # per-block buffers. An empty state log leaves every chain unreplayed.
        def peak(agents, steps=100):
            with open(tmp_path / "ledger.tsv", "w") as f:
                f.writelines(f"{a}\t{t}\t{(a * 7919 + t) % 997:064x}\n"
                             for a in range(agents) for t in range(steps))
            (tmp_path / "statelog.jsonl").write_text("")
            tracemalloc.start()
            try:
                findings = verify_artifacts(tmp_path / "ledger.tsv", tmp_path / "statelog.jsonl")
                used = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert findings == [(a, 0) for a in range(agents)]
            return used

        per_entry = (peak(1000) - peak(100)) / (100_000 - 10_000)
        assert per_entry <= 56, per_entry


class DrawsAt(random.Random):
    """Draws as random.Random(seed) does, except that its first randrange
    returns ``at``, and its first sample starts with ``at``: a TAMPERS edit
    made at line ``at``."""

    def __init__(self, seed, at):
        super().__init__(seed)
        self.at = at

    def randrange(self, *args):
        at, self.at = self.at, None
        return super().randrange(*args) if at is None else at

    def sample(self, population, k):
        at, self.at = self.at, None
        picks = super().sample(population, k)
        return picks if at is None else [at, *[p for p in picks if p != at][:k - 1]]


def cut_at(text):
    """The byte offset where the two-process replay cuts a state log: the
    first line start past its middle byte."""
    return text.find("\n", len(text) // 2) + 1


def cut_line(lines):
    """The index of the first of ``lines`` after the cut."""
    text = "".join(lines)
    return text[:cut_at(text)].count("\n")


class TestTwoProcessVerify:
    """A state log of more than two blocks replays its lines before the cut
    in a forked child and the rest in the caller; the findings and errors are
    those of the one pass that runs without os.fork."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # The (lo, hi) of each read_state_log call made in this process (a
        # forked child appends to its own copy), with blocks of 300 bytes, so
        # that the async run's state log (43 KB) takes the two-process path.
        calls, read = [], ledger.read_state_log

        def spy(path, lo=0, hi=None, k=None, first=1):
            calls.append((lo, hi))
            return read(path, lo, hi, k, first)

        monkeypatch.setattr(ledger, "read_state_log", spy)
        monkeypatch.setattr(ledger, "_BLOCK_BYTES", 300)
        return calls

    def one_pass(self, paths, monkeypatch):
        with monkeypatch.context() as m:
            m.delattr(os, "fork")
            try:
                return audit_artifacts(*paths)
            except ShapeMismatch as exc:
                return str(exc)

    def check(self, state_lines, async_artifacts, tmp_path, monkeypatch, calls):
        """Audit the state log of ``state_lines`` on two processes, and check
        it against the one pass and the reference; return the findings."""
        (tmp_path / "ledger.tsv").write_text("".join(async_artifacts["ledger.tsv"]))
        (tmp_path / "statelog.jsonl").write_text("".join(state_lines))
        paths = (tmp_path / "ledger.tsv", tmp_path / "statelog.jsonl")
        calls.clear()
        split = audit_artifacts(*paths)
        assert calls == [(cut_at("".join(state_lines)), None)]  # this process replayed only from the cut
        assert split == self.one_pass(paths, monkeypatch)
        assert split[0] == reference_findings(*paths)
        return split[0]

    @pytest.mark.parametrize("kind", sorted(TAMPERS))
    def test_tampers_at_the_cut(self, kind, async_artifacts, tmp_path, monkeypatch, calls):
        lines = async_artifacts["statelog.jsonl"]
        assert len("".join(lines)) > 2 * 300
        found = 0
        for at in (cut_line(lines) - 1, cut_line(lines)):  # the last line before, the first after
            for seed in range(2):
                tampered = list(lines)
                TAMPERS[kind](tampered, DrawsAt(seed, at))
                found += bool(self.check(tampered, async_artifacts, tmp_path, monkeypatch, calls))
        assert found == 0 if kind == "blank_lines" else found >= 3

    def test_blank_lines_across_the_cut(self, async_artifacts, tmp_path, monkeypatch, calls):
        lines = list(async_artifacts["statelog.jsonl"])
        lines.insert(cut_line(lines), "\n" * 400)
        spread = "".join(lines).splitlines(keepends=True)
        i = cut_line(spread)
        assert spread[i - 1] == spread[i] == "\n"  # the cut falls inside the blank run
        assert self.check(spread, async_artifacts, tmp_path, monkeypatch, calls) == []

    def refuse(self, lines, side, edit, async_artifacts, tmp_path, monkeypatch, calls):
        """Audit ``lines`` with a leading zero after ``edit`` on the line
        ``side`` lines from the first after the cut: each half reads its lines
        once, and the error names the line the one pass names."""
        i = cut_line(lines) + side
        lines[i] = lines[i].replace(edit, edit + "0", 1)  # a leading zero
        (tmp_path / "ledger.tsv").write_text("".join(async_artifacts["ledger.tsv"]))
        (tmp_path / "statelog.jsonl").write_text("".join(lines))
        paths = (tmp_path / "ledger.tsv", tmp_path / "statelog.jsonl")
        calls.clear()
        with pytest.raises(ShapeMismatch, match=f"^state log line {i + 1}: ") as info:
            audit_artifacts(*paths)
        assert calls == [(cut_at("".join(lines)), None)]  # each half read once, no re-run
        assert str(info.value) == self.one_pass(paths, monkeypatch)

    @pytest.mark.parametrize("side", [-1, 0])  # the child's half, the caller's half
    @pytest.mark.parametrize("edit", ['"belief_q":[', '{"agent_id":'])
    def test_malformed_line_raises_the_one_pass_error(self, side, edit, async_artifacts,
                                                       tmp_path, monkeypatch, calls):
        self.refuse(list(async_artifacts["statelog.jsonl"]), side, edit, async_artifacts,
                    tmp_path, monkeypatch, calls)

    @pytest.mark.parametrize("side", [-1, 0])
    def test_empty_lines_before_a_malformed_line_are_numbered(self, side, async_artifacts,
                                                              tmp_path, monkeypatch, calls):
        self.refuse(["\n"] * 3 + list(async_artifacts["statelog.jsonl"]), side,
                    '"belief_q":[', async_artifacts, tmp_path, monkeypatch, calls)

    def test_counts_that_differ_mean_a_changed_file(self, async_artifacts, tmp_path,
                                                     monkeypatch, calls):
        # The child's row counts stand in for those of a first half that
        # changed between its replay and this process's id scan.
        alongside = ledger._alongside

        def changed(child, parent):
            (counted, *rest), mine = alongside(child, parent)
            counted[0] += 1
            return (counted, *rest), mine

        monkeypatch.setattr(ledger, "_alongside", changed)
        for name, lines in async_artifacts.items():
            (tmp_path / name).write_text("".join(lines))
        with pytest.raises(ShapeMismatch, match="^state log changed while it was read$"):
            audit_artifacts(tmp_path / "ledger.tsv", tmp_path / "statelog.jsonl")

    def test_verify_memory_below_state_log_size_in_one_pass(self, tmp_path, monkeypatch):
        # TestStreamingVerify's bound holds on the two-process replay, where
        # this process scans the first half's ids a block at a time, and here
        # on the one pass.
        monkeypatch.delattr(os, "fork")
        TestStreamingVerify().test_verify_memory_below_state_log_size(tmp_path)
