import numpy as np
import pytest

from episwarm.errors import LengthMismatch, NonMonotonicStep
from episwarm.evolution import Population
from episwarm.ledger import (STRENGTH_MAX, LedgerChain, commit, commit_rows,
                             encode_quantized, quantize_rows, verify_chain, verify_artifacts,
                             write_ledger, write_state_log)
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
    r = quantize_rows(pop, step)[0].tolist()
    k = len(r) - 6
    return encode_quantized(r[0], r[1], r[2:k + 2], *r[k + 2:])


class TestEncoding:
    def test_rating_above_quantum_distinct(self):
        a = encode_state(agent(rating=0.5), 0)
        b = encode_state(agent(rating=0.5 + 1e-5), 0)
        assert a.data != b.data

    def test_rating_below_quantum_identical(self):
        a = encode_state(agent(rating=0.5), 0)
        b = encode_state(agent(rating=0.5 + 1e-8), 0)
        assert a.data == b.data

    def test_deterministic(self):
        assert encode_state(agent(), 3).data == encode_state(agent(), 3).data

    def test_version_prefix_and_length(self):
        enc = encode_state(agent(), 0)
        assert enc.data[:2] == b"\x00\x01"
        # prefix + 8 ints: id, step, K=2 belief entries, rating, strength, parent, birth
        assert len(enc.data) == 2 + 8 * 8

    def test_parent_none_encoded_as_minus_one(self):
        q = quantize_rows(agent(), 0)[0]
        assert q[-2] == -1
        q2 = quantize_rows(agent(parent=7), 0)[0]
        assert q2[-2] == 7

    def test_population_rows(self):
        pop = Population.create(SP2, np.array([[0.25, 0.75], [1.0, 0.0]]), r0=0.5,
                                ids=np.array([4, 9]), birth_step=2)
        pop.ratings[1] = 0.1234567
        pop.strengths[1] = 1e12  # beyond the encodable range: saturates
        q = quantize_rows(pop, 3)
        # columns in encoding order: id, step, K belief quanta, rating, strength,
        # parent id, birth step
        assert q.tolist() == [
            [4, 3, 250_000_000, 750_000_000, 500_000, 1_000_000_000, -1, 2],
            [9, 3, 1_000_000_000, 0, 123_457, round(STRENGTH_MAX / 1e-9), -1, 2],
        ]
        assert q.dtype == np.dtype("<i8")

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
            encodings.add(enc.data)
            digests.add(hashlib.sha256(enc.data).digest())
        assert len(encodings) == n
        assert len(digests) == n


class TestCommit:
    def test_genesis_hash(self):
        import hashlib
        enc = encode_state(agent(), 0)
        chain = commit(LedgerChain(0), enc, 0)
        assert chain.entries[0] == (0, hashlib.sha256(enc.data).digest())

    def test_chained_digest(self):
        import hashlib
        e0, e1 = encode_state(agent(), 0), encode_state(agent(rating=0.6), 1)
        chain = commit(commit(LedgerChain(0), e0, 0), e1, 1)
        d0 = hashlib.sha256(e0.data).digest()
        assert chain.entries[1] == (1, hashlib.sha256(e1.data + d0).digest())

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
        chains = {}
        q = quantize_rows(agent(), 5)
        commit_rows(chains, q, 5)
        with pytest.raises(NonMonotonicStep):
            commit_rows(chains, q, 5)
        with pytest.raises(NonMonotonicStep):
            commit_rows(chains, quantize_rows(agent(), 4), 4)
        assert [step for step, _ in chains[0].entries] == [5]


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
        bad = bytearray(encodings[40].data)
        bad[10] ^= 0x01
        encodings[40] = type(encodings[40])(bytes(bad))
        assert verify_chain(chain, encodings) == 40

    def test_truncation_length_mismatch(self):
        chain, encodings = self.build(10)
        with pytest.raises(LengthMismatch):
            verify_chain(chain, encodings[:-1])


class TestArtifacts:
    def write_run(self, tmp_path, steps=5):
        chains = {}
        matrices = []
        for aid in (0, 1):
            chain = LedgerChain(aid)
            for t in range(steps):
                a = agent(aid=aid, rating=0.4 + 0.1 * aid + 0.001 * t)
                commit(chain, encode_state(a, t), t)
                matrices.append(quantize_rows(a, t))
            chains[aid] = chain
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
        chains = {}
        a1 = agent(aid=7, rating=0.125, strength=2.0, probs=(0.25, 0.75), parent=3, birth=2)
        a2 = agent(aid=7, rating=0.25, strength=2.5, probs=(0.1, 0.9), parent=3, birth=2)
        commit_rows(chains, quantize_rows(a1, 2), 2)
        commit_rows(chains, quantize_rows(a2, 3), 3)
        assert [d.hex() for _, d in chains[7].entries] == [GOLDEN_0, GOLDEN_1]


GOLDEN_0 = "46179aec9ddec0e7b95e376004ffaef1c76e22035a377f6c6c30f418a26bd00c"
GOLDEN_1 = "434d46760aa417bcc83cbb0725e7b4435a6c4df470deb2c87307a814af2f5929"
