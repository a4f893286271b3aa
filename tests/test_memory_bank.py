import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from psm.memory_bank import (
    MemoryBank,
    load_bank,
    query_topk,
    query_topk_batch,
    save_bank,
)
from psm.numerics import RngState, l2_normalize_rows
from psm._binio import FormatError


def _unit_rows(rng, n, d):
    return l2_normalize_rows(rng.normal((n, d)))


class TestFifo:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(1, 12),
        st.lists(st.integers(1, 30), min_size=1, max_size=8),
        st.integers(0, 2**32),
    )
    def test_matches_naive_list_truncation(self, capacity, batch_sizes, seed):
        rng = RngState(seed)
        bank = MemoryBank(capacity, 4, with_labels=True)
        stream: list[np.ndarray] = []
        stream_labels: list[int] = []
        for bi, n in enumerate(batch_sizes):
            batch = _unit_rows(rng.split("b", bi), n, 4)
            labels = np.arange(len(stream), len(stream) + n, dtype=np.int64)
            bank.enqueue_batch(batch, labels)
            stream.extend(batch)
            stream_labels.extend(labels.tolist())
        expect = np.array(stream[-capacity:])
        np.testing.assert_array_equal(bank.entries(), expect)
        assert bank.labels().tolist() == stream_labels[-capacity:]
        assert len(bank) == min(capacity, len(stream))

    def test_snapshot_semantics(self):
        bank = MemoryBank(4, 3)
        batch = np.eye(3)
        bank.enqueue_batch(batch)
        batch[0, 0] = 0.0
        np.testing.assert_array_equal(bank.entries(), np.eye(3))

    def test_oversized_batch_keeps_newest(self):
        rng = RngState(0)
        batch = _unit_rows(rng, 7, 3)
        bank = MemoryBank(4, 3)
        bank.enqueue_batch(batch)
        np.testing.assert_array_equal(bank.entries(), batch[3:])

    def test_labels_required_when_configured(self):
        bank = MemoryBank(4, 3, with_labels=True)
        with pytest.raises(ValueError, match="supply"):
            bank.enqueue_batch(np.eye(3))

    def test_labels_rejected_when_not_configured(self):
        bank = MemoryBank(4, 3)
        with pytest.raises(ValueError):
            bank.enqueue_batch(np.eye(3), np.arange(3))

    def test_non_unit_rows_rejected(self):
        bank = MemoryBank(4, 3)
        with pytest.raises(ValueError):
            bank.enqueue_batch(np.full((2, 3), 0.9))

    def test_dim_mismatch_rejected(self):
        bank = MemoryBank(4, 3)
        with pytest.raises(ValueError):
            bank.enqueue_batch(np.eye(4))

    def test_labels_at_follows_enqueue_order(self):
        bank = MemoryBank(3, 2, with_labels=True)
        bank.enqueue_batch(np.array([[1.0, 0.0]]), np.array([10]))
        bank.enqueue_batch(np.array([[0.0, 1.0]]), np.array([11]))
        bank.enqueue_batch(np.array([[1.0, 0.0]]), np.array([12]))
        bank.enqueue_batch(np.array([[0.0, 1.0]]), np.array([13]))  # evicts 10
        assert bank.labels_at(np.array([0, 2])).tolist() == [11, 13]


class TestQueryTopk:
    def test_brute_force_equivalence(self):
        for seed in range(50):
            rng = RngState(seed)
            n = 1 + int(rng.integers(0, 40))
            d = 2 + int(rng.integers(0, 6))
            k = int(rng.integers(0, 8))
            entries = _unit_rows(rng, n, d)
            bank = MemoryBank(max(n, 1), d)
            bank.enqueue_batch(entries)
            q = _unit_rows(rng, 1, d)[0]
            ns = query_topk(bank, q, k)
            sims = np.clip(entries @ q, -1.0, 1.0)
            want = np.argsort(-sims, kind="stable")[: min(k, n)]
            np.testing.assert_array_equal(ns.bank_indices, want)
            np.testing.assert_array_equal(ns.members[0], q)
            assert ns.sims[0] == 1.0
            np.testing.assert_allclose(ns.sims[1:], sims[want], atol=0)

    def test_empty_bank_yields_singleton(self):
        bank = MemoryBank(4, 3)
        q = np.array([1.0, 0.0, 0.0])
        ns = query_topk(bank, q, 5)
        assert ns.k == 0
        np.testing.assert_array_equal(ns.members, q[None, :])
        assert ns.sims.tolist() == [1.0]

    def test_k_zero_yields_singleton(self):
        bank = MemoryBank(4, 3)
        bank.enqueue_batch(np.eye(3))
        ns = query_topk(bank, np.array([1.0, 0.0, 0.0]), 0)
        assert ns.k == 0 and ns.bank_indices.size == 0

    def test_small_bank_returns_everything(self):
        bank = MemoryBank(8, 3)
        bank.enqueue_batch(np.eye(3))
        ns = query_topk(bank, np.array([1.0, 0.0, 0.0]), 7)
        assert ns.k == 3

    def test_dim_mismatch(self):
        bank = MemoryBank(4, 3)
        with pytest.raises(ValueError):
            query_topk(bank, np.array([1.0, 0.0]), 2)

    def test_batch_matches_single_queries(self):
        rng = RngState(12)
        entries = _unit_rows(rng, 20, 5)
        bank = MemoryBank(16, 5)
        # duplicates of two rows, and a wrapped ring buffer
        bank.enqueue_batch(entries[:12])
        bank.enqueue_batch(np.concatenate([entries[12:], entries[[3, 9]]]))
        assert bank._ptr != 0
        queries = np.concatenate([_unit_rows(rng, 4, 5), entries[[3, 9]]])
        members, idx, sims, k_eff = query_topk_batch(bank, queries, 4)
        assert k_eff == 4 and members.shape == (6, 5, 5)
        for i in range(6):
            single = query_topk(bank, queries[i], 4)
            np.testing.assert_array_equal(idx[i], single.bank_indices)
            np.testing.assert_array_equal(members[i], single.members)
            np.testing.assert_allclose(sims[i], single.sims, atol=0)

    @pytest.mark.parametrize("wrapped", [False, True])
    @pytest.mark.parametrize("k", range(7))
    def test_duplicate_rows_tie_to_smaller_enqueue_index(self, wrapped, k):
        far, mid, best = [0.0, 1.0], [0.6, 0.8], [1.0, 0.0]
        bank = MemoryBank(5, 2)
        bank.enqueue_batch(np.array([far, mid, best, far, mid]))
        if wrapped:
            bank.enqueue_batch(np.array([mid]))  # evicts the oldest far row
            assert bank._ptr != 0
        q = np.array([[1.0, 0.0], [0.6, 0.8]])
        members, idx, sims, k_eff = query_topk_batch(bank, q, k)
        entries = bank.entries()
        want = np.argsort(-(q @ entries.T), axis=1, kind="stable")[:, :k_eff]
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(members[:, 1:], entries[want])
        if k == 2:
            assert idx[0].tolist() == ([1, 0] if wrapped else [2, 1])

    def test_batch_cold_bank(self):
        bank = MemoryBank(8, 3)
        members, idx, sims, k_eff = query_topk_batch(bank, np.eye(3), 5)
        assert k_eff == 0 and idx.shape == (3, 0)
        np.testing.assert_array_equal(members[:, 0, :], np.eye(3))

    def test_indices_refer_to_enqueue_order_after_wrap(self):
        bank = MemoryBank(2, 2, with_labels=True)
        bank.enqueue_batch(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        bank.enqueue_batch(np.array([[-1.0, 0.0]]), np.array([2]))  # evicts label 0
        ns = query_topk(bank, np.array([-1.0, 0.0]), 1)
        assert bank.labels_at(ns.bank_indices).tolist() == [2]


class TestBankIO:
    @pytest.mark.parametrize("with_labels", [False, True])
    def test_round_trip(self, tmp_path, with_labels):
        rng = RngState(3)
        bank = MemoryBank(10, 4, with_labels=with_labels)
        labels = np.arange(6, dtype=np.int64) if with_labels else None
        bank.enqueue_batch(_unit_rows(rng, 6, 4), labels)
        path = tmp_path / "bank.psmb"
        save_bank(bank, path)
        back = load_bank(path)
        assert back.capacity == 10 and len(back) == 6 and back.dim == 4
        np.testing.assert_array_equal(back.entries(), bank.entries())
        if with_labels:
            np.testing.assert_array_equal(back.labels(), bank.labels())

    def test_truncated_file_rejected(self, tmp_path):
        bank = MemoryBank(4, 3)
        bank.enqueue_batch(np.eye(3))
        path = tmp_path / "bank.psmb"
        save_bank(bank, path)
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        with pytest.raises(FormatError):
            load_bank(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "bank.psmb"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError):
            load_bank(path)

    def test_huge_capacity_round_trips_without_allocating_it(self, tmp_path):
        rows = _unit_rows(RngState(6), 3, 4)
        bank = MemoryBank(2**40, 4)
        bank.enqueue_batch(rows)
        path = tmp_path / "bank.psmb"
        save_bank(bank, path)
        back = load_bank(path)
        assert back.capacity == 2**40 and len(back) == 3
        assert back._buf.nbytes <= 3 * 4 * 8
        np.testing.assert_array_equal(back.entries(), rows)
        assert query_topk(back, rows[1], 1).bank_indices.tolist() == [1]
        save_bank(back, path)
        assert load_bank(path).capacity == 2**40
