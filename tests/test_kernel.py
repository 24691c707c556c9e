"""Tests for Gram computation, the schedule record and the Gram executor."""

import copy
import threading
import time

import numpy as np
import pytest

from mpskernel import kernel
from mpskernel.ansatz import FeatureMapConfig, Gate
from mpskernel.kernel import (
    STRATEGIES,
    RunReport,
    TileSchedule,
    coarse_grain,
    compute_gram,
    make_schedule,
    run_distributed,
    save_gram,
    simulate_dataset,
)
from mpskernel.mps import (
    MpsState,
    apply_gate,
    canonicalize,
    init_state,
    inner_product,
    to_statevector,
)

from oracles import gram_dense


CFG = FeatureMapConfig(m=6, r=1, d=2, gamma=0.5)


@pytest.fixture(scope="module")
def rows():
    rng = np.random.default_rng(42)
    return rng.uniform(0.0, 2.0, (8, 6))


@pytest.fixture(scope="module")
def states(rows):
    return simulate_dataset(rows, CFG)


class TestSimulateDataset:
    def test_empty_input(self):
        assert simulate_dataset(np.zeros((0, 6)), CFG) == []

    def test_states_are_normalized(self, states):
        assert len(states) == 8
        for state in states:
            assert abs(inner_product(state, state) - 1.0) < 1e-10

    def test_duplicate_rows_give_identical_states(self):
        row = np.linspace(0.1, 1.9, 6)
        states = simulate_dataset(np.vstack([row, row]), CFG)
        assert abs(inner_product(states[0], states[1])) == pytest.approx(1.0, abs=1e-10)

    def test_row_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length 6"):
            simulate_dataset(np.zeros((2, 5)), CFG)

    def test_non_finite_rejected(self):
        bad = np.full((1, 6), np.nan)
        with pytest.raises(ValueError, match="finite"):
            simulate_dataset(bad, CFG)


class TestComputeGram:
    def test_unit_diagonal(self, states):
        gram = compute_gram(states, states, "train")
        assert np.allclose(np.diag(gram), 1.0, atol=1e-10)

    def test_orthogonal_basis_states(self):
        a = init_state(2, "zero")
        b = init_state(2, "zero")
        apply_gate(b, Gate("RXX", (0, 1), np.pi))  # |00> -> -i|11>
        gram = compute_gram([a, b], [a, b], "test")
        assert gram[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_matches_dense_oracle(self, rows, states):
        gram = compute_gram(states, states, "train")
        dense = gram_dense([to_statevector(s) for s in states])
        assert np.abs(gram - dense).max() < 1e-10

    def test_symmetry_is_exact(self, states):
        gram = compute_gram(states, states, "train")
        assert np.array_equal(gram, gram.T)

    def test_train_requires_same_states(self, rows, states):
        resimulated = simulate_dataset(rows, CFG)
        with pytest.raises(ValueError, match="same states"):
            compute_gram(states, resimulated, "train")

    def test_qubit_mismatch_rejected(self, states):
        other = simulate_dataset(np.ones((1, 4)), FeatureMapConfig(4, 1, 1, 0.5))
        with pytest.raises(ValueError, match="mismatch"):
            compute_gram(other, states, "test")

    def test_inner_product_count(self, states):
        for n in (3, 5, 8):
            report = RunReport()
            compute_gram(states[:n], states[:n], "train", report=report)
            assert report.n_inner_products == n * (n - 1) // 2


# (m, d) with d in {1, 3, 6} capped at m - 1; one qubit has no couplings
MIXED_CASES = sorted({(m, min(d, max(m - 1, 1))) for m in (1, 2, 3, 15) for d in (1, 3, 6)})
# the cases small enough for dense vectors, and m=10, where blocks form
DENSE_CASES = [c for c in MIXED_CASES if c[0] <= 10] + [(10, 1), (10, 3), (10, 6)]


@pytest.fixture(scope="module")
def mixed_states():
    """Per (m, d): five states from two bandwidths, so one Gram mixes bond profiles."""
    cache = {}

    def get(m, d):
        if (m, d) not in cache:
            rng = np.random.default_rng(100 * m + d)
            X = rng.uniform(0.0, 2.0, (5, m))
            if m == 1:
                cache[m, d] = []
                for x in X[:, 0]:
                    state = init_state(1)
                    apply_gate(state, Gate("H", (0,)))
                    apply_gate(state, Gate("RZ", (0,), float(x)))
                    cache[m, d].append(state)
            else:
                narrow = simulate_dataset(X[:3], FeatureMapConfig(m, 2, d, 0.1))
                cache[m, d] = narrow + simulate_dataset(X[3:], FeatureMapConfig(m, 2, d, 1.0))
        return cache[m, d]

    return get


def _raw_gram(bras, kets):
    return np.array([[abs(inner_product(a, b)) ** 2 for b in kets] for a in bras])


class TestCoarseGrain:
    @pytest.mark.parametrize("m,d", MIXED_CASES)
    def test_gram_matches_raw_pair_loop(self, mixed_states, m, d):
        states = mixed_states(m, d)
        train = compute_gram(states, states, "train")
        raw = _raw_gram(states, states)
        np.fill_diagonal(raw, 1.0)
        assert np.abs(train - raw).max() < 1e-13
        assert np.array_equal(train, train.T)
        bras = [states[4], states[0]]
        test = compute_gram(bras, states, "test")
        assert np.abs(test - _raw_gram(bras, states)).max() < 1e-13

    @pytest.mark.parametrize("m,d", DENSE_CASES)
    def test_states_keep_vector_and_isometric_flanks(self, mixed_states, m, d):
        # each state as simulated and with its center moved to the middle
        states = mixed_states(m, d)
        states = states + [canonicalize(copy.deepcopy(s), m // 2) for s in states]
        for state, merged in zip(states, coarse_grain(states)):
            assert np.abs(to_statevector(merged) - to_statevector(state)).max() < 1e-13
            for counter in ("peak_chi", "accumulated_discard", "gate_count_1q", "gate_count_2q"):
                assert getattr(merged, counter) == getattr(state, counter), counter
            for b, site in enumerate(merged.sites):
                chi_l, p, chi_r = site.shape
                if b < merged.ortho_center:
                    mat = site.reshape(chi_l * p, chi_r)
                    assert np.abs(mat.conj().T @ mat - np.eye(chi_r)).max() < 1e-13
                elif b > merged.ortho_center:
                    mat = site.reshape(chi_l, p * chi_r)
                    assert np.abs(mat @ mat.conj().T - np.eye(chi_l)).max() < 1e-13

    def test_blocks_follow_the_bond_profile(self):
        # bonds 1,2,4,...,4,2,1: the left edge merges four sites, the bulk
        # pairs, and the right edge three; a product state's sites pair up
        rng = np.random.default_rng(0)
        chi = [1, 2, 4, 4, 4, 4, 4, 4, 4, 4, 2, 1]
        sites = [rng.normal(size=(chi[i], 2, chi[i + 1])) + 0j for i in range(11)]
        merged = coarse_grain([MpsState(sites, ortho_center=5)])[0]
        assert [t.shape for t in merged.sites] == [(1, 16, 4), (4, 4, 4), (4, 4, 4), (4, 8, 1)]
        assert merged.ortho_center == 1
        assert [t.shape[1] for t in coarse_grain([init_state(5)])[0].sites] == [4, 4, 2]

    def test_mismatched_qubit_counts_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            coarse_grain([init_state(3), init_state(4)])

    def test_dense_limit_counts_qubits_not_blocks(self):
        merged = coarse_grain([init_state(21)])[0]
        assert merged.m < 21
        with pytest.raises(ValueError, match="refusing"):
            to_statevector(merged)


class TestPairLoopContract:
    def test_one_inner_product_call_per_entry(self, states, monkeypatch):
        calls = []
        real = kernel.inner_product

        def counted(bra, ket):
            calls.append(None)
            return real(bra, ket)

        monkeypatch.setattr(kernel, "inner_product", counted)
        for n in (1, 2, 8):
            calls.clear()
            compute_gram(states[:n], states[:n], "train")
            assert len(calls) == n * (n - 1) // 2, n
            calls.clear()
            compute_gram(states[:3], states[:n], "test")
            assert len(calls) == 3 * n, n


class TestMakeSchedule:
    def test_records_kind_and_counts(self):
        for strategy in STRATEGIES:
            for k in (1, 2, 10):
                sched = make_schedule(3, 10, k, strategy, "test")
                assert (sched.kind, sched.n_bras, sched.n_kets) == ("test", 3, 10)
        assert set(TileSchedule.__dataclass_fields__) == {"kind", "n_bras", "n_kets"}

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            make_schedule(4, 5, 2, "round_robin", "train")
        with pytest.raises(ValueError):
            make_schedule(4, 4, 0, "round_robin", "train")
        with pytest.raises(ValueError):
            make_schedule(4, 4, 2, "broadcast", "train")
        with pytest.raises(ValueError):
            make_schedule(4, 4, 2, "round_robin", "validation")


class TestRunDistributed:
    def test_single_worker_equals_serial_exactly(self, rows, states):
        serial = compute_gram(states, states, "train")
        sched = make_schedule(8, 8, 1, "round_robin", "train")
        gram = run_distributed(rows, rows, CFG, sched)
        assert np.array_equal(gram, serial)

    @pytest.mark.parametrize("strategy", ["round_robin", "no_messaging"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_matches_serial_within_tolerance(self, rows, states, strategy, k):
        serial = compute_gram(states, states, "train")
        sched = make_schedule(8, 8, k, strategy, "train")
        gram = run_distributed(rows, rows, CFG, sched)
        assert np.array_equal(gram, serial)

    def test_strategies_agree_on_test_kind(self, rows):
        rng = np.random.default_rng(3)
        test_rows = rng.uniform(0.0, 2.0, (3, 6))
        serial = compute_gram(simulate_dataset(test_rows, CFG), simulate_dataset(rows, CFG), "test")
        for strategy in ("round_robin", "no_messaging"):
            for k in (1, 2, 4):
                sched = make_schedule(3, 8, k, strategy, "test")
                gram = run_distributed(test_rows, rows, CFG, sched)
                assert np.array_equal(gram, serial), (strategy, k)

    def test_round_robin_simulation_count(self, rows):
        for k in (1, 2, 4):
            report = RunReport()
            sched = make_schedule(8, 8, k, "round_robin", "train")
            run_distributed(rows, rows, CFG, sched, report=report)
            assert report.n_simulations == 8, k
            assert report.n_inner_products == 28, k

    def test_no_messaging_simulates_more(self, rows):
        # The states-first executor simulates each row once, so no_messaging
        # now costs exactly as many simulations as round_robin.
        for k in (1, 2, 4):
            report = RunReport()
            sched = make_schedule(8, 8, k, "no_messaging", "train")
            run_distributed(rows, rows, CFG, sched, report=report)
            assert report.n_simulations == 8, k
            assert report.n_inner_products == 28, k

    def test_train_gram_is_psd(self, rows):
        sched = make_schedule(8, 8, 2, "round_robin", "train")
        gram = run_distributed(rows, rows, CFG, sched)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        assert eigs.min() >= -1e-10

    def test_entries_in_unit_interval(self, rows):
        sched = make_schedule(8, 8, 3, "round_robin", "train")
        gram = run_distributed(rows, rows, CFG, sched)
        assert gram.min() >= 0.0
        assert gram.max() <= 1.0 + 1e-10

    def test_mismatched_rows_rejected(self, rows):
        sched = make_schedule(8, 8, 2, "round_robin", "train")
        with pytest.raises(ValueError, match="state counts"):
            run_distributed(rows[:4], rows[:4], CFG, sched)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_simulation_failure_surfaces_without_hanging(self, rows, strategy, monkeypatch):
        class InjectedFailure(Exception):
            pass

        real = kernel.simulate_circuit
        calls = []

        def fail_fourth_call(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4:
                raise InjectedFailure("simulation failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(kernel, "simulate_circuit", fail_fourth_call)
        sched = make_schedule(8, 8, 2, strategy, "train")
        outcome = []

        def call():
            try:
                run_distributed(rows, rows, CFG, sched)
            except BaseException as exc:
                outcome.append(exc)

        # a hung run must fail this test, not stall the suite
        runner = threading.Thread(target=call, daemon=True)
        runner.start()
        runner.join(timeout=30)
        assert not runner.is_alive(), "run_distributed hung after a simulation failure"
        assert len(outcome) == 1 and isinstance(outcome[0], InjectedFailure)

    def test_phase_seconds_fit_in_wall_time(self, rows):
        report = RunReport()
        sched = make_schedule(8, 8, 2, "round_robin", "train")
        t0 = time.perf_counter()
        run_distributed(rows, rows, CFG, sched, report=report)
        wall = time.perf_counter() - t0
        assert sum(report.seconds.values()) <= wall


class TestGramPersistence:
    def test_round_trip_is_bit_stable(self, tmp_path, rows, states):
        gram = compute_gram(states, states, "train")
        path = tmp_path / "gram.csv"
        save_gram(gram, path, sidecar={"strategy": "round_robin", "k": 1, "N": 8})
        loaded = np.loadtxt(path, delimiter=",", ndmin=2)
        assert np.array_equal(loaded, gram)
        assert (tmp_path / "gram.csv.json").exists()

    def test_sidecar_contents(self, tmp_path, states):
        import json

        gram = compute_gram(states[:3], states[:3], "train")
        path = tmp_path / "g.csv"
        sidecar = {"kind": "train", "strategy": "no_messaging", "k": 2, "N": 3}
        save_gram(gram, path, sidecar=sidecar)
        meta = json.loads((tmp_path / "g.csv.json").read_text())
        assert meta["kind"] == "train"
        assert meta["rows"] == 3 and meta["cols"] == 3
        assert meta["strategy"] == "no_messaging"

    def test_single_row_matrix(self, tmp_path):
        gram = np.array([[1.0, 0.25]])
        path = tmp_path / "one.csv"
        save_gram(gram, path)
        loaded = np.loadtxt(path, delimiter=",", ndmin=2)
        assert loaded.shape == (1, 2)
