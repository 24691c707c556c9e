"""Tests for Gram computation, the schedule record and the Gram executor."""

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
    compute_gram,
    make_schedule,
    run_distributed,
    save_gram,
    simulate_dataset,
)
from mpskernel.mps import apply_gate, init_state, inner_product, to_statevector

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
