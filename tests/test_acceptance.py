"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).
The final check needs a user-supplied dataset CSV named by the ELLIPTIC_CSV
environment variable and is skipped otherwise.
"""

import os
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mpskernel.ansatz import FeatureMapConfig, build_circuit, encode_circuit
from mpskernel.cli import SyntheticSpec, generate_blobs
from mpskernel.kernel import (
    RunReport,
    compute_gram,
    make_schedule,
    run_distributed,
    simulate_dataset,
)
from mpskernel.learn import decision_scores, evaluate, rescale, split_indices, svm_train
from mpskernel.mps import inner_product, simulate_circuit

from oracles import auc_pairwise, gram_dense, statevector


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"\nACCEPTANCE {number} ({name}): PASS")


def random_configs(count=50, seed=20240901):
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        m = int(rng.integers(2, 11))
        d = int(rng.integers(1, min(4, m - 1) + 1))
        r = int(rng.integers(1, 4))
        gamma = float(rng.choice([0.1, 0.5, 1.0]))
        rows = rng.uniform(0.0, 2.0, (3, m))
        configs.append((FeatureMapConfig(m, r, d, gamma), rows))
    return configs


@pytest.fixture(scope="module")
def oracle_runs():
    """Shared runs for criteria 1 and 2: states, Gram error and timing."""
    t0 = time.perf_counter()
    runs = []
    for cfg, rows in random_configs():
        states = simulate_dataset(rows, cfg)
        gram = compute_gram(states, states, "train")
        dense = gram_dense([np.asarray(statevector(encode_circuit(x, cfg))) for x in rows])
        runs.append({"cfg": cfg, "rows": rows, "states": states,
                     "gram_error": float(np.abs(gram - dense).max())})
    elapsed = time.perf_counter() - t0
    return runs, elapsed


def test_criterion_1_oracle_equivalence(oracle_runs):
    runs, elapsed = oracle_runs
    with criterion(1, "oracle equivalence on 50 random configurations"):
        assert len(runs) == 50
        worst = max(run["gram_error"] for run in runs)
        assert worst < 1e-10, f"worst Gram deviation {worst:.3e}"
        assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2 minutes"


def test_criterion_2_truncation_accounting(oracle_runs):
    runs, _ = oracle_runs
    with criterion(2, "truncation error accounting"):
        for run in runs:
            for state in run["states"]:
                assert (
                    state.accumulated_discard
                    <= state.gate_count_2q * state.trunc_budget_per_gate
                )
        # fidelity against a zero-budget rerun of the same circuits
        rng = np.random.default_rng(7)
        sample = rng.choice(len(runs), size=12, replace=False)
        for idx in sample:
            run = runs[int(idx)]
            circuit = encode_circuit(run["rows"][0], run["cfg"])
            truncated = simulate_circuit(circuit, budget=1e-16)
            exact = simulate_circuit(circuit, budget=0.0)
            fidelity = abs(inner_product(exact, truncated)) ** 2
            # 1e-12 cushion: the overlap itself carries float rounding noise
            assert fidelity >= 1.0 - 2.0 * truncated.accumulated_discard - 1e-12


def test_criterion_3_routing_correctness():
    with criterion(3, "routing equivalence and SWAP count"):
        rng = np.random.default_rng(3)
        for m in range(2, 9):
            for d in range(1, min(5, m - 1) + 1):
                r = int(rng.integers(1, 3))
                cfg = FeatureMapConfig(m, r, d, 0.7)
                x = rng.uniform(0.0, 2.0, m)
                plain = build_circuit(x, cfg)
                routed = encode_circuit(x, cfg)
                dv = statevector(routed)
                assert np.allclose(dv, statevector(plain), atol=1e-10)
                swaps = sum(1 for g in routed.gates if g.kind == "SWAP")
                assert swaps == 2 * r * sum((k - 1) * (m - k) for k in range(2, d + 1))


def test_criterion_4_parallel_determinism():
    with criterion(4, "Gram determinism across workers and strategies"):
        rng = np.random.default_rng(4)
        cfg = FeatureMapConfig(8, 2, 2, 0.5)
        X = rng.uniform(0.0, 2.0, (16, 8))
        X_test = rng.uniform(0.0, 2.0, (4, 8))
        train_grams = {}
        test_grams = {}
        for strategy in ("round_robin", "no_messaging"):
            for k in (1, 2, 4):
                report = RunReport()
                sched = make_schedule(16, 16, k, strategy, "train")
                train_grams[(strategy, k)] = run_distributed(
                    X, X, cfg, sched, report=report
                )
                if strategy == "round_robin":
                    assert report.n_simulations == 16, "round robin must simulate N once"
                sched_t = make_schedule(4, 16, k, strategy, "test")
                rep_t = RunReport()
                test_grams[(strategy, k)] = run_distributed(
                    X_test, X, cfg, sched_t, report=rep_t
                )
                if strategy == "round_robin":
                    assert rep_t.n_simulations == 20
        ref_train = train_grams[("round_robin", 1)]
        ref_test = test_grams[("round_robin", 1)]
        for key, entries in train_grams.items():
            assert np.abs(entries - ref_train).max() < 1e-12, key
        for key, entries in test_grams.items():
            assert np.abs(entries - ref_test).max() < 1e-12, key


def test_criterion_5_gram_properties():
    with criterion(5, "train Gram symmetry, diagonal and positivity"):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m = int(rng.integers(2, 7))
            d = int(rng.integers(1, min(3, m - 1) + 1))
            cfg = FeatureMapConfig(m, int(rng.integers(1, 3)), d, float(rng.choice([0.1, 0.5, 1.0])))
            X = rng.uniform(0.0, 2.0, (int(rng.integers(2, 7)), m))
            states = simulate_dataset(X, cfg)
            gram = compute_gram(states, states, "train")
            assert np.array_equal(gram, gram.T)
            assert np.allclose(np.diag(gram), 1.0, atol=1e-10)
            eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
            assert eigs.min() >= -1e-10


def test_criterion_6_bond_dimension_at_scale():
    with criterion(6, "shallow-chain resources at 165 qubits"):
        # mostly-midpoint features: the regime of the resource claim, where
        # couplings vanish except around a small informative block
        ds = generate_blobs(
            SyntheticSpec(n_per_class=2, separation=6.0, n_informative=16), m=165, seed=11
        )
        X, _, _ = rescale(ds.features, ds.features)
        cfg = FeatureMapConfig(165, 2, 1, 0.1)
        t0 = time.perf_counter()
        state = simulate_circuit(encode_circuit(X[0], cfg))
        elapsed = time.perf_counter() - t0
        memory_bytes = 16 * state.entry_count()
        assert state.peak_chi <= 4, f"max chi {state.peak_chi}"
        assert memory_bytes < 15 * 1024, f"memory {memory_bytes} bytes"
        assert elapsed < 60.0, f"simulation took {elapsed:.1f}s"


def test_criterion_7_monotone_chi_growth():
    with criterion(7, "bond dimension grows with interaction distance"):
        rng = np.random.default_rng(23)
        medians = []
        for d in (2, 4, 6):
            cfg = FeatureMapConfig(40, 2, d, 1.0)
            chis = []
            for _ in range(8):
                x = 1.0 + rng.uniform(-0.1, 0.1, 40)  # bulk near the midpoint
                # 1e-16 is the truncation setting the resource trend is
                # quoted for; the trend is budget-independent but tighter
                # budgets make d=6 much slower
                state = simulate_circuit(encode_circuit(x, cfg), budget=1e-16)
                chis.append(state.peak_chi)
            medians.append(float(np.median(chis)))
        assert medians[0] < medians[1] < medians[2], medians


def test_criterion_8_svm_correctness():
    with criterion(8, "SVM analytic model and separable-set AUC"):
        # exact two-point model
        K = np.eye(2)
        model = svm_train(K, np.array([1, -1]), C=2.0)
        assert np.array_equal(model.dual_coefs, np.array([1.0, -1.0]))
        assert model.bias == 0.0

        ds = generate_blobs(SyntheticSpec(n_per_class=100, separation=6.0), m=15, seed=17)
        tr, te = split_indices(ds.labels, 0.8, seed=17)
        X_train, X_test, _ = rescale(ds.features[tr], ds.features[te])
        y_train, y_test = ds.labels[tr], ds.labels[te]

        # brute-force nearest-centroid sanity baseline
        mu_pos = X_train[y_train == 1].mean(axis=0)
        mu_neg = X_train[y_train == -1].mean(axis=0)
        centroid_scores = ((X_test - mu_neg) ** 2).sum(axis=1) - (
            (X_test - mu_pos) ** 2
        ).sum(axis=1)
        centroid = evaluate(centroid_scores, y_test)
        assert centroid.auc >= 0.95, f"baseline AUC {centroid.auc:.3f}"

        cfg = FeatureMapConfig(15, 2, 1, 0.1)
        g_train = run_distributed(
            X_train, X_train, cfg, make_schedule(160, 160, 1, "round_robin", "train")
        )
        g_test = run_distributed(
            X_test, X_train, cfg, make_schedule(40, 160, 1, "round_robin", "test")
        )
        best_auc = 0.0
        for C in np.geomspace(0.01, 4.0, 8):
            model = svm_train(g_train, y_train, float(C))
            scores = decision_scores(model, g_test)
            metrics = evaluate(scores, y_test)
            assert metrics.auc == pytest.approx(
                auc_pairwise(scores, y_test), abs=1e-12
            )
            best_auc = max(best_auc, metrics.auc)
        assert best_auc >= 0.95, f"quantum AUC {best_auc:.3f}"


def test_criterion_9_inner_product_scaling():
    with criterion(9, "train Gram needs N(N-1)/2 inner products"):
        cfg = FeatureMapConfig(4, 1, 1, 0.5)
        rng = np.random.default_rng(9)
        for n in (8, 16, 32):
            X = rng.uniform(0.0, 2.0, (n, 4))
            report = RunReport()
            sched = make_schedule(n, n, 1, "round_robin", "train")
            run_distributed(X, X, cfg, sched, report=report)
            assert report.n_inner_products == n * (n - 1) // 2
            assert report.n_simulations == n


ELLIPTIC_CSV = os.environ.get("ELLIPTIC_CSV", "")


@pytest.mark.skipif(
    not (ELLIPTIC_CSV and os.path.exists(ELLIPTIC_CSV)),
    reason="set ELLIPTIC_CSV to the preprocessed dataset CSV to run this check",
)
def test_criterion_10_elliptic_reference_auc():
    from mpskernel.cli import ExperimentConfig, cmd_experiment
    import tempfile

    with criterion(10, "reference AUC on the user-supplied dataset"):
        cfg = ExperimentConfig(
            data=ELLIPTIC_CSV,
            m=50,
            n_per_class=200,
            r=2,
            d=1,
            gamma=0.1,
            strategy="round_robin",
            workers=4,
            seed=0,
        )
        with tempfile.TemporaryDirectory() as out:
            result = cmd_experiment(cfg, out)
        best = result["best_quantum"]["test"]["auc"]
        assert abs(best - 0.877) <= 0.05, f"best AUC {best:.3f} not within 0.05 of 0.877"
