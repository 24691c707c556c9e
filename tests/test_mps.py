"""Tests for MPS initialization, gate application, canonical form and overlaps."""

import copy
import struct

import numpy as np
import pytest

from mpskernel import mps
from mpskernel.ansatz import Circuit, FeatureMapConfig, Gate, build_circuit, encode_circuit
from mpskernel.mps import (

    apply_gate,
    canonicalize,
    deserialize_state,
    init_state,
    inner_product,
    run_circuit,
    serialize_state,
    simulate_circuit,
    to_statevector,
)

from oracles import statevector

def random_feature_circuit(rng, m, d=None, r=1, gamma=0.5):
    cfg = FeatureMapConfig(m, r, d or max(1, m // 2), gamma)
    x = rng.uniform(0.0, 2.0, m)
    return encode_circuit(x, cfg)

def count_qr(monkeypatch):
    """List that gains one entry per np.linalg.qr call while the test runs."""
    calls = []
    qr = np.linalg.qr

    def counted(*args, **kwargs):
        calls.append(1)
        return qr(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counted)
    return calls

class TestInitState:
    def test_zero_state_is_normalized_product(self):
        state = init_state(3, "zero")
        assert abs(inner_product(state, state) - 1.0) < 1e-12
        assert state.peak_chi == 1

    def test_plus_zero_overlap(self):
        plus = init_state(4, "plus")
        zero = init_state(4, "zero")
        assert inner_product(plus, zero) == pytest.approx(0.25, abs=1e-12)

    def test_plus_statevector_is_uniform(self):
        vec = to_statevector(init_state(10, "plus"))
        assert np.allclose(vec, 2.0**-5)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            init_state(0)

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            init_state(2, "minus")

class TestApplyGate:
    def test_zero_angle_rxx_is_identity(self):
        rng = np.random.default_rng(0)
        state = simulate_circuit(random_feature_circuit(rng, 4))
        before = copy.deepcopy(state)
        apply_gate(state, Gate("RXX", (1, 2), 0.0))
        assert abs(inner_product(before, state)) == pytest.approx(1.0, abs=1e-12)

    def test_three_gate_circuit_matches_dense(self):
        circuit = Circuit(
            4,
            [
                Gate("H", (0,)),
                Gate("RXX", (0, 1), 0.7),
                Gate("RZ", (2,), -1.3),
            ],
        )
        state = simulate_circuit(circuit)
        assert np.allclose(to_statevector(state), statevector(circuit), atol=1e-10)

    def test_non_adjacent_two_qubit_gate_rejected(self):
        state = init_state(4, "plus")
        with pytest.raises(ValueError, match="adjacent"):
            apply_gate(state, Gate("RXX", (0, 2), 0.5))

    def test_out_of_range_qubit_rejected(self):
        state = init_state(2, "zero")
        with pytest.raises(ValueError, match="range"):
            apply_gate(state, Gate("H", (2,)))

    def test_reversed_qubit_order_matches_dense(self):
        circuit = Circuit(3, [Gate("H", (1,)), Gate("RXX", (2, 1), 0.9)])
        state = simulate_circuit(circuit)
        assert np.allclose(to_statevector(state), statevector(circuit), atol=1e-10)

    def test_center_on_right_site_needs_no_qr(self, monkeypatch):
        x = np.random.default_rng(23).uniform(0.0, 2.0, 6)
        circuit = build_circuit(x, FeatureMapConfig(6, 1, 2, 1.0))
        state = canonicalize(simulate_circuit(circuit), 3)
        gate = Gate("RXX", (2, 3), 0.7)
        calls = count_qr(monkeypatch)
        apply_gate(state, gate)
        assert len(calls) == 0
        assert state.ortho_center == 3
        assert_isometries_around(state, 3)
        expected = statevector(Circuit(6, circuit.gates + [gate]))
        assert np.allclose(to_statevector(state), expected, atol=1e-10)

def assert_isometries_around(state, center):
    for i, site in enumerate(state.sites):
        chi_l, p, chi_r = site.shape
        if i < center:
            mat = site.reshape(chi_l * p, chi_r)
            assert np.allclose(mat.conj().T @ mat, np.eye(chi_r), atol=1e-12)
        elif i > center:
            mat = site.reshape(chi_l, p * chi_r)
            assert np.allclose(mat @ mat.conj().T, np.eye(chi_l), atol=1e-12)

class TestCanonicalize:
    def test_product_state_norm_preserved(self):
        state = init_state(5, "plus")
        for center in (0, 2, 4):
            canonicalize(state, center)
            assert abs(inner_product(state, state) - 1.0) < 1e-12

    def test_entangled_state_isometries(self):
        rng = np.random.default_rng(1)
        state = simulate_circuit(random_feature_circuit(rng, 4, d=2))
        before = copy.deepcopy(state)
        canonicalize(state, 2)
        assert state.ortho_center == 2
        assert_isometries_around(state, 2)
        assert abs(inner_product(before, state)) == pytest.approx(1.0, abs=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        state = simulate_circuit(random_feature_circuit(rng, 5, d=2))
        canonicalize(state, 3)
        snapshot = [t.copy() for t in state.sites]
        canonicalize(state, 3)
        for a, b in zip(snapshot, state.sites):
            assert np.allclose(a, b, atol=1e-12)

    def test_every_center_reachable(self):
        rng = np.random.default_rng(3)
        state = simulate_circuit(random_feature_circuit(rng, 6, d=3))
        for center in (5, 0, 3):
            canonicalize(state, center)
            assert_isometries_around(state, center)

    def test_out_of_range_center_rejected(self):
        with pytest.raises(ValueError):
            canonicalize(init_state(3), 3)

class TestInnerProduct:
    def test_normalization_after_circuit(self):
        rng = np.random.default_rng(4)
        state = simulate_circuit(random_feature_circuit(rng, 6, d=2, r=2))
        assert abs(inner_product(state, state) - 1.0) < 1e-10

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(5)
        c1 = random_feature_circuit(rng, 6, d=3, r=2)
        c2 = random_feature_circuit(rng, 6, d=2, r=1)
        s1, s2 = simulate_circuit(c1), simulate_circuit(c2)
        dense = np.vdot(statevector(c1), statevector(c2))
        assert abs(inner_product(s1, s2) - dense) < 1e-10

    def test_unequal_bond_profiles_match_dense_oracle(self):
        # bond-1 product bra against an entangled ket, both orders, and the
        # d=3 / d=2 pair of test_matches_dense_oracle with bra and ket swapped
        rng = np.random.default_rng(5)
        c1 = random_feature_circuit(rng, 6, d=3, r=2)
        c2 = random_feature_circuit(rng, 6, d=2, r=1)
        s1, s2 = simulate_circuit(c1), simulate_circuit(c2)
        assert s1.peak_chi > 2 and s1.peak_chi != s2.peak_chi
        plus, v1, v2 = init_state(6, "plus"), statevector(c1), statevector(c2)
        vplus = np.full(2**6, 2**-3, dtype=np.complex128)
        cases = ((plus, s1, vplus, v1), (s1, plus, v1, vplus), (s2, s1, v2, v1))
        for bra, ket, dense_bra, dense_ket in cases:
            assert abs(inner_product(bra, ket) - np.vdot(dense_bra, dense_ket)) < 1e-12

    def test_qubit_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            inner_product(init_state(3), init_state(4))

class TestToStatevector:
    def test_zero_state(self):
        vec = to_statevector(init_state(3, "zero"))
        assert vec[0] == 1.0 and np.allclose(vec[1:], 0.0)

    def test_plus_two_qubits(self):
        assert np.allclose(to_statevector(init_state(2, "plus")), 0.5)

    def test_norm_after_circuit(self):
        rng = np.random.default_rng(6)
        state = simulate_circuit(random_feature_circuit(rng, 7, d=3, r=2))
        assert np.sum(np.abs(to_statevector(state)) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_guard_against_large_m(self):
        with pytest.raises(ValueError):
            to_statevector(init_state(21))

class TestStats:
    def test_product_state_counters(self):
        state = init_state(100, "plus")
        assert state.peak_chi == 1
        assert state.entry_count() == 200
        assert 16 * state.entry_count() == 3200

    def test_entry_bound_on_random_circuits(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            state = simulate_circuit(random_feature_circuit(rng, 8, d=3, r=2))
            assert state.entry_count() <= 2 * state.m * state.peak_chi**2
            assert max(t.shape[2] for t in state.sites) <= state.peak_chi

    def test_gate_counts(self):
        circuit = Circuit(3, [Gate("H", (0,)), Gate("RXX", (0, 1), 0.4), Gate("SWAP", (1, 2))])
        state = simulate_circuit(circuit)
        assert state.gate_count_1q == 1
        assert state.gate_count_2q == 2

class TestTruncationAccounting:
    def test_discard_bounded_by_budget_times_gates(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            state = simulate_circuit(random_feature_circuit(rng, 7, d=3, r=2))
            assert state.accumulated_discard <= state.gate_count_2q * state.trunc_budget_per_gate

    def test_fidelity_against_untruncated_run(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            circuit = random_feature_circuit(rng, 6, d=3, r=3, gamma=1.0)
            truncated = simulate_circuit(circuit, budget=1e-16)
            exact = simulate_circuit(circuit, budget=0.0)
            fidelity = abs(inner_product(exact, truncated)) ** 2
            assert fidelity >= 1.0 - truncated.accumulated_discard - 1e-12

    def test_discard_is_monotone(self):
        rng = np.random.default_rng(10)
        state = init_state(5, "zero", trunc_budget_per_gate=1e-16)
        circuit = random_feature_circuit(rng, 5, d=2, r=2)
        last = 0.0
        for gate in circuit.gates:
            apply_gate(state, gate)
            assert state.accumulated_discard >= last
            last = state.accumulated_discard

class TestOracleEquivalence:
    def test_feature_circuits_match_dense(self):
        rng = np.random.default_rng(11)
        for m in (2, 4, 7, 10):
            for d in (1, min(3, m - 1)):
                for gamma in (0.1, 0.5, 1.0):
                    cfg = FeatureMapConfig(m, int(rng.integers(1, 4)), d, gamma)
                    x = rng.uniform(0.0, 2.0, m)
                    circuit = encode_circuit(x, cfg)
                    state = simulate_circuit(circuit)
                    assert np.allclose(
                        to_statevector(state), statevector(circuit), atol=1e-10
                    )

    def test_canonical_form_after_each_two_qubit_gate(self):
        rng = np.random.default_rng(12)
        circuit = random_feature_circuit(rng, 5, d=2, r=2)
        state = init_state(5, "zero")
        for gate in circuit.gates:
            apply_gate(state, gate)
            if len(gate.qubits) == 2:
                assert state.ortho_center is not None
                assert_isometries_around(state, state.ortho_center)

class TestSerialization:
    def test_round_trip_preserves_state(self):
        rng = np.random.default_rng(13)
        state = simulate_circuit(random_feature_circuit(rng, 6, d=2, r=2))
        clone = deserialize_state(serialize_state(state))
        assert clone.m == state.m
        assert clone.accumulated_discard == state.accumulated_discard
        assert clone.ortho_center == state.ortho_center
        assert clone.gate_count_2q == state.gate_count_2q
        for a, b in zip(state.sites, clone.sites):
            assert np.array_equal(a, b)

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError):
            deserialize_state(b"nope" + b"\x00" * 64)

    def test_truncated_or_padded_buffers_rejected(self):
        blob = serialize_state(init_state(3, "plus"))
        header = struct.pack("<IddiIQQ", 2, 1e-24, 0.0, 0, 1, 0, 0)
        no_sites = b"MPS1" + struct.pack("<IddiIQQ", 0, 1e-24, 0.0, 0, 1, 0, 0)
        broken_bond = (
            b"MPS1"
            + header
            + struct.pack("<II", 1, 2)
            + bytes(16 * 4)
            + struct.pack("<II", 1, 1)
            + bytes(16 * 2)
        )

        # a bond-2 state whose header peak_chi, bytes 28..32, is patched to 1
        entangled = serialize_state(simulate_circuit(Circuit(3, [Gate("RXX", (0, 1), 0.7)])))
        low_peak = entangled[:28] + struct.pack("<I", 1) + entangled[32:]

        def with_header(center=0, budget=1e-24, discard=0.0):
            head = struct.pack("<IddiIQQ", 3, budget, discard, center, 1, 0, 0)
            return blob[:4] + head + blob[4 + len(head):]

        # bare magic, short header, short site record, short entries, trailing
        # byte, zero sites, neighbouring sites whose bonds disagree, a center
        # past the last site, a budget or discard that is NaN, infinite or
        # negative, and a peak_chi below the largest bond
        for bad in (
            b"MPS1",
            blob[:20],
            blob[:52],
            blob[:-1],
            blob + b"\x00",
            no_sites,
            broken_bond,
            with_header(center=7),
            with_header(center=3),
            with_header(budget=float("nan")),
            with_header(budget=-1.0),
            with_header(discard=-5.0),
            with_header(discard=float("inf")),
            low_peak,
        ):
            with pytest.raises(ValueError):
                deserialize_state(bad)

    def test_run_circuit_memory_log(self):
        rng = np.random.default_rng(14)
        circuit = random_feature_circuit(rng, 5, d=2, r=2)
        log = []
        simulate_circuit(circuit, memory_log=log)
        assert len(log) == len(circuit.gates)
        assert all(entry > 0 for entry in log)

    def test_memory_ends_below_peak_when_truncation_fires(self):
        # SWAP-heavy routed circuit: the closing reverse-SWAP sequences shed
        # bond dimension once truncation is active
        rng = np.random.default_rng(15)
        x = 1.0 + rng.uniform(-0.1, 0.1, 40)
        circuit = encode_circuit(x, FeatureMapConfig(40, 2, 4, 1.0))
        log = []
        state = simulate_circuit(circuit, budget=1e-16, memory_log=log)
        assert state.accumulated_discard > 0.0
        assert log[-1] < max(log)


class TestFanOut:
    """Circuits simulated as built: RXX gates sharing a left qubit become one MPO fan-out."""

    def test_built_circuits_match_dense(self):
        rng = np.random.default_rng(16)
        for m in range(2, 11):
            for d in range(1, m):
                for gamma in (0.1, 1.0):
                    cfg = FeatureMapConfig(m, int(rng.integers(1, 3)), d, gamma)
                    circuit = build_circuit(rng.uniform(0.0, 2.0, m), cfg)
                    state = simulate_circuit(circuit)
                    err = np.abs(to_statevector(state) - statevector(circuit)).max()
                    assert err < 1e-10, (m, d, gamma, err)
                    assert max(t.shape[2] for t in state.sites) <= state.peak_chi

    def test_hand_built_circuits_match_dense(self):
        hadamards = [Gate("H", (q,)) for q in range(5)]
        rxx = [Gate("RXX", pair, 0.3 + 0.2 * n)
               for n, pair in enumerate([(0, 1), (0, 2), (1, 4), (0, 4), (2, 3), (1, 2), (3, 4)])]
        shuffled = [rxx[n] for n in np.random.default_rng(17).permutation(len(rxx))]
        cases = {
            "reversed pair": [Gate("RXX", (3, 0), 0.9)],
            "lone non-contiguous": [Gate("RXX", (0, 3), 0.7)],
            "repeated pair": [Gate("RXX", (1, 3), 0.4), Gate("RXX", (3, 1), 1.1),
                              Gate("RXX", (1, 2), 0.6), Gate("RXX", (1, 2), -0.2)],
            "shuffled run": shuffled,
            "rz between runs": [rxx[3], Gate("RZ", (2,), 0.8), rxx[1], rxx[2],
                                Gate("RZ", (0,), -1.2), rxx[0], rxx[6], Gate("H", (4,)), rxx[4]],
        }
        for name, gates in cases.items():
            circuit = Circuit(5, hadamards + [Gate("RZ", (q,), 0.3 * q) for q in range(5)] + gates)
            state = simulate_circuit(circuit)
            err = np.abs(to_statevector(state) - statevector(circuit)).max()
            assert err < 1e-10, (name, err)

    def test_one_split_per_spanned_bond(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return svd_truncated(*args, **kwargs)

        svd_truncated = mps.svd_truncated
        monkeypatch.setattr(mps, "svd_truncated", counted)
        m, d, r = 12, 4, 2
        x = np.random.default_rng(18).uniform(0.0, 2.0, m)
        state = simulate_circuit(build_circuit(x, FeatureMapConfig(m, r, d, 1.0)))
        expected = r * sum(m - k for k in range(1, d + 1))
        assert len(calls) == expected
        assert state.gate_count_2q == expected

    def test_isometries_around_center(self):
        rng = np.random.default_rng(19)
        for d in (2, 4, 7):
            x = rng.uniform(0.0, 2.0, 8)
            state = simulate_circuit(build_circuit(x, FeatureMapConfig(8, 2, d, 1.0)))
            assert state.ortho_center is not None
            assert_isometries_around(state, state.ortho_center)

    def test_truncation_accounting(self):
        rng = np.random.default_rng(20)
        discards = []
        for _ in range(4):
            x = 1.0 + rng.uniform(-0.1, 0.1, 12)
            circuit = build_circuit(x, FeatureMapConfig(12, 2, 4, 1.0))
            truncated = simulate_circuit(circuit, budget=1e-16)
            exact = simulate_circuit(circuit, budget=0.0)
            w = truncated.accumulated_discard
            discards.append(w)
            assert w <= truncated.gate_count_2q * truncated.trunc_budget_per_gate
            fidelity = abs(inner_product(exact, truncated)) ** 2
            assert fidelity >= 1.0 - 2.0 * w - 1e-12
        assert max(discards) > 0.0

    def test_matches_routed_simulation(self):
        # near-midpoint features at budget 1e-16 keep the routed run to seconds
        x = 1.0 + np.random.default_rng(21).uniform(-0.1, 0.1, 20)
        cfg = FeatureMapConfig(20, 2, 6, 1.0)
        fan_out = simulate_circuit(build_circuit(x, cfg), budget=1e-16)
        routed = simulate_circuit(encode_circuit(x, cfg), budget=1e-16)
        assert fan_out.accumulated_discard > 0.0
        assert abs(abs(inner_product(routed, fan_out)) - 1.0) < 1e-10

    def test_center_inside_window_costs_only_the_sweep(self, monkeypatch):
        x = np.random.default_rng(24).uniform(0.0, 2.0, 7)
        circuit = build_circuit(x, FeatureMapConfig(7, 1, 2, 1.0))
        fan_out = Circuit(7, [Gate("RXX", (1, 2), 0.4), Gate("RXX", (1, 4), -0.9)])
        calls = count_qr(monkeypatch)
        for center in (1, 2, 4):
            state = canonicalize(simulate_circuit(circuit), center)
            calls.clear()
            run_circuit(state, fan_out)
            assert len(calls) == 4 - 1, center  # the fan-out's own sweep 1 -> 4
            assert state.ortho_center == 1
            assert_isometries_around(state, 1)
            expected = statevector(Circuit(7, circuit.gates + fan_out.gates))
            assert np.allclose(to_statevector(state), expected, atol=1e-10)

    def test_cancelling_angles_leave_the_state(self):
        # the block sites double every bond of the window 1..4; as the angles
        # cancel, the SVD sweep must find the added singular values below the
        # noise floor and drop them with zero discard
        x = np.random.default_rng(25).uniform(0.0, 2.0, 7)
        before = simulate_circuit(build_circuit(x, FeatureMapConfig(7, 1, 2, 1.0)))
        cancelling = Circuit(7, [Gate("RXX", (1, 2), 0.7), Gate("RXX", (1, 4), -0.9),
                                 Gate("RXX", (4, 1), 0.9), Gate("RXX", (1, 2), -0.7)])
        after = run_circuit(copy.deepcopy(before), cancelling)
        assert [t.shape for t in after.sites] == [t.shape for t in before.sites]
        assert after.accumulated_discard == before.accumulated_discard == 0.0
        assert abs(abs(inner_product(before, after)) - 1.0) < 1e-12

    def test_memory_log_has_one_entry_per_built_gate(self):
        x = np.random.default_rng(22).uniform(0.0, 2.0, 7)
        circuit = build_circuit(x, FeatureMapConfig(7, 2, 3, 0.5))
        log = []
        simulate_circuit(circuit, memory_log=log)
        assert len(log) == len(circuit.gates)
        assert all(entry > 0 for entry in log)
