"""Tests for the encoding circuit builder, SWAP routing and build-order encoding."""

import math

import numpy as np
import pytest

from mpskernel.ansatz import (
    Circuit,
    FeatureMapConfig,
    Gate,
    build_circuit,
    circuit_from_text,
    circuit_to_text,
    encode_circuit,
    gate_matrix,
    interaction_graph,
    route_linear,
)
from mpskernel.mps import simulate_circuit

from oracles import feature_map_state, statevector


class TestInteractionGraph:
    def test_five_qubits_distance_two(self):
        edges = interaction_graph(5, 2)
        assert set(edges) == {(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3), (2, 4)}
        assert len(edges) == 7

    def test_chain(self):
        assert interaction_graph(4, 1) == [(0, 1), (1, 2), (2, 3)]

    def test_complete_graph(self):
        edges = interaction_graph(6, 5)
        assert len(edges) == 15
        assert len(set(edges)) == 15

    def test_edge_count_formula(self):
        for m in range(2, 9):
            for d in range(1, m):
                assert len(interaction_graph(m, d)) == sum(m - k for k in range(1, d + 1))

    def test_distance_out_of_range(self):
        with pytest.raises(ValueError):
            interaction_graph(5, 0)
        with pytest.raises(ValueError):
            interaction_graph(5, 5)


class TestFeatureMapConfig:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            FeatureMapConfig(0, 1, 1, 0.5)
        with pytest.raises(ValueError):
            FeatureMapConfig(4, 0, 1, 0.5)
        with pytest.raises(ValueError):
            FeatureMapConfig(4, 1, 4, 0.5)
        with pytest.raises(ValueError):
            FeatureMapConfig(4, 1, 1, 0.0)


class TestBuildCircuit:
    def test_midpoint_features_give_zero_coupling(self):
        cfg = FeatureMapConfig(2, 1, 1, 1.0)
        circuit = build_circuit(np.array([1.0, 1.0]), cfg)
        rxx = [g for g in circuit.gates if g.kind == "RXX"]
        assert len(rxx) == 1
        assert rxx[0].angle == 0.0

    def test_gate_count(self):
        cfg = FeatureMapConfig(3, 2, 1, 0.5)
        circuit = build_circuit(np.array([0.2, 1.1, 1.9]), cfg)
        assert len(circuit.gates) == 3 + 2 * (3 + 2)

    def test_endpoint_features_angle(self):
        cfg = FeatureMapConfig(2, 1, 1, 1.0)
        circuit = build_circuit(np.array([0.0, 2.0]), cfg)
        rxx = [g for g in circuit.gates if g.kind == "RXX"]
        assert rxx[0].angle == pytest.approx(-math.pi)
        state = statevector(circuit)
        oracle = feature_map_state([0.0, 2.0], cfg)
        assert np.abs(np.vdot(state, oracle)) == pytest.approx(1.0, abs=1e-10)
        assert np.allclose(state, oracle, atol=1e-10)

    def test_matches_hamiltonian_oracle(self):
        rng = np.random.default_rng(0)
        for m in (2, 3, 5, 6):
            for gamma in (0.1, 0.5, 1.0):
                cfg = FeatureMapConfig(m, int(rng.integers(1, 4)), int(rng.integers(1, m)), gamma)
                x = rng.uniform(0.0, 2.0, m)
                assert np.allclose(
                    statevector(build_circuit(x, cfg)),
                    feature_map_state(x, cfg),
                    atol=1e-10,
                )

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="features"):
            build_circuit(np.zeros(3), FeatureMapConfig(4, 1, 1, 0.5))

    def test_out_of_range_feature_rejected(self):
        with pytest.raises(ValueError, match="rescale"):
            build_circuit(np.array([0.5, 2.5]), FeatureMapConfig(2, 1, 1, 0.5))


class TestRxxCommutation:
    def test_random_permutations_agree(self):
        rng = np.random.default_rng(2)
        gates = [Gate("RXX", e, float(a)) for e, a in
                 zip(interaction_graph(6, 3), rng.uniform(-2, 2, 12))]
        reference = statevector(Circuit(6, gates))
        for _ in range(4):
            perm = [gates[i] for i in rng.permutation(len(gates))]
            assert np.allclose(statevector(Circuit(6, perm)), reference, atol=1e-10)


class TestRouteLinear:
    def test_adjacent_gate_unchanged(self):
        circuit = Circuit(3, [Gate("RXX", (0, 1), 0.4)])
        routed = route_linear(circuit)
        assert routed.gates == circuit.gates

    def test_distance_three_adds_four_swaps(self):
        for qubits in ((0, 3), (3, 0)):
            routed = route_linear(Circuit(4, [Gate("RXX", qubits, 0.4)]))
            swaps = [g for g in routed.gates if g.kind == "SWAP"]
            assert len(swaps) == 2 * (3 - 1)
            for g in routed.gates:
                if len(g.qubits) == 2:
                    assert abs(g.qubits[0] - g.qubits[1]) == 1

    def test_full_circuit_statevector_preserved(self):
        rng = np.random.default_rng(3)
        cfg = FeatureMapConfig(6, 2, 3, 0.8)
        x = rng.uniform(0.0, 2.0, 6)
        plain = build_circuit(x, cfg)
        routed = route_linear(plain)
        assert np.allclose(statevector(routed), statevector(plain), atol=1e-10)

    def test_swap_overhead_formula(self):
        for m, d, r in [(4, 2, 1), (6, 3, 2), (8, 5, 2), (7, 4, 3)]:
            cfg = FeatureMapConfig(m, r, d, 0.3)
            x = np.linspace(0.0, 2.0, m)
            routed = encode_circuit(x, cfg)
            swaps = sum(1 for g in routed.gates if g.kind == "SWAP")
            assert swaps == 2 * r * sum((k - 1) * (m - k) for k in range(2, d + 1))

    def test_single_qubit_gates_stay_on_their_wire(self):
        # the layout is restored after each routed gate, so H/RZ positions hold
        circuit = Circuit(4, [Gate("RXX", (0, 3), 0.4), Gate("RZ", (2,), 0.5)])
        routed = route_linear(circuit)
        rz = [g for g in routed.gates if g.kind == "RZ"]
        assert rz == [Gate("RZ", (2,), 0.5)]


class TestEncodeCircuit:
    def test_gates_keep_build_order(self):
        x = np.random.default_rng(5).uniform(0.0, 2.0, 7)
        chain = FeatureMapConfig(7, 2, 1, 0.6)
        assert encode_circuit(x, chain).gates == build_circuit(x, chain).gates
        band = FeatureMapConfig(7, 2, 3, 0.6)
        routed = [(g.kind, g.angle) for g in encode_circuit(x, band).gates if g.kind != "SWAP"]
        built = [(g.kind, g.angle) for g in build_circuit(x, band).gates]
        assert routed == built

    @pytest.mark.parametrize("r", [2, 3])
    def test_chain_sweeps_center_once_per_repetition(self, monkeypatch, r):
        # in build order each RXX acts where the previous one left the center,
        # so only the walk back to site 0 before a later repetition costs QRs
        m = 20
        qr = np.linalg.qr
        calls = []

        def counting_qr(*args, **kwargs):
            calls.append(1)
            return qr(*args, **kwargs)

        x = np.random.default_rng(6).uniform(0.0, 2.0, m)
        circuit = encode_circuit(x, FeatureMapConfig(m, r, 1, 0.7))
        monkeypatch.setattr(np.linalg, "qr", counting_qr)
        simulate_circuit(circuit)
        assert len(calls) <= (r - 1) * (m - 1)


class TestGateMatrix:
    def test_all_kinds_unitary(self):
        for gate in (
            Gate("H", (0,)),
            Gate("RZ", (0,), 0.7),
            Gate("RXX", (0, 1), -1.2),
            Gate("SWAP", (0, 1)),
        ):
            u = gate_matrix(gate)
            assert np.allclose(u.conj().T @ u, np.eye(u.shape[0]), atol=1e-12)

    def test_rxx_identity_at_zero(self):
        assert np.allclose(gate_matrix(Gate("RXX", (0, 1), 0.0)), np.eye(4))


class TestCircuitText:
    def test_round_trip(self):
        rng = np.random.default_rng(4)
        cfg = FeatureMapConfig(5, 2, 2, 0.9)
        circuit = encode_circuit(rng.uniform(0, 2, 5), cfg)
        parsed = circuit_from_text(circuit_to_text(circuit), m=5)
        assert parsed.gates == circuit.gates

    def test_golden_format(self):
        circuit = Circuit(
            3,
            [
                Gate("H", (0,)),
                Gate("RZ", (1,), 0.5),
                Gate("RXX", (0, 1), -0.25),
                Gate("SWAP", (1, 2)),
            ],
        )
        assert circuit_to_text(circuit) == "H 0\nRZ 1 0.5\nRXX 0 1 -0.25\nSWAP 1 2\n"

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            circuit_from_text("RZ 0\n")


class TestGateValidation:
    def test_arity_checked(self):
        with pytest.raises(ValueError):
            Gate("H", (0, 1))
        with pytest.raises(ValueError):
            Gate("RXX", (0,), 0.5)

    def test_angle_presence_checked(self):
        with pytest.raises(ValueError):
            Gate("RZ", (0,))
        with pytest.raises(ValueError):
            Gate("SWAP", (0, 1), 0.5)

    def test_circuit_rejects_out_of_range_qubits(self):
        with pytest.raises(ValueError):
            Circuit(2, [Gate("H", (2,))])
