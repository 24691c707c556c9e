"""Matrix product state simulation of linear-chain quantum circuits.

A state over ``m`` qubits is a chain of rank-3 site tensors with bonds (left
virtual, physical 2, right virtual); the boundary virtual bonds have dimension
1. An adjacent two-qubit gate grows the shared virtual bond and is truncated
back by one SVD within a per-gate error budget. A group of RXX gates that
share a left qubit, at any distance, is applied without SWAPs as one fan-out:
an exact bond-2 MPO, diagonal in its bond, so each site it spans becomes two
X-rotated copies of itself (side by side, block-diagonal, then stacked), and
each doubled bond is split by one truncating SVD. Every truncating split draws
on the same budget, and the discarded weight is accumulated on the state.
Contractions are GEMMs on row-major views of the sites: one (l*2, 2*r) GEMM
merges a gate pair, an overlap takes two per site on a (bra bond, ket bond)
environment, and the dense export one per site.
"""

from __future__ import annotations

import itertools
import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .ansatz import Circuit, Gate, gate_matrix
from .tensor import svd_truncated

# Per-gate truncation budget: the squared sum of singular values a single
# truncating split may discard. The default is tight enough that kernel
# entries track an exact simulation to better than 1e-10; loosen it (1e-16 is
# a common choice) to trade a little accuracy for smaller bond dimensions.
DEFAULT_TRUNC_BUDGET = 1e-24
_MAX_DENSE_QUBITS = 20
_MAGIC = b"MPS1"


@dataclass
class MpsState:
    """Chain of site tensors plus truncation-error bookkeeping.

    ``ortho_center`` is the site index whose flanks are left/right
    isometries; every state has one. ``accumulated_discard`` is the running
    sum of squared singular values removed by gate truncations and never
    decreases. ``peak_chi`` is the largest bond any truncating split has kept;
    every bond is made by such a split and QR sweeps never grow one, so it
    bounds every bond of the state. ``gate_count_2q`` counts truncating
    splits: one per adjacent two-qubit gate and one per bond a fan-out spans.
    ``timings`` holds wall seconds per phase, and ``entry_count()`` times 16
    is the state's memory in bytes.
    """

    sites: list[np.ndarray]
    ortho_center: int
    trunc_budget_per_gate: float = DEFAULT_TRUNC_BUDGET
    accumulated_discard: float = 0.0
    peak_chi: int = 1
    gate_count_1q: int = 0
    gate_count_2q: int = 0
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.sites)

    def entry_count(self) -> int:
        return sum(t.size for t in self.sites)

    def _tick(self, phase: str, t0: float) -> None:
        self.timings[phase] = self.timings.get(phase, 0.0) + (time.perf_counter() - t0)


def init_state(m: int, basis: str = "zero", trunc_budget_per_gate: float = DEFAULT_TRUNC_BUDGET) -> MpsState:
    """Product state |0...0> or |+>^m with all virtual bonds of dimension 1."""
    if m < 1:
        raise ValueError("qubit count must be at least 1")
    if basis == "zero":
        vec = np.array([1.0, 0.0], dtype=np.complex128)
    elif basis == "plus":
        vec = np.array([1.0, 1.0], dtype=np.complex128) / np.sqrt(2.0)
    else:
        raise ValueError(f"unknown basis {basis!r}; use 'zero' or 'plus'")
    sites = [vec.reshape(1, 2, 1).copy() for _ in range(m)]
    # every site of a normalized product state is already an isometry
    return MpsState(sites, ortho_center=0, trunc_budget_per_gate=trunc_budget_per_gate)


def _left_isometrize(state: MpsState, start: int, stop: int) -> None:
    # QR sites start..stop-1, pushing the residual factor to the right
    for i in range(start, stop):
        chi_l, p, chi_r = state.sites[i].shape
        q, r = np.linalg.qr(state.sites[i].reshape(chi_l * p, chi_r))
        state.sites[i] = q.reshape(chi_l, p, q.shape[1])
        state.sites[i + 1] = (r @ state.sites[i + 1].reshape(chi_r, -1)).reshape(len(r), p, -1)


def _right_isometrize(state: MpsState, start: int, stop: int) -> None:
    # QR sites start..stop+1 from the right, pushing the residual to the left
    for i in range(start, stop, -1):
        chi_l, p, chi_r = state.sites[i].shape
        q, r = np.linalg.qr(state.sites[i].reshape(chi_l, p * chi_r).conj().T)
        state.sites[i] = q.conj().T.reshape(q.shape[1], p, chi_r)
        prev = state.sites[i - 1].reshape(-1, chi_l) @ r.conj().T
        state.sites[i - 1] = prev.reshape(-1, p, len(r))


def canonicalize(state: MpsState, center: int) -> MpsState:
    """Move the orthogonality center to ``center`` without changing the state."""
    if not 0 <= center < state.m:
        raise ValueError(f"center {center} out of range for {state.m} sites")
    t0 = time.perf_counter()
    current = state.ortho_center
    if current < center:
        _left_isometrize(state, current, center)
    elif current > center:
        _right_isometrize(state, current, center)
    state.ortho_center = center
    state._tick("canonicalize", t0)
    return state


def _apply_one_qubit(state: MpsState, q: int, matrix: np.ndarray) -> MpsState:
    t0 = time.perf_counter()
    # unitaries preserve the isometry flanks, so the center does not move
    state.sites[q] = matrix @ state.sites[q]  # broadcast over the left bond
    state.gate_count_1q += 1
    state._tick("one_qubit", t0)
    return state


def _center_into(state: MpsState, lo: int, hi: int) -> None:
    """Move the orthogonality center onto the nearest site of ``lo..hi``.

    A step that rewrites only sites ``lo..hi`` needs the center somewhere
    inside them (mixed-canonical form).
    """
    c = state.ortho_center
    if not lo <= c <= hi:
        canonicalize(state, min(max(c, lo), hi))


def _apply_two_qubit(state: MpsState, q: int, matrix: np.ndarray) -> MpsState:
    """Apply a 4x4 unitary (basis |q, q+1>) to the adjacent pair (q, q+1).

    The center is first moved into the pair, one (l*2, 2*r) GEMM merges it,
    the gate multiplies its (l, 4, r) view and one truncating SVD splits it;
    the singular values go into site q+1, which leaves the center there.
    """
    _center_into(state, q, q + 1)
    t0 = time.perf_counter()
    a, b = state.sites[q], state.sites[q + 1]
    theta = a.reshape(-1, a.shape[2]) @ b.reshape(b.shape[0], -1)  # (l p0, p1 r)
    theta = matrix @ theta.reshape(a.shape[0], 4, b.shape[2])  # l p0'p1' r
    left, s, right = _truncate(state, theta.reshape(a.shape[0], 2, 2, b.shape[2]), 2)
    state.sites[q] = left
    state.sites[q + 1] = s[:, None, None] * right
    state.ortho_center = q + 1
    state._tick("two_qubit", t0)
    return state


def _truncate(state: MpsState, t: np.ndarray, left_axes: int):
    """One truncating split of ``t`` within the per-gate budget.

    Returns ``(left, s, right)`` with the kept spectrum ``s`` rescaled to the
    norm before truncation; the discarded weight, the kept bond and the
    truncation itself are recorded on the state.
    """
    res = svd_truncated(t, left_axes, state.trunc_budget_per_gate)
    s = res.singular_values
    if res.discarded_weight > 0.0:
        kept = float(s @ s)
        s = s * np.sqrt((kept + res.discarded_weight) / kept)
    state.accumulated_discard += res.discarded_weight
    state.peak_chi = max(state.peak_chi, s.size)
    state.gate_count_2q += 1
    return res.left, s, res.right


def _apply_fan_out(state: MpsState, step: list[Gate]) -> MpsState:
    """Apply RXX gates that share their left qubit i, at any distance.

    Every gate is diagonal in X on qubit i, so their product is the exact
    bond-2 MPO sum_s P_s(i) (x) prod_j u_j^s with P_s = (1 + s X) / 2,
    u_j = exp(-i angles[j] X / 2) for the summed angle of the gates on (i, j),
    and u^- = conj(u) as X is real. The MPO is diagonal in its bond, so on
    sites i..L, L the farthest partner, site i becomes [P+ a, P- a] along its
    right bond, each site between block-diag(u a, conj(u) a) (u = 1 with no
    partner) and site L the two stacked along its left bond, MPO bond index
    outermost. The center is first moved into i..L; a QR sweep from i then
    re-isometrizes the window up to L, and a truncating SVD sweep back splits
    every bond from L down to i + 1, leaving the center at i.
    """
    i = _left_qubit(step[0])
    angles: dict[int, float] = {}
    for gate in step:
        j = max(gate.qubits)
        angles[j] = angles.get(j, 0.0) + gate.angle
    last = max(angles)
    if last >= state.m:
        raise ValueError(f"qubit {last} out of range for {state.m} sites")
    _center_into(state, i, last)
    t0 = time.perf_counter()
    a = state.sites[i]  # X a is a[:, ::-1]: X flips the physical index
    state.sites[i] = 0.5 * np.concatenate([a + a[:, ::-1], a - a[:, ::-1]], axis=2)
    for k in range(i + 1, last + 1):
        a = state.sites[k]
        half = 0.5 * angles.get(k, 0.0)
        ca, sxa = math.cos(half) * a, (1j * math.sin(half)) * a[:, ::-1]
        plus, minus = ca - sxa, ca + sxa  # u a and conj(u) a
        if k == last:
            state.sites[k] = np.concatenate([plus, minus], axis=0)
        else:
            chi_l, _, chi_r = a.shape
            state.sites[k] = np.zeros((2 * chi_l, 2, 2 * chi_r), dtype=np.complex128)
            state.sites[k][:chi_l, :, :chi_r] = plus
            state.sites[k][chi_l:, :, chi_r:] = minus
    _left_isometrize(state, i, last)
    for k in range(last, i, -1):
        left, s, right = _truncate(state, state.sites[k], 1)
        state.sites[k] = right
        prev = state.sites[k - 1].reshape(-1, len(left)) @ (left * s)
        state.sites[k - 1] = prev.reshape(-1, 2, s.size)
    state.ortho_center = i
    state._tick("two_qubit", t0)
    return state


def apply_gate(state: MpsState, gate: Gate) -> MpsState:
    """Apply one circuit gate; two-qubit gates require adjacent qubits.

    A two-qubit gate on (q, q+1) first moves the center into the pair and
    leaves it at q+1; a one-qubit gate does not move it. RXX and SWAP are
    unchanged by exchanging their qubits, so (q+1, q) applies as (q, q+1).
    """
    for q in gate.qubits:
        if not 0 <= q < state.m:
            raise ValueError(f"qubit {q} out of range for {state.m} sites")
    u = gate_matrix(gate)
    if len(gate.qubits) == 1:
        return _apply_one_qubit(state, gate.qubits[0], u)
    a, b = gate.qubits
    if abs(a - b) != 1:
        raise ValueError(
            f"two-qubit gate on ({a}, {b}) is not adjacent; route the circuit or use run_circuit"
        )
    return _apply_two_qubit(state, min(a, b), u)


def _steps(gates: list[Gate]) -> list[list[Gate]]:
    """Gates grouped into application steps, in circuit order.

    Each maximal run of consecutive RXX gates is stable-sorted by left qubit
    (RXX gates commute) and split into one step per left qubit; every other
    gate is a step of its own.
    """
    steps: list[list[Gate]] = []
    for is_rxx, run in itertools.groupby(gates, key=lambda g: g.kind == "RXX"):
        if is_rxx:
            run = sorted(run, key=_left_qubit)
            steps.extend(list(group) for _, group in itertools.groupby(run, key=_left_qubit))
        else:
            steps.extend([gate] for gate in run)
    return steps


def _left_qubit(gate: Gate) -> int:
    return min(gate.qubits)


def run_circuit(state: MpsState, circuit: Circuit, memory_log: list[int] | None = None) -> MpsState:
    """Apply every gate of ``circuit``; RXX gates need not be adjacent.

    Each maximal run of consecutive RXX gates is applied one left qubit ``i``
    at a time, in order of ``i``: a lone RXX on (i, i+1) as an adjacent gate,
    split once and leaving the center at i+1; any other group (partners at
    any distance) as one fan-out, a bond-2 MPO split once per bond it spans
    with no SWAPs, leaving the center at i. Each two-qubit step first moves
    the center to the nearest site of the window it rewrites. When
    ``memory_log`` is given, the state memory in bytes is appended once per
    circuit gate, after the step that applied it.
    """
    if circuit.m != state.m:
        raise ValueError(f"circuit has {circuit.m} qubits, state has {state.m}")
    for step in _steps(circuit.gates):
        gate = step[0]
        if gate.kind == "RXX" and (len(step) > 1 or abs(gate.qubits[0] - gate.qubits[1]) != 1):
            _apply_fan_out(state, step)
        else:
            apply_gate(state, gate)
        if memory_log is not None:
            memory_log.extend([16 * state.entry_count()] * len(step))
    return state


def simulate_circuit(
    circuit: Circuit,
    budget: float = DEFAULT_TRUNC_BUDGET,
    memory_log: list[int] | None = None,
) -> MpsState:
    """Simulate ``circuit`` from |0...0>."""
    state = init_state(circuit.m, "zero", trunc_budget_per_gate=budget)
    return run_circuit(state, circuit, memory_log=memory_log)


def inner_product(bra: MpsState, ket: MpsState) -> complex:
    """<bra, ket>, bra conjugated: two GEMMs per site on a (bra bond, ket bond) environment."""
    if bra.m != ket.m:
        raise ValueError(f"qubit count mismatch: {bra.m} vs {ket.m}")
    env = np.ones((1, 1), dtype=np.complex128)
    for a, b in zip(bra.sites, ket.sites):
        t = (env @ b.reshape(b.shape[0], -1)).reshape(-1, b.shape[2])  # (bra-bond p, ket-bond')
        env = a.reshape(-1, a.shape[2]).conj().T @ t  # (bra-bond', ket-bond')
    return complex(env[0, 0])


def to_statevector(state: MpsState) -> np.ndarray:
    """Amplitude vector of length 2^m, qubit 0 most significant."""
    if state.m > _MAX_DENSE_QUBITS:
        raise ValueError(f"refusing dense conversion beyond {_MAX_DENSE_QUBITS} qubits")
    acc = np.ones((1, 1), dtype=np.complex128)  # (amplitudes so far, bond)
    for site in state.sites:
        acc = (acc @ site.reshape(site.shape[0], -1)).reshape(-1, site.shape[2])
    return acc.reshape(-1)


def serialize_state(state: MpsState) -> bytes:
    """Binary form: header plus per-site shape and little-endian complex entries.

    The header holds the orthogonality center as a site index.
    """
    parts = [
        _MAGIC,
        struct.pack(
            "<IddiIQQ",
            state.m,
            state.trunc_budget_per_gate,
            state.accumulated_discard,
            state.ortho_center,
            state.peak_chi,
            state.gate_count_1q,
            state.gate_count_2q,
        ),
    ]
    for site in state.sites:
        chi_l, _, chi_r = site.shape
        parts.append(struct.pack("<II", chi_l, chi_r))
        parts.append(np.ascontiguousarray(site, dtype="<c16").tobytes())
    return b"".join(parts)


def deserialize_state(buf: bytes) -> MpsState:
    """Parse :func:`serialize_state` output; a malformed buffer raises ValueError."""
    if buf[:4] != _MAGIC:
        raise ValueError("not a serialized MPS state")
    off = 4
    header = struct.Struct("<IddiIQQ")
    sites = []
    try:
        m, budget, discard, center, peak, g1, g2 = header.unpack_from(buf, off)
        off += header.size
        for _ in range(m):
            chi_l, chi_r = struct.unpack_from("<II", buf, off)
            off += 8
            n = chi_l * 2 * chi_r
            entries = np.frombuffer(buf, dtype="<c16", count=n, offset=off)
            off += 16 * n
            sites.append(entries.astype(np.complex128).reshape(chi_l, 2, chi_r))
    except struct.error as exc:
        raise ValueError(f"truncated MPS state: {exc}") from exc
    if off != len(buf):
        raise ValueError(f"{len(buf) - off} trailing bytes after the last site")
    bonds = [1] + [t.shape[2] for t in sites]
    if not sites or bonds[-1] != 1 or any(t.shape[0] != b for t, b in zip(sites, bonds)):
        raise ValueError("site shapes do not form an open chain")
    if peak < max(bonds):
        raise ValueError(f"peak_chi {peak} is below the largest bond {max(bonds)}")
    if not 0 <= center < m:
        raise ValueError(f"center {center} out of range for {m} sites")
    if not (math.isfinite(budget) and budget >= 0 and math.isfinite(discard) and discard >= 0):
        raise ValueError(f"budget {budget} and discard {discard} must be finite and non-negative")
    return MpsState(
        sites=sites,
        trunc_budget_per_gate=budget,
        accumulated_discard=discard,
        ortho_center=center,
        peak_chi=peak,
        gate_count_1q=g1,
        gate_count_2q=g2,
    )
