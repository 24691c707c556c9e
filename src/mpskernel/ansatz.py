"""Data-encoding circuits on a linear qubit chain.

Builds the feature-map circuit for a rescaled data row and inserts SWAP
gates so that every two-qubit gate acts on adjacent qubits. Gates keep the
order they were built in: the RXX gates of one distance run left to right,
so an MPS simulation moves its orthogonality center in one sweep along the
chain per distance and repetition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

GATE_KINDS = ("H", "RZ", "RXX", "SWAP")
_TWO_QUBIT = ("RXX", "SWAP")
_PARAMETRIC = ("RZ", "RXX")


@dataclass(frozen=True)
class FeatureMapConfig:
    """Hyperparameters of the encoding circuit.

    m: qubit / feature count, r: layer repetitions, d: interaction distance
    on the linear chain, gamma: kernel bandwidth coefficient.
    """

    m: int
    r: int
    d: int
    gamma: float

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.r < 1:
            raise ValueError("r must be at least 1")
        if not 1 <= self.d <= self.m - 1:
            raise ValueError(f"d must satisfy 1 <= d <= m-1, got d={self.d} for m={self.m}")
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        arity = 2 if self.kind in _TWO_QUBIT else 1
        if len(self.qubits) != arity:
            raise ValueError(f"{self.kind} acts on exactly {arity} qubit(s)")
        if self.kind in _PARAMETRIC and self.angle is None:
            raise ValueError(f"{self.kind} requires an angle")
        if self.kind not in _PARAMETRIC and self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")
        object.__setattr__(self, "qubits", tuple(int(q) for q in self.qubits))
        if self.angle is not None:
            object.__setattr__(self, "angle", float(self.angle))


@dataclass
class Circuit:
    m: int
    gates: list[Gate] = field(default_factory=list)

    def __post_init__(self):
        for g in self.gates:
            if any(not 0 <= q < self.m for q in g.qubits):
                raise ValueError(f"gate {g} addresses a qubit outside 0..{self.m - 1}")


_H_MATRIX = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=np.complex128) / math.sqrt(2.0)
_SWAP_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=np.complex128
)


def gate_matrix(gate: Gate) -> np.ndarray:
    """Unitary matrix of a gate; two-qubit matrices use the |q0 q1> basis.

    Rotation convention: RZ(theta) = exp(-i theta Z / 2) and
    RXX(theta) = exp(-i theta XX / 2).
    """
    if gate.kind == "H":
        return _H_MATRIX.copy()
    if gate.kind == "SWAP":
        return _SWAP_MATRIX.copy()
    half = 0.5 * gate.angle
    if gate.kind == "RZ":
        return np.diag([np.exp(-1j * half), np.exp(1j * half)]).astype(np.complex128)
    c = math.cos(half)
    s = -1j * math.sin(half)
    return np.array(
        [[c, 0, 0, s], [0, c, s, 0], [0, s, c, 0], [s, 0, 0, c]], dtype=np.complex128
    )


def interaction_graph(m: int, d: int) -> list[tuple[int, int]]:
    """Edges (i, i+k) for 1 <= k <= d on an m-qubit chain, grouped by distance."""
    if not 1 <= d <= m - 1:
        raise ValueError(f"d must satisfy 1 <= d <= m-1, got d={d} for m={m}")
    return [(i, i + k) for k in range(1, d + 1) for i in range(m - k)]


def build_circuit(x, cfg: FeatureMapConfig) -> Circuit:
    """Encoding circuit for a rescaled feature row ``x``.

    Hadamards on every qubit, then ``r`` repetitions of a single-qubit RZ
    layer followed by an RXX gate per interaction edge. Angles are twice the
    underlying Hamiltonian coefficients to match the rotation convention of
    :func:`gate_matrix`. Zero-angle RXX gates are emitted too, so gate
    counts stay predictable.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != cfg.m:
        raise ValueError(f"expected {cfg.m} features, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("features must be finite")
    if np.any(x < 0.0) or np.any(x > 2.0):
        raise ValueError("features must lie in [0, 2]; rescale the data first")

    edges = interaction_graph(cfg.m, cfg.d)
    gates = [Gate("H", (q,)) for q in range(cfg.m)]
    for _ in range(cfg.r):
        for q in range(cfg.m):
            gates.append(Gate("RZ", (q,), 2.0 * cfg.gamma * x[q]))
        for i, j in edges:
            angle = 2.0 * cfg.gamma**2 * (math.pi / 2.0) * (1.0 - x[i]) * (1.0 - x[j])
            gates.append(Gate("RXX", (i, j), angle))
    return Circuit(cfg.m, gates)


def route_linear(c: Circuit) -> Circuit:
    """Make every two-qubit gate act on adjacent qubits via SWAP insertion.

    A gate on (lo, lo+k) is preceded by k-1 SWAPs that bring its qubits
    together and followed by the same SWAPs in reverse, so the layout is
    restored after every gate and single-qubit gates pass through unchanged.
    """
    out: list[Gate] = []
    for g in c.gates:
        if len(g.qubits) == 1:
            out.append(g)
            continue
        lo, hi = sorted(g.qubits)
        swaps = [Gate("SWAP", (p, p + 1)) for p in range(hi - 1, lo, -1)]
        out.extend(swaps)
        out.append(replace(g, qubits=(lo, lo + 1)))
        out.extend(reversed(swaps))
    return Circuit(c.m, out)


def encode_circuit(x, cfg: FeatureMapConfig) -> Circuit:
    """Build and route the encoding circuit for one data row, in build order."""
    return route_linear(build_circuit(x, cfg))


def circuit_to_text(c: Circuit) -> str:
    """Line-oriented text form: ``H q``, ``RZ q angle``, ``RXX q1 q2 angle``, ``SWAP q1 q2``."""
    lines = []
    for g in c.gates:
        parts = [g.kind, *(str(q) for q in g.qubits)]
        if g.angle is not None:
            parts.append(repr(g.angle))
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def circuit_from_text(text: str, m: int | None = None) -> Circuit:
    """Parse :func:`circuit_to_text` output; ``m`` is inferred when omitted."""
    gates = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind not in GATE_KINDS:
            raise ValueError(f"line {ln}: unknown gate kind {kind!r}")
        nq = 2 if kind in _TWO_QUBIT else 1
        has_angle = kind in _PARAMETRIC
        if len(fields) != 1 + nq + (1 if has_angle else 0):
            raise ValueError(f"line {ln}: malformed gate line {line!r}")
        qubits = tuple(int(q) for q in fields[1 : 1 + nq])
        angle = float(fields[1 + nq]) if has_angle else None
        gates.append(Gate(kind, qubits, angle))
    if m is None:
        m = 1 + max((q for g in gates for q in g.qubits), default=0)
    return Circuit(m, gates)
