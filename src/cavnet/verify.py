"""Reference targets, local corrections, and stabilizer checks.

The logical identification used throughout: basis index 0 is logical |0>
for every two-level kind, i.e. atomic |L>, ladder |g>, and photon-number
|0> all play the role of |0>, with |R>, |e>, |1> as logical |1>.  Targets
(GHZ, W, graph states) are built in this convention, and stabilizer
operators ``K_i = X_i prod_{j in N(i)} Z_j`` are evaluated by dense matrix
action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import qstate
from .errors import (
    GraphError,
    NotSingleExcitationError,
    ParameterError,
    ShapeError,
)
from .qstate import (
    KIND_ATOM_GE,
    KIND_ATOM_LR,
    KIND_FIELD,
    PureState,
    Register,
    Subsystem,
    apply_unitary,
    overlap,
)

_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_Z = np.diag([1.0, -1.0]).astype(complex)
_KIND_BY_LABEL = {
    "L": KIND_ATOM_LR,
    "R": KIND_ATOM_LR,
    "0": KIND_FIELD,
    "1": KIND_FIELD,
    "g": KIND_ATOM_GE,
    "e": KIND_ATOM_GE,
}


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices ``0 .. vertices-1``."""

    vertices: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, vertices: int, edges=()):
        if vertices < 1:
            raise GraphError("graph needs at least one vertex")
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise GraphError(f"self loop at vertex {u}")
            if not (0 <= u < vertices and 0 <= v < vertices):
                raise GraphError(f"edge ({u},{v}) outside 0..{vertices - 1}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", frozenset(seen))

    def neighbors(self, v: int) -> tuple[int, ...]:
        out = [b if a == v else a for a, b in self.edges if v in (a, b)]
        return tuple(sorted(out))

    @classmethod
    def path(cls, n: int) -> "Graph":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    @classmethod
    def star(cls, n: int) -> "Graph":
        return cls(n, [(0, j) for j in range(1, n)])

    @classmethod
    def ring(cls, n: int) -> "Graph":
        if n < 3:
            raise GraphError("a ring needs at least 3 vertices")
        return cls(n, [(i, (i + 1) % n) for i in range(n)])


@dataclass(frozen=True)
class LocalCorrection:
    """A product of single-qubit fix-ups, one entry per touched subsystem.

    Each op is the label ``"I"``, ``"X"``, ``"Z"``, or ``("phase", phi)``
    for ``diag(1, exp(i*phi))``, applied in order.

    ``X`` and ``Z`` are Pauli-frame updates, not matrix products: on one
    writable copy of the amplitudes, ``Z`` negates the subsystem's ``|1>``
    slab and ``X`` swaps its ``|0>`` and ``|1>`` slabs.  Only
    ``("phase", phi)`` goes through :func:`cavnet.qstate.apply_unitary`.

    Signed zeros: the copy is ``amplitudes + 0.0`` and ``Z`` writes
    ``0.0 - slab``, so the Pauli ops leave every zero as ``+0.0``, which is
    what the ``apply_unitary`` matrix product gives on every scheme's
    outcomes.  On inputs that hold ``-0.0`` that product's zero signs
    depend on the BLAS kernel and the call shape, so there the two routes
    may differ in the sign of a zero; the values are always equal.
    """

    ops: tuple[tuple[str, object], ...] = ()

    @staticmethod
    def _matrix(op) -> np.ndarray:
        if op == "I":
            return np.eye(2, dtype=complex)
        if op == "X":
            return _X
        if op == "Z":
            return _Z
        if isinstance(op, tuple) and len(op) == 2 and op[0] == "phase":
            return np.diag([1.0, np.exp(1j * float(op[1]))])
        raise ParameterError(f"unknown correction op {op!r}")

    def apply(self, state: PureState) -> PureState:
        register = state.register
        flat = None  # writable copy holding the Pauli ops applied since the last freeze
        for label, op in self.ops:
            if op == "I":
                continue
            if op != "X" and op != "Z":
                if flat is not None:
                    flat.setflags(write=False)
                    state, flat = PureState(register, flat), None
                state = apply_unitary(state, [label], self._matrix(op))
                continue
            pos = register.position(label)
            if register.dims[pos] != 2:
                raise ShapeError(
                    f"{op} correction needs a two-level subsystem, {label!r} has "
                    f"dim {register.dims[pos]}"
                )
            if flat is None:
                flat = state.amplitudes + 0.0
            tensor = flat.reshape(register.dims)
            one = tensor[(slice(None),) * pos + (1, ...)]
            if op == "Z":
                np.subtract(0.0, one, out=one)
            else:
                zero = tensor[(slice(None),) * pos + (0, ...)]
                held = zero.copy()
                zero[...] = one
                one[...] = held
        if flat is None:
            return state
        flat.setflags(write=False)
        return PureState(register, flat)

    def describe(self) -> list:
        """JSON-friendly rendering of the correction."""
        out = []
        for label, op in self.ops:
            if op == "I":
                continue
            if isinstance(op, tuple):
                out.append({"subsystem": label, "op": op[0], "phase": float(op[1])})
            else:
                out.append({"subsystem": label, "op": op})
        return out


def _two_level_register(n: int, kind: str, register: Register | None, prefix: str) -> Register:
    if register is not None:
        if len(register) != n:
            raise ShapeError(f"register has {len(register)} subsystems, expected {n}")
        for sub in register.subsystems:
            if sub.dim != 2:
                raise ShapeError("target construction needs two-level subsystems")
        return register
    return Register(Subsystem(f"{prefix}{i + 1}", kind) for i in range(n))


def ghz_target(
    n: int,
    sign: int = 1,
    zero_label: str = "R",
    register: Register | None = None,
) -> PureState:
    """(|z...z> + sign |zbar...zbar>)/sqrt(2) with z = ``zero_label``."""
    if n < 2:
        raise ParameterError("ghz_target needs n >= 2")
    if sign not in (1, -1):
        raise ParameterError(f"sign must be +1 or -1, got {sign}")
    try:
        kind = _KIND_BY_LABEL[zero_label]
    except KeyError:
        raise ParameterError(f"unknown basis label {zero_label!r}") from None
    prefix = {"atom-LR": "atom", "field-01": "field", "atom-ge": "atom"}[kind]
    register = _two_level_register(n, kind, register, prefix)
    lead = register.subsystems[0].index_of(zero_label)
    amps = np.zeros(register.total_dim, dtype=complex)
    all_lead = 0
    all_flip = 0
    for dim in register.dims:
        all_lead = all_lead * dim + lead
        all_flip = all_flip * dim + (1 - lead)
    amps[all_lead] = 1.0 / np.sqrt(2.0)
    amps[all_flip] = sign / np.sqrt(2.0)
    return PureState(register, amps)


def w_target(n: int, register: Register | None = None) -> PureState:
    """Uniform single-excitation state over n atoms, |..R..> sum / sqrt(n)."""
    if n < 2:
        raise ParameterError("w_target needs n >= 2")
    register = _two_level_register(n, KIND_ATOM_LR, register, "atom")
    amps = np.zeros(register.total_dim, dtype=complex)
    for k in range(n):
        amps[1 << (n - 1 - k)] = 1.0 / np.sqrt(n)
    return PureState(register, amps)


def graph_target(
    graph: Graph,
    kind: str = KIND_FIELD,
    register: Register | None = None,
) -> PureState:
    """Graph state: one CZ per edge applied to |+>^n in the logical basis."""
    n = graph.vertices
    prefix = {"atom-LR": "atom", "field-01": "field", "atom-ge": "atom"}[kind]
    register = _two_level_register(n, kind, register, prefix)
    index = np.arange(register.total_dim)
    parity = np.zeros(register.total_dim, dtype=index.dtype)
    for u, v in graph.edges:  # CZ: the sign flips where both ends are logical |1>
        parity ^= (index >> (n - 1 - u)) & (index >> (n - 1 - v)) & 1
    amps = np.full(register.total_dim, 1.0 / np.sqrt(register.total_dim), dtype=complex)
    amps *= 1.0 - 2.0 * parity
    amps.setflags(write=False)
    return PureState(register, amps)


def stabilizer_expectations(state: PureState, graph: Graph) -> np.ndarray:
    """<K_i> for every vertex, with K_i = X_i prod_{j in N(i)} Z_j."""
    register = state.register
    if len(register) != graph.vertices:
        raise ShapeError(
            f"state has {len(register)} subsystems, graph has {graph.vertices} vertices"
        )
    labels = register.labels
    out = np.empty(graph.vertices)
    for i in range(graph.vertices):
        moved = apply_unitary(state, [labels[i]], _X)
        for j in graph.neighbors(i):
            moved = apply_unitary(moved, [labels[j]], _Z)
        out[i] = np.real(overlap(state, moved))
    return out


def canonicalize_single_excitation(
    state: PureState,
) -> tuple[PureState, LocalCorrection]:
    """Rotate away per-qubit phases so every amplitude is real positive.

    The state must be supported on the single-excitation sector (exactly
    one subsystem in its logical |1> in every contributing basis state).
    Returns the phase-corrected state and the diagonal correction applied;
    the corrected state equals ``w_target(n)`` exactly when the input
    amplitudes share a common modulus.
    """
    register = state.register
    n = len(register)
    for sub in register.subsystems:
        if sub.dim != 2:
            raise ShapeError("single-excitation canonicalization needs two-level subsystems")
    amps = state.amplitudes
    phases: list[float] = [0.0] * n
    for index, amp in enumerate(amps):
        if abs(amp) <= 1e-12:
            continue
        bits = [(index >> (n - 1 - k)) & 1 for k in range(n)]
        if sum(bits) != 1:
            raise NotSingleExcitationError(
                f"basis index {index} carries {sum(bits)} excitations"
            )
        phases[bits.index(1)] = -float(np.angle(amp))
    ops = tuple(
        (register.labels[k], ("phase", phases[k]))
        for k in range(n)
        if phases[k] != 0.0
    )
    correction = LocalCorrection(ops)
    return correction.apply(state), correction


def fidelity(state: PureState, target: PureState) -> float:
    """|<target|state>|^2 -- insensitive to global phase by construction."""
    return float(abs(overlap(target, state)) ** 2)


def search_local_correction(
    state: PureState,
    target: PureState,
    atol: float = 1e-9,
) -> LocalCorrection | None:
    """Exhaustive per-qubit {I, X, Z, XZ} search: debugging aid, not a scheme tool.

    Returns the first correction whose application reaches the target with
    fidelity 1 - atol, or None.
    """
    register = state.register
    labels = register.labels
    candidates = ("I", "X", "Z", "XZ")
    mats = {
        "I": np.eye(2, dtype=complex),
        "X": _X,
        "Z": _Z,
        "XZ": _X @ _Z,
    }
    for combo in itertools.product(candidates, repeat=len(labels)):
        trial = state
        for label, op in zip(labels, combo):
            if op != "I":
                trial = apply_unitary(trial, [label], mats[op])
        if fidelity(trial, target) >= 1.0 - atol:
            ops = []
            for label, op in zip(labels, combo):
                if op == "XZ":
                    ops.extend([(label, "Z"), (label, "X")])
                elif op != "I":
                    ops.append((label, op))
            return LocalCorrection(tuple(ops))
    return None
