"""Reference targets, local corrections, and stabilizer checks.

The logical identification used throughout: basis index 0 is logical |0>
for every two-level kind, i.e. atomic |L>, ladder |g>, and photon-number
|0> all play the role of |0>, with |R>, |e>, |1> as logical |1>.  Targets
(GHZ, W, graph states) are built in this convention, and stabilizer
operators ``K_i = X_i prod_{j in N(i)} Z_j`` are evaluated by dense matrix
action.
"""

from __future__ import annotations

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
_PAULI = {op: qstate._Block(m, qstate.UNITARY_ATOL) for op, m in (("X", _X), ("Z", _Z))}
# The kinds a target register may have, each with its subsystems' label prefix.
_TARGET_PREFIX = {KIND_ATOM_LR: "atom", KIND_ATOM_GE: "atom", KIND_FIELD: "field"}


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

    Every op but ``"I"`` acts on one writable copy of the amplitudes; with
    no such op the input state itself is returned.  A layer of ``X`` and
    ``Z`` only is made in that one copy: the copy reads the amplitudes with
    every subsystem flipped an odd number of times reversed
    (``np.flip(...) + 0.0``), and each ``Z`` then negates (``0.0 - slab``)
    the slab it ends up on, ``|1>`` or, when an odd number of ``X`` on its
    subsystem follow it, ``|0>``.  A layer holding a ``("phase", phi)`` op
    goes op by op through :func:`cavnet.qstate._apply_block`, the kernel
    that applies elements: ``X`` and ``Z`` are signed permutations, so they
    move slabs (``Z`` negates the ``|1>`` slab, ``X`` swaps the ``|0>`` and
    ``|1>`` slabs), and the phase is a matrix product.  Both routes give
    the same bits: after the copy no zero is ``-0.0``, so a further
    ``+ 0.0`` changes nothing, and a negation is exact.

    Signed zeros: the copy adds ``0.0`` and every slab move writes ``+0.0``
    for a zero, which is what the ``apply_unitary`` matrix product gives on
    every scheme's outcomes.  On inputs that hold ``-0.0`` that product's
    zero signs depend on the BLAS kernel and the call shape, so there the
    two may differ in the sign of a zero; the values are always equal.
    """

    ops: tuple[tuple[str, object], ...] = ()

    def apply(self, state: PureState) -> PureState:
        register = state.register
        ops = [(label, op) for label, op in self.ops if op != "I"]
        if not ops:
            return state
        if all(op in ("X", "Z") for _, op in ops):
            return _pauli_layer(state, ops)
        flat = state.amplitudes + 0.0
        for label, op in ops:
            if op in ("X", "Z"):
                block = _PAULI[op]
            elif isinstance(op, tuple) and len(op) == 2 and op[0] == "phase":
                phase = np.diag([1.0, np.exp(1j * float(op[1]))])
                block = qstate._Block(phase, qstate.UNITARY_ATOL)
            else:
                raise ParameterError(f"unknown correction op {op!r}")
            qstate._apply_block(flat.reshape(register.dims), [register.position(label)], block)
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


def _pauli_layer(state: PureState, ops: list[tuple[str, str]]) -> PureState:
    """``ops``, each ``X`` or ``Z``, applied in order in one copy (see :class:`LocalCorrection`)."""
    register = state.register
    positions = []
    for label, op in ops:
        pos = register.position(label)
        qstate._check_fit(_PAULI[op], [register.dims[pos]])
        positions.append(pos)
    flipped: dict[int, int] = {}  # X parity per axis over the ops after the one at hand
    negated = []
    for pos, (_, op) in zip(reversed(positions), reversed(ops)):
        if op == "X":
            flipped[pos] = flipped.get(pos, 0) ^ 1
        else:
            negated.append((pos, 1 ^ flipped.get(pos, 0)))
    flat = np.empty(register.total_dim, dtype=complex)
    tensor = flat.reshape(register.dims)
    axes = tuple(pos for pos, odd in flipped.items() if odd)
    np.add(np.flip(state.tensor_view(), axes), 0.0, out=tensor)
    for pos, index in negated:
        slab = qstate._slab(tensor, [pos], index)
        np.subtract(0.0, slab, out=slab)
    flat.setflags(write=False)
    return qstate._adopt(register, flat)  # a signed permutation keeps the checked norm


def _two_level_register(n: int, kind: str, register: Register | None) -> Register:
    if register is not None:
        if len(register) != n:
            raise ShapeError(f"register has {len(register)} subsystems, expected {n}")
        for sub in register.subsystems:
            if sub.dim != 2:
                raise ShapeError("target construction needs two-level subsystems")
        return register
    prefix = _TARGET_PREFIX.get(kind)
    if prefix is None:
        raise ParameterError(f"no two-level register of kind {kind!r}")
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
    kind = next((k for k in _TARGET_PREFIX if zero_label in qstate._TWO_LEVEL_LABELS[k]), None)
    if kind is None:
        raise ParameterError(f"unknown basis label {zero_label!r}")
    register = _two_level_register(n, kind, register)
    lead = register.subsystems[0].index_of(zero_label)
    amps = np.zeros(register.total_dim, dtype=complex)
    # two-level subsystems: all-0 is index 0, all-1 the last index
    amps[lead * (register.total_dim - 1)] = 1.0 / np.sqrt(2.0)
    amps[(1 - lead) * (register.total_dim - 1)] = sign / np.sqrt(2.0)
    return PureState(register, amps)


def w_target(n: int, register: Register | None = None) -> PureState:
    """Uniform single-excitation state over n atoms, |..R..> sum / sqrt(n)."""
    if n < 2:
        raise ParameterError("w_target needs n >= 2")
    register = _two_level_register(n, KIND_ATOM_LR, register)
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
    register = _two_level_register(n, kind, register)
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
