"""Entanglement-generation schemes: wiring, propagation, and detection.

A :class:`Scheme` bundles a register, an initial state, an ordered element
list, detectors, and the per-outcome local corrections plus target states
the outcomes should reach.  :func:`run` propagates the initial state through
every element, enumerates detector outcome combinations, and reports each
combination's probability, post-selected state, applied correction, and
fidelity against the registered target.

Builders cover:

* ``build_ghz_atoms`` -- one polarized photon through a two-arm
  interferometer whose arms visit alternating halves of an atom chain;
* ``build_w_pow2`` / ``build_w3_probabilistic`` / ``build_w3_deterministic``
  -- single-excitation (W) states via balanced fan-out over one cavity per
  atom and an interference network that erases which-path information;
* ``build_cluster_atoms`` -- a chained Mach-Zehnder where one arm of stage i
  passes cavity i, producing the linear cluster state;
* ``build_ghz_fields`` / ``build_field_cz_pair`` / ``build_field_graph`` --
  flying-atom versions entangling cavity fields, up to arbitrary graph
  states via one dispersive pass per edge;
* ``retry_walk`` -- the repeat-until-success analysis of chaining many
  imperfect flips, as an absorbing random walk.

Serialization: :func:`scheme_to_jsonable` / :func:`reports_to_jsonable`
render the documented JSON shape used by the command line front end.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields as dataclass_fields
from typing import Callable, Iterable, Sequence

import numpy as np

from . import elements as el
from . import qstate, verify
from .errors import (
    ContractViolationError,
    DegenerateCouplingError,
    InvalidConfigurationError,
    InvalidLabelError,
    LossyWiringError,
    ParameterError,
    ShapeError,
)
from .qstate import (
    KIND_ATOM_GE,
    KIND_ATOM_LR,
    KIND_FIELD,
    KIND_PATH,
    KIND_POL,
    PureState,
    Register,
    Subsystem,
)
from .verify import Graph, LocalCorrection

PATH = "path"
POL = "pol"

PROB_SUM_ATOL = 1e-9
FLYER_PURITY_ATOL = 1e-9


@dataclass(frozen=True)
class Scheme:
    """A fully wired experiment ready for :func:`run`.

    ``initial_spec`` declares the starting product state as JSON entries and
    ``initial`` holds its amplitude factors for :func:`qstate.from_factors`.
    The builders declare only the spec and derive ``initial`` from it; a
    hand-wired scheme may set both fields freely.
    """

    name: str
    n: int
    register: Register
    initial: tuple[tuple[tuple[str, ...], np.ndarray], ...]
    initial_spec: tuple[dict, ...]
    elements: tuple[el.Element, ...]
    detectors: tuple[el.Detector, ...]
    corrections: dict[str, LocalCorrection]
    targets: dict[str, PureState | None]
    flying: tuple[str, ...]


@dataclass(frozen=True)
class OutcomeReport:
    """One detector outcome combination of a scheme run."""

    detector_id: str
    probability: float
    post_state: PureState | None
    corrected_state: PureState | None
    correction: LocalCorrection
    fidelity_vs_target: float | None


# --------------------------------------------------------------------------
# element application
#
# Every element kind resolves to an ``_Op``: a unitary ``block`` over the
# joint basis of ``ports`` (interferometer arms) and ``targets`` (subsystem
# labels), most significant first.  ``ports`` is None for a block that
# ignores the path, one port for a block that acts only in that arm, and two
# ports for a block that mixes two arms.  The kernels rewrite only the path
# slices an op names, in place on the buffer :func:`propagate` owns.


def _unitary_block(matrix) -> np.ndarray:
    """Read-only complex copy of ``matrix``, refused unless unitary to 1e-12."""
    block = np.array(matrix, dtype=complex)
    defect = np.abs(block.conj().T @ block - np.eye(len(block))).max()
    if defect > el.ELEMENT_UNITARY_ATOL:
        raise ContractViolationError(
            f"element matrix is not unitary (max defect {defect:.3e})"
        )
    block.setflags(write=False)
    return block


_SWAP = _unitary_block([[0.0, 1.0], [1.0, 0.0]])
_PBS = _unitary_block(el.pbs_unitary())
_PR = _unitary_block(el.pr_unitary())
_CAVITY_ATOM = _unitary_block(el.cavity_atom_block_unitary())
_FIELD_PI = _unitary_block(el.field_pi_block_unitary())
_FIELD_HALF_PI = _unitary_block(el.field_half_pi_block_unitary())
_DISPERSIVE = _unitary_block(el.dispersive_block_unitary())
_RAMSEY = _unitary_block(el.ramsey_unitary())
_EXTERNAL_PI = _unitary_block(el.external_pi_unitary())


@dataclass(frozen=True)
class _Op:
    targets: tuple[str, ...]
    block: np.ndarray
    ports: tuple[int, ...] | None = None


def _arm(port: int | None) -> tuple[int, ...] | None:
    return None if port is None else (port,)


_RESOLVE = {
    el.BS: lambda e: _Op((), _unitary_block(el.bs_unitary(e.reflectivity)), e.ports),
    el.PhaseShifter: lambda e: _Op((), _unitary_block([[np.exp(1j * e.phase)]]), (e.port,)),
    el.Reroute: lambda e: _Op((), _SWAP, (e.src, e.dst)),
    el.PBS: lambda e: _Op((POL,), _PBS, e.ports),
    el.PR: lambda e: _Op((POL,), _PR, (e.port,)),
    el.CavityAtomBlock: lambda e: _Op((e.atom, POL), _CAVITY_ATOM, _arm(e.port)),
    el.FieldPiBlock: lambda e: _Op((e.atom, e.field), _FIELD_PI, _arm(e.port)),
    el.FieldHalfPiBlock: lambda e: _Op((e.atom, e.field), _FIELD_HALF_PI, _arm(e.port)),
    el.DispersiveBlock: lambda e: _Op((e.atom, e.field), _DISPERSIVE, _arm(e.port)),
    el.RamseyZone: lambda e: _Op((e.atom,), _RAMSEY),
    el.ExternalPiPulse: lambda e: _Op((e.atom,), _EXTERNAL_PI),
}


def _sector_mass(tensor: np.ndarray, register: Register, axis_of, assignments: dict) -> float:
    """Probability mass in the product sector fixed by ``assignments``."""
    slicer: list = [slice(None)] * tensor.ndim
    for label, outcome in assignments.items():
        slicer[axis_of(label)] = register.subsystem(label).index_of(outcome)
    return float(np.sum(np.abs(tensor[tuple(slicer)]) ** 2))


def _reroute_guard(tensor: np.ndarray, register: Register, axis_of, item: el.Reroute) -> None:
    if _sector_mass(tensor, register, axis_of, {PATH: item.dst}) > 1e-12:
        raise InvalidConfigurationError(
            f"reroute target port {item.dst} is already occupied"
        )


def _double_excitation_guard(
    tensor: np.ndarray, register: Register, axis_of, item: el.FieldPiBlock
) -> None:
    sector = {item.atom: "e", item.field: "1"}
    if item.port is not None:
        sector[PATH] = item.port
    if _sector_mass(tensor, register, axis_of, sector) > el.DOUBLE_EXCITATION_EPS:
        raise InvalidConfigurationError(
            "resonant pi block reached with population in the doubly "
            f"excited |e,1> sector of ({item.atom}, {item.field})"
        )


_GUARDS = {el.Reroute: _reroute_guard, el.FieldPiBlock: _double_excitation_guard}


def _apply_op(tensor: np.ndarray, axis_of, op: _Op) -> None:
    """Apply ``op`` in place; ``axis_of`` maps a subsystem label to its tensor axis."""
    ports = op.ports or ()
    axes = [axis_of(label) for label in op.targets]
    path = axis_of(PATH) if ports else None
    if len(set(axes + [path])) != len(axes) + 1:
        raise ParameterError(f"target labels must be distinct, got {list(op.targets)}")
    joint = max(len(ports), 1) * int(np.prod([tensor.shape[a] for a in axes]))
    if op.block.shape != (joint, joint):
        raise ShapeError(
            f"block shape {op.block.shape} does not match joint target dim {joint}"
        )
    views = [tensor]
    if ports:
        dpath = tensor.shape[path]
        if len(set(ports)) != len(ports) or not all(0 <= p < dpath for p in ports):
            raise ParameterError(
                f"ports {ports} must differ and exist on a path of dim {dpath}"
            )
        views = [tensor[(slice(None),) * path + (p,)] for p in ports]
        axes = [a - (a > path) for a in axes]
    if len(views) == 1:
        views[0][...] = qstate._block_product(views[0], axes, op.block)
        return
    mixed = qstate._block_product(np.stack(views), [0] + [a + 1 for a in axes], op.block)
    for view, new in zip(views, mixed):
        view[...] = new


def _apply_element(tensor: np.ndarray, register: Register, axis_of, item: el.Element) -> None:
    if isinstance(item, el.Detector):
        return
    resolve = _RESOLVE.get(type(item))
    if resolve is None:
        raise ParameterError(f"unknown element {item!r}")
    guard = _GUARDS.get(type(item))
    if guard is not None:
        guard(tensor, register, axis_of, item)
    _apply_op(tensor, axis_of, resolve(item))


def initial_state(scheme: Scheme) -> PureState:
    return qstate.from_factors(scheme.register, scheme.initial)


def propagate(scheme: Scheme, upto: int | None = None) -> PureState:
    """State after the first ``upto`` elements (all of them by default).

    The elements act in place on one private copy of the initial amplitudes
    whose axes are the register's with ``path`` moved to the front, so each
    path slice an element touches is one contiguous block; a register
    without a path keeps its order.  At the end the buffer is transposed
    back into a fresh register-order array, which is frozen into a
    :class:`PureState` (and its norm checked) once.
    """
    register = scheme.register
    order = sorted(range(len(register)), key=lambda pos: register.labels[pos] != PATH)
    axis = [order.index(pos) for pos in range(len(register))]

    def axis_of(label: str) -> int:
        return axis[register.position(label)]

    tensor = initial_state(scheme).tensor_view().transpose(order).copy()
    items = scheme.elements if upto is None else scheme.elements[:upto]
    for item in items:
        _apply_element(tensor, register, axis_of, item)
    amplitudes = tensor.transpose(axis).flatten()
    amplitudes.setflags(write=False)
    return PureState(register, amplitudes)


def _strip_flyer(state: PureState, label: str) -> PureState:
    """Remove a flying subsystem that must be in a product with the rest.

    The outcome masses are scanned in basis order only until one holds
    more than half, since no later one can then hold more; the subsystem
    is projected out once, onto the largest mass seen.
    """
    sub = state.register.subsystem(label)
    probs: list[float] = []
    for out in sub.basis_labels:
        probs.append(qstate.projection_probability(state, label, out))
        if probs[-1] > 0.5:
            break
    best = int(np.argmax(probs))
    prob, post = qstate.project_out(state, label, sub.basis_labels[best])
    if post is None or prob < 1.0 - FLYER_PURITY_ATOL:
        raise LossyWiringError(
            f"flying subsystem {label!r} is still entangled at detection "
            f"(dominant outcome probability {prob})"
        )
    return post


def run(scheme: Scheme) -> list[OutcomeReport]:
    """Propagate, detect, correct, and score every outcome combination.

    Detectors on the same subsystem are alternative outcomes; detectors on
    different subsystems are measured jointly, so the report list is the
    Cartesian product across subsystems.  Probabilities must account for
    the whole state (sum to 1 within 1e-9).
    """
    state = propagate(scheme)
    if not scheme.detectors:
        return []

    groups: dict[str, list[el.Detector]] = {}
    for det in scheme.detectors:
        groups.setdefault(det.subsystem, []).append(det)

    reports: list[OutcomeReport] = []
    total = 0.0
    for combo in itertools.product(*groups.values()):
        prob = 1.0
        st: PureState | None = state
        for det in combo:
            p, st = qstate.project_out(st, det.subsystem, det.outcome)
            prob *= p
            if st is None:
                prob = 0.0
                break
        if st is not None:
            for label in scheme.flying:
                if label in st.register.labels:
                    st = _strip_flyer(st, label)
        combo_id = ",".join(det.id for det in combo)
        correction = scheme.corrections.get(combo_id, LocalCorrection())
        corrected = correction.apply(st) if st is not None else None
        target = scheme.targets.get(combo_id)
        fid = (
            verify.fidelity(corrected, target)
            if corrected is not None and target is not None
            else None
        )
        reports.append(
            OutcomeReport(combo_id, prob, st, corrected, correction, fid)
        )
        total += prob

    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise LossyWiringError(
            f"detector probabilities sum to {total!r}, scheme loses amplitude"
        )
    return reports


# --------------------------------------------------------------------------
# small construction helpers


def _spec_factor(register: Register, entry: dict) -> tuple[tuple[str, ...], np.ndarray]:
    """Amplitude factor of one ``initial_spec`` entry.

    The entry's state is a basis label of its one subsystem, ``"+"`` for
    (|0> + |1>)/sqrt(2), or ``"pair"`` for (|0,g> + |1,e>)/sqrt(2) over a
    (field, atom) pair.
    """
    labels = tuple(entry["subsystems"])
    state = entry["state"]
    if state == "pair":
        vec = np.zeros(4, dtype=complex)
        vec[0] = vec[3] = 1.0 / np.sqrt(2.0)
    elif state == "+":
        vec = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
    else:
        sub = register.subsystem(labels[0])
        vec = np.zeros(sub.dim, dtype=complex)
        vec[sub.index_of(state)] = 1.0
    return labels, vec


def _scheme(
    name: str,
    n: int,
    register: Register,
    spec: Iterable[dict],
    items: Iterable[el.Element],
    detectors: Iterable[el.Detector],
    corrections: dict[str, LocalCorrection],
    targets: dict[str, PureState | None],
    flying: tuple[str, ...] = (),
) -> Scheme:
    """A :class:`Scheme` whose ``initial`` factors are derived from ``spec``."""
    spec = tuple(spec)
    return Scheme(
        name=name,
        n=n,
        register=register,
        initial=tuple(_spec_factor(register, entry) for entry in spec),
        initial_spec=spec,
        elements=tuple(items),
        detectors=tuple(detectors),
        corrections=corrections,
        targets=targets,
        flying=flying,
    )


def _port_detectors(ports: int) -> tuple[el.Detector, ...]:
    """Detectors ``D1 .. D<ports>`` on path ports ``0 .. ports-1``."""
    return tuple(el.Detector(f"D{j + 1}", PATH, j) for j in range(ports))


def _hadamard_mesh(ports: Sequence[int]) -> list[el.BS]:
    """Balanced splitter mesh realizing the n-port Hadamard transform.

    ``n = len(ports)`` must be a power of two.  One 50/50 splitter per pair
    of ports whose indices differ in exactly one bit, one layer per bit;
    layers commute, and the whole mesh is self-inverse.  Fed from port 0 it
    fans a single excitation uniformly over all ports; run again it
    recombines n orthogonal branches so that every output port sees every
    branch with amplitude 1/sqrt(n) -- the which-path erasure needed ahead
    of the detectors.
    """
    n = len(ports)
    if n < 2 or n & (n - 1):
        raise ParameterError(f"Hadamard mesh needs a power-of-two port count, got {n}")
    mesh = []
    bit = 1
    while bit < n:
        for i in range(n):
            if not i & bit:
                mesh.append(el.BS(0.5, (ports[i], ports[i | bit])))
        bit <<= 1
    return mesh


def _fourier_tritter() -> np.ndarray:
    w = np.exp(2j * np.pi / 3.0)
    return np.array(
        [[1, 1, 1], [1, w, w * w], [1, w * w, w]], dtype=complex
    ) / np.sqrt(3.0)


def _two_mode_elements(w: np.ndarray, ports: tuple[int, int]) -> list[el.Element]:
    """Realize a 2x2 unitary as phase shifters around one beam splitter."""
    p, q = ports
    out: list[el.Element] = []

    def push_phase(port: int, phase: float) -> None:
        phase = float(np.angle(np.exp(1j * phase)))
        if abs(phase) > 1e-12:
            out.append(el.PhaseShifter(port, phase))

    if abs(w[0, 1]) < 1e-12:  # diagonal: pure phases
        push_phase(p, np.angle(w[0, 0]))
        push_phase(q, np.angle(w[1, 1]))
        return out
    if abs(w[0, 0]) < 1e-12:  # antidiagonal: phased swap, as BS-pi-BS
        push_phase(p, np.angle(w[1, 0]))
        push_phase(q, np.angle(w[0, 1]))
        out.append(el.BS(0.5, ports))
        out.append(el.PhaseShifter(q, np.pi))
        out.append(el.BS(0.5, ports))
        return out
    reflectivity = float(abs(w[0, 1]) ** 2)
    c = float(np.angle(w[0, 0]))
    d = float(np.angle(w[0, 1]))
    b = float(np.angle(w[1, 0])) - c
    push_phase(p, c)
    push_phase(q, d)
    out.append(el.BS(reflectivity, ports))
    push_phase(q, b)
    return out


def _unitary_mesh(v: np.ndarray, ports: Sequence[int]) -> list[el.Element]:
    """Decompose an arbitrary port unitary into splitters and phase shifters.

    Left-multiplying Givens rotations reduce ``v`` to a phase diagonal; the
    element list plays the factors back so that applying it to the path
    equals applying ``v``.
    """
    v = np.asarray(v, dtype=complex)
    n = v.shape[0]
    if v.shape != (n, n) or len(ports) != n:
        raise ShapeError("unitary and port list sizes disagree")
    u = v.copy()
    rotations: list[tuple[int, int, np.ndarray]] = []
    for col in range(n - 1):
        for row in range(col + 1, n):
            a, b = u[col, col], u[row, col]
            if abs(b) <= 1e-15:
                continue
            nrm = float(np.hypot(abs(a), abs(b)))
            g = np.array([[a.conjugate(), b.conjugate()], [-b, a]], dtype=complex) / nrm
            u[[col, row], :] = g @ u[[col, row], :]
            rotations.append((col, row, g))

    out: list[el.Element] = []
    for k in range(n):
        phase = float(np.angle(u[k, k]))
        if abs(phase) > 1e-12:
            out.append(el.PhaseShifter(ports[k], phase))
    for i, j, g in reversed(rotations):
        out.extend(_two_mode_elements(g.conj().T, (ports[i], ports[j])))
    return out


def mesh_matrix(items: Iterable[el.Element], dpath: int) -> np.ndarray:
    """Compose BS/PhaseShifter/Reroute elements into one path-space matrix."""
    m = np.eye(dpath, dtype=complex)
    axis_of = {PATH: 0}.__getitem__
    for item in items:
        resolve = _RESOLVE.get(type(item))
        op = resolve(item) if resolve is not None else None
        if op is None or op.targets:
            raise ParameterError(f"{item!r} is not a path-only element")
        _apply_op(m, axis_of, op)
    return m


# --------------------------------------------------------------------------
# atom-entangling schemes (flying polarized photon)


def _photon_scheme(
    name: str,
    pattern: Sequence[str],
    dpath: int,
    items: Iterable[el.Element],
    detectors: Iterable[el.Detector],
    corrections: dict[str, LocalCorrection],
    targets: dict[str, PureState | None],
) -> Scheme:
    """Atoms ``atom1 ..`` prepared in ``pattern``, one L-polarized photon in port 0.

    The register is the L/R atoms, a path of ``dpath`` ports and the
    photon's polarization, which is the flying subsystem.
    """
    n = len(pattern)
    subs = [Subsystem(f"atom{i + 1}", KIND_ATOM_LR) for i in range(n)]
    subs += [Subsystem(PATH, KIND_PATH, dpath), Subsystem(POL, KIND_POL)]
    spec = [{"subsystems": [f"atom{i + 1}"], "state": s} for i, s in enumerate(pattern)]
    spec += [{"subsystems": [PATH], "state": "0"}, {"subsystems": [POL], "state": "L"}]
    return _scheme(
        name, n, Register(subs), spec, items, detectors, corrections, targets, (POL,)
    )


def _ghz_wiring(
    n: int, prefix: str, labels: tuple[str, str], block: Callable[[str, int], el.Element]
):
    """Pattern, elements, corrections and targets shared by the two GHZ builders.

    For ``labels = (a, b)`` the qubits ``prefix1 ..`` start in the pairwise
    pattern ``a a b b a a ...``.  A balanced splitter opens two arms, arm 0
    passes the odd-numbered qubits and arm 1 the even-numbered ones
    (``block(label, port)`` is one pass), and a second splitter recombines
    them.  Arm 1 flips only the even-numbered qubits, so the recorded X layer
    acts wherever that branch holds ``a``; it leaves the GHZ state over ``b``
    with sign + at D1 and - at D2.
    """
    a, b = labels
    pattern = [a if i % 4 in (0, 1) else b for i in range(n)]
    arms = [*range(0, n, 2), *range(1, n, 2)]  # qubit i + 1 rides arm i % 2
    items = [el.BS(0.5, (0, 1))]
    items += [block(f"{prefix}{i + 1}", i % 2) for i in arms]
    items.append(el.BS(0.5, (0, 1)))
    flipped = {a: b, b: a}
    branch1 = [s if i % 2 == 0 else flipped[s] for i, s in enumerate(pattern)]
    x_layer = LocalCorrection(
        tuple((f"{prefix}{i + 1}", "X") for i, s in enumerate(branch1) if s == a)
    )
    corrections = {"D1": x_layer, "D2": x_layer}
    targets = {"D1": verify.ghz_target(n, 1, b), "D2": verify.ghz_target(n, -1, b)}
    return pattern, items, corrections, targets


def _hadamard_z_layers(ports: int, atoms: int) -> dict[str, LocalCorrection]:
    """Z layer per detector ``D<j+1>``: Z on each atom k with Hadamard sign -1."""
    return {
        f"D{j + 1}": LocalCorrection(
            tuple(
                (f"atom{k + 1}", "Z") for k in range(atoms) if bin(j & k).count("1") % 2
            )
        )
        for j in range(ports)
    }


def build_ghz_atoms(n: int) -> Scheme:
    """Photon-mediated GHZ state over an even number of L/R atoms.

    The atoms are prepared in the pairwise pattern L L R R L L ...; a
    single L-polarized photon is split over two arms, the first arm visits
    the odd-numbered atoms and the second the even-numbered ones, and the
    arms recombine on a final balanced splitter.  Both detector outcomes
    occur with probability 1/2 and hold a GHZ state up to a recorded X
    layer (the relative sign is + at D1 and - at D2).
    """
    if n < 2 or n % 2:
        raise ParameterError(f"this scheme needs an even atom count >= 2, got {n}")
    pattern, items, corrections, targets = _ghz_wiring(
        n, "atom", ("L", "R"), el.CavityAtomBlock
    )
    return _photon_scheme(
        "ghz-atoms", pattern, 2, items, _port_detectors(2), corrections, targets
    )


def build_w_pow2(n: int) -> Scheme:
    """W state over ``n = 2**k`` atoms from one photon and one cavity per atom.

    A Hadamard splitter mesh fans the photon over n paths, each path flips
    its own atom, and the same mesh recombines the paths.  Every detector
    fires with probability 1/n; the recorded correction is the Z layer
    matching that output port's sign pattern.
    """
    if n < 2 or n & (n - 1):
        raise ParameterError(f"this scheme needs a power-of-two atom count, got {n}")
    mesh = _hadamard_mesh(range(n))
    cavities = [el.CavityAtomBlock(f"atom{k + 1}", port=k) for k in range(n)]
    items = [*mesh, *cavities, *mesh]
    corrections = _hadamard_z_layers(n, n)
    targets = dict.fromkeys(corrections, verify.w_target(n))
    return _photon_scheme(
        "w", ["L"] * n, n, items, _port_detectors(n), corrections, targets
    )


def build_w3_probabilistic() -> Scheme:
    """Three-atom W by sacrificing one port of the four-path scheme.

    The fourth cavity is replaced by a dedicated detector D5: the photon
    amplitude on that path leaves the interferometer before recombination.
    D5 fires with probability 1/4 (failure); each of D1..D4 fires with
    probability 3/16 and yields the three-atom W after its Z layer.
    """
    mesh = _hadamard_mesh(range(4))
    cavities = [el.CavityAtomBlock(f"atom{k + 1}", port=k) for k in range(3)]
    items = [*mesh, *cavities, el.Reroute(3, 4), *mesh]
    corrections = _hadamard_z_layers(4, 3)
    targets = {"D5": None, **dict.fromkeys(corrections, verify.w_target(3))}
    return _photon_scheme(
        "w3-prob", ["L"] * 3, 5, items, _port_detectors(5), corrections, targets
    )


def build_w3_deterministic() -> Scheme:
    """Deterministic three-atom W: uneven fan-out plus a balanced tritter.

    Fan-out is a reflectivity-1/3 splitter followed by a 50/50; the three
    return paths recombine through a three-port transform all of whose
    entries have modulus 1/sqrt(3) (a Fourier tritter, realized here as
    splitters plus fixed phase shifters).  Every detector fires with
    probability 1/3 and reaches the W state after a per-atom phase layer.
    """
    tritter = _fourier_tritter()
    items = [el.BS(1.0 / 3.0, (0, 1)), el.BS(0.5, (0, 2))]
    items += [el.CavityAtomBlock(f"atom{k + 1}", port=k) for k in range(3)]
    items += _unitary_mesh(tritter, (0, 1, 2))
    corrections = {
        f"D{j + 1}": LocalCorrection(
            tuple(
                (f"atom{k + 1}", ("phase", float(-np.angle(tritter[j, k]))))
                for k in range(3)
                if abs(np.angle(tritter[j, k])) > 1e-12
            )
        )
        for j in range(3)
    }
    targets = dict.fromkeys(corrections, verify.w_target(3))
    return _photon_scheme(
        "w3-det", ["L"] * 3, 3, items, _port_detectors(3), corrections, targets
    )


def build_cluster_atoms(n: int) -> Scheme:
    """Linear cluster state from a chained two-arm interferometer.

    Stage i sends one arm through cavity i (atom prepared |L>) followed by
    a polarization rotator restoring the input polarization, then mixes the
    arms on the next balanced splitter.  After stage n the outputs land on
    D1/D2 with probability 1/2 each; D1 holds the n-qubit linear cluster
    state directly and D2 needs only Z on the last atom.

    The two-stage walkthrough: after the first splitter the arm amplitudes
    are (1,1)/sqrt(2); stage 1 flips atom 1 only in the cavity arm, and the
    next splitter maps the pair (|L>, |R>) of atom-1 branches to
    (|L>+|R>, |L>-|R>)/sqrt(2) on the two arms.  Each further stage repeats
    this with the next atom, which is exactly the recursion building
    CZ(i,i+1) products on |+>^n: the D1 amplitudes for n=2 are
    (1, 1, 1, -1)/2 over (LL, LR, RL, RR).
    """
    if n < 1:
        raise ParameterError(f"cluster chain needs n >= 1, got {n}")
    items: list[el.Element] = [el.BS(0.5, (0, 1))]
    for i in range(n):
        items.append(el.CavityAtomBlock(f"atom{i + 1}", port=1))
        items.append(el.PR(port=1))
        items.append(el.BS(0.5, (0, 1)))
    corrections = {"D1": LocalCorrection(), "D2": LocalCorrection(((f"atom{n}", "Z"),))}
    targets = dict.fromkeys(corrections, verify.graph_target(Graph.path(n), KIND_ATOM_LR))
    return _photon_scheme(
        "cluster", ["L"] * n, 2, items, _port_detectors(2), corrections, targets
    )


# --------------------------------------------------------------------------
# field-entangling schemes (flying ladder atom)


def build_ghz_fields(n: int) -> Scheme:
    """GHZ state over cavity photon-number qubits, mediated by one atom.

    Mirror image of :func:`build_ghz_atoms`: the cavities are prepared in
    the pairwise pattern |1 1 0 0 1 1 ...>, a ground-state atom is split
    over two momentum paths, and each arm exchanges excitation with its
    cavities through resonant pi passes.  The alternating 1/0 pattern seen
    along each arm keeps the atom out of the doubly excited sector.
    """
    if n < 2 or n % 2:
        raise ParameterError(f"this scheme needs an even cavity count >= 2, got {n}")
    pattern, items, corrections, targets = _ghz_wiring(
        n, "field", ("1", "0"), lambda field, port: el.FieldPiBlock("atom", field, port)
    )
    subs = [Subsystem(f"field{i + 1}", KIND_FIELD) for i in range(n)]
    subs += [Subsystem(PATH, KIND_PATH, 2), Subsystem("atom", KIND_ATOM_GE)]
    spec = [{"subsystems": [f"field{i + 1}"], "state": s} for i, s in enumerate(pattern)]
    spec += [{"subsystems": [PATH], "state": "0"}, {"subsystems": ["atom"], "state": "g"}]
    return _scheme(
        "ghz-fields", n, Register(subs), spec, items, _port_detectors(2),
        corrections, targets, ("atom",),
    )


def build_field_cz_pair() -> Scheme:
    """Entangling gate between two cavity fields carried by one atom.

    Cavity 1 holds one photon, cavity 2 the superposition (|0>+|1>)/sqrt(2).
    A half-pi pass entangles the atom with cavity 1, an external pi pulse
    swaps g and e, a dispersive pass imprints the conditional phase on
    cavity 2, and a Ramsey zone rotates the atom before it is measured.
    Both atom outcomes occur with probability 1/2 and leave the fields in
    the two-qubit graph state after the recorded correction (Z on cavity 1
    for outcome e).
    """
    register = Register(
        (
            Subsystem("field1", KIND_FIELD),
            Subsystem("field2", KIND_FIELD),
            Subsystem("atom", KIND_ATOM_GE),
        )
    )
    spec = (
        {"subsystems": ["field1"], "state": "1"},
        {"subsystems": ["field2"], "state": "+"},
        {"subsystems": ["atom"], "state": "g"},
    )
    items = (
        el.FieldHalfPiBlock("atom", "field1"),
        el.ExternalPiPulse("atom"),
        el.DispersiveBlock("atom", "field2"),
        el.RamseyZone("atom"),
    )
    detectors = (el.Detector("Dg", "atom", "g"), el.Detector("De", "atom", "e"))
    corrections = {"Dg": LocalCorrection(), "De": LocalCorrection((("field1", "Z"),))}
    targets = dict.fromkeys(corrections, verify.graph_target(Graph.path(2), KIND_FIELD))
    return _scheme("field-cz", 2, register, spec, items, detectors, corrections, targets)


def _graph_for_kind(kind: str, n: int) -> Graph:
    if kind == "star":
        if n < 2:
            raise ParameterError("star graph needs n >= 2")
        return Graph.star(n)
    if kind == "linear":
        if n < 2:
            raise ParameterError("linear graph needs n >= 2")
        return Graph.path(n)
    if kind == "ring":
        return Graph.ring(n)
    raise ParameterError(f"unknown graph kind {kind!r}")


def build_field_graph(
    kind: str | None = None,
    n: int | None = None,
    graph: Graph | None = None,
) -> Scheme:
    """Graph state over cavity fields, one dispersive pass per edge.

    Named kinds follow the sequential recipes: ``star`` keeps cavity 1 in
    (|0>+|1>)/sqrt(2) and sends atom j (entangled with its own cavity j)
    through cavity 1; ``linear`` sends atom j through cavity j-1; ``ring``
    closes the chain by also sending atom 1 through cavity n.  An explicit
    ``graph`` uses one cavity-atom pair per vertex and routes the
    larger-vertex atom of every edge through the smaller vertex's cavity.
    Measuring the atoms leaves the fields in the graph state after the
    recorded per-field Z corrections (Z on field j when atom j reads e);
    every one of the ``2**(measured atoms)`` outcome combinations occurs
    with the same probability.
    """
    if graph is not None:
        if kind is not None or n is not None:
            raise ParameterError("pass either kind/n or an explicit graph, not both")
        target_graph = graph
        n = graph.vertices
        scheme_name = "graph-custom"
        paired = list(range(n))  # every vertex carries an atom
        passes = [
            (max(u, v), min(u, v)) for u, v in sorted(target_graph.edges)
        ]
    else:
        if kind is None or n is None:
            raise ParameterError("need kind and n when no explicit graph is given")
        target_graph = _graph_for_kind(kind, n)
        scheme_name = f"graph-{kind}"
        if kind == "star":
            paired = list(range(1, n))
            passes = [(j, 0) for j in range(1, n)]
        elif kind == "linear":
            paired = list(range(1, n))
            passes = [(j, j - 1) for j in range(1, n)]
        else:  # ring
            paired = list(range(n))
            passes = [(j, j - 1) for j in range(1, n)] + [(0, n - 1)]

    subs: list[Subsystem] = []
    spec: list[dict] = []
    paired_set = set(paired)
    for v in range(n):
        field_label = f"field{v + 1}"
        subs.append(Subsystem(field_label, KIND_FIELD))
        if v in paired_set:
            atom_label = f"atom{v + 1}"
            subs.append(Subsystem(atom_label, KIND_ATOM_GE))
            spec.append({"subsystems": [field_label, atom_label], "state": "pair"})
        else:
            spec.append({"subsystems": [field_label], "state": "+"})

    items: list[el.Element] = [
        el.DispersiveBlock(f"atom{a + 1}", f"field{f + 1}") for a, f in passes
    ]
    items += [el.RamseyZone(f"atom{v + 1}") for v in paired]
    detectors = [
        el.Detector(f"D{v + 1}{out}", f"atom{v + 1}", out) for v in paired for out in "ge"
    ]

    corrections: dict[str, LocalCorrection] = {}
    for combo in itertools.product("ge", repeat=len(paired)):
        combo_id = ",".join(f"D{v + 1}{out}" for v, out in zip(paired, combo))
        corrections[combo_id] = LocalCorrection(
            tuple((f"field{v + 1}", "Z") for v, out in zip(paired, combo) if out == "e")
        )
    targets = dict.fromkeys(corrections, verify.graph_target(target_graph, KIND_FIELD))
    return _scheme(
        scheme_name, n, Register(subs), spec, items, detectors, corrections, targets
    )


# --------------------------------------------------------------------------
# repeat-until-success walk


@dataclass(frozen=True)
class RetryWalkParams:
    """Absorbing walk over a chain of imperfect flip blocks.

    Positions 0..n+1: 0 is the source side (always steps forward), 1..n are
    the cavities (forward with probability ``p_flip``, otherwise backward),
    n+1 is the detector and absorbs.  The walk starts at cavity 1 and every
    transition, including the bounce off position 0, counts as one step.
    """

    p_flip: float
    n_cavities: int
    max_steps: int = 10_000

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_flip <= 1.0:
            raise ParameterError(f"p_flip must lie in [0, 1], got {self.p_flip}")
        if self.p_flip == 0.0:
            raise DegenerateCouplingError("p_flip = 0 never advances the walk")
        if self.n_cavities < 1:
            raise ParameterError(f"need at least one cavity, got {self.n_cavities}")
        if self.max_steps < 1:
            raise ParameterError(f"max_steps must be positive, got {self.max_steps}")


@dataclass(frozen=True)
class RetryWalkResult:
    success_prob: float
    expected_steps: float
    conditional_fidelity: float


def _walk_matrix(params: RetryWalkParams) -> np.ndarray:
    n, p = params.n_cavities, params.p_flip
    m = np.zeros((n + 2, n + 2))
    m[0, 1] = 1.0
    for j in range(1, n + 1):
        m[j, j + 1] = p
        m[j, j - 1] = 1.0 - p
    m[n + 1, n + 1] = 1.0
    return m


def retry_walk(params: RetryWalkParams) -> RetryWalkResult:
    """Success probability within ``max_steps`` and the mean step count.

    ``success_prob`` iterates the chain's distribution; ``expected_steps``
    solves the linear hitting-time system and so refers to the unlimited
    walk (finite for every ``p_flip > 0``).  A detected photon has made
    exactly the intended sequence of net forward flips, so the conditional
    fidelity of the delivered state is 1 identically: wrong turns cost
    time, never quality.
    """
    m = _walk_matrix(params)
    n = params.n_cavities
    dist = np.zeros(n + 2)
    dist[1] = 1.0
    for _ in range(params.max_steps):
        dist = dist @ m
        if dist[n + 1] >= 1.0 - 1e-15:
            break
    success = float(dist[n + 1])

    transient = m[: n + 1, : n + 1]
    times = np.linalg.solve(np.eye(n + 1) - transient, np.ones(n + 1))
    return RetryWalkResult(
        success_prob=success,
        expected_steps=float(times[1]),
        conditional_fidelity=1.0,
    )


def retry_walk_mc(
    params: RetryWalkParams, trajectories: int, seed: int
) -> float:
    """Monte-Carlo estimate of ``success_prob`` over independent walkers."""
    if trajectories < 1:
        raise ParameterError("need at least one trajectory")
    rng = np.random.default_rng(seed)
    n, p = params.n_cavities, params.p_flip
    # The live walkers are the prefix pos[:live], kept in their original order,
    # so the k-th uniform draw of a step always goes to the same walker.
    pos = np.ones(trajectories, dtype=np.int64)
    draws = np.empty(trajectories)
    step = np.empty(trajectories, dtype=np.int8)
    keep = np.empty(trajectories, dtype=bool)
    live = trajectories
    for _ in range(params.max_steps):
        if live == 0:
            break
        walkers, s, k = pos[:live], step[:live], keep[:live]
        np.less(rng.random(out=draws[:live]), p, out=s)
        s *= 2
        s -= 1  # +1 forward, -1 back
        walkers += s
        np.abs(walkers, out=walkers)  # a walker at 0 steps to 1 either way
        np.less_equal(walkers, n, out=k)
        survivors = int(np.count_nonzero(k))
        if survivors < live:
            pos[:survivors] = walkers[k]
            live = survivors
    return (trajectories - live) / trajectories


# --------------------------------------------------------------------------
# serialization


def _element_to_jsonable(item: el.Element) -> dict:
    out: dict = {"type": type(item).__name__}
    for f in dataclass_fields(item):
        value = getattr(item, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def scheme_to_jsonable(scheme: Scheme) -> dict:
    return {
        "name": scheme.name,
        "n": scheme.n,
        "elements": [_element_to_jsonable(item) for item in scheme.elements],
        "initial": [dict(entry) for entry in scheme.initial_spec],
    }


def reports_to_jsonable(reports: Sequence[OutcomeReport]) -> list[dict]:
    """Outcome rows; ``corrected_state`` is the read-only amplitude array or None.

    :func:`cavnet.cli.dump_json` renders the array as a list of ``[re, im]``
    pairs; :func:`run_report` converts it to that list for ``json``.
    """
    out = []
    for rep in reports:
        state = rep.corrected_state
        out.append(
            {
                "detector": rep.detector_id,
                "probability": rep.probability,
                "fidelity": rep.fidelity_vs_target,
                "correction": rep.correction.describe(),
                "corrected_state": None if state is None else state.amplitudes,
            }
        )
    return out


def run_report(scheme: Scheme) -> dict:
    """Scheme plus outcomes in the documented JSON shape, as plain Python values."""
    outcomes = reports_to_jsonable(run(scheme))
    for row in outcomes:
        amps = row["corrected_state"]
        if amps is not None:
            row["corrected_state"] = np.column_stack((amps.real, amps.imag)).tolist()
    return {"scheme": scheme_to_jsonable(scheme), "outcomes": outcomes}
