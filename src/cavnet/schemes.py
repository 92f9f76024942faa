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
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import elements as el
from . import qstate, verify
from .errors import (
    ContractViolationError,
    DegenerateCouplingError,
    InvalidConfigurationError,
    LossyWiringError,
    ParameterError,
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
# Most walkers retry_walk_mc accepts, 10x the README's 1M-walker example: at
# 18 bytes of buffers per walker this caps one call near 180 MB.
MAX_MC_TRAJECTORIES = 10_000_000
# Most cavities RetryWalkParams accepts; retry_walk_mc keeps positions in
# int16, and one step of retry_walk touches each of the n + 2 positions.
MAX_WALK_CAVITIES = 1_000
# Most steps RetryWalkParams accepts, 10x the default budget: both walks
# loop over steps in Python, and one step of retry_walk at MAX_WALK_CAVITIES
# takes about 3 us (2-vCPU Xeon), so this caps that loop near 0.3 s.
MAX_WALK_STEPS = 100_000
# Most walkers x max_steps retry_walk_mc accepts, 1M walkers for the default 10,000
# steps: at ~2.3 ns per walker step (2-vCPU Xeon) this caps one call near 25 s.
MAX_MC_WALKER_STEPS = 10**10


@dataclass(frozen=True)
class Scheme:
    """A fully wired experiment ready for :func:`run`.

    ``initial`` declares the starting product state once: ``(labels, state)``
    factors tiling ``register`` in order, each ``state`` either a name (see
    :func:`_factor`) or the joint amplitude vector of ``labels``.  Builders
    name their states through :func:`_scheme`; a hand-wired scheme, or one
    restarted from a state reached, gives vectors.
    """

    name: str
    n: int
    register: Register
    initial: tuple[tuple[tuple[str, ...], str | np.ndarray], ...]
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
# Every element kind resolves to an ``_Op``: a ``block`` over the joint basis
# of ``ports`` (interferometer arms) and ``targets`` (subsystem labels), most
# significant first, that ``qstate._Block`` has checked unitary to ``_ATOL``
# (1e-12).  ``ports`` is None for a block that ignores the path, one port for
# a block that acts only in that arm, and two ports for a block that mixes
# two arms.  :func:`qstate._apply_block` rewrites
# only the path slices an op names, in place on the buffer :func:`_propagated`
# owns; every fixed block but the Ramsey zone and the half-pi block is a
# signed permutation, so it moves slabs.  :func:`_plan` resolves and checks
# every element, and the sector of its ``_GUARDS`` entry, before any acts,
# and bounds the slabs and columns each may find nonzero; :func:`run` checks
# the outcome declarations before it propagates.
#
# Why the bounds keep the values, and the bytes of every builder: every zero
# of the initial product is +0.0, whatever the factors' signs
# (:func:`qstate._factor_product`); a slab move writes ``src + 0.0`` or
# ``0.0 - src``; and a full chunk of +0.0 columns multiplies to +0.0.  So
# what the plan skips holds +0.0, as it would if every element acted on the
# whole buffer, and a cut guard sums the same nonzero amplitudes in another
# order.  On a hand-wired scheme a left-out element keeps a zero's +0.0 where
# running it could write -0.0 (OpenBLAS, a splitter on 2 or 3 columns).


_ATOL = el.ELEMENT_UNITARY_ATOL


@dataclass(frozen=True)
class _Op:
    targets: tuple[str, ...]
    block: qstate._Block
    ports: tuple[int, ...] | None = None


def _arm(port: int | None) -> tuple[int, ...] | None:
    return None if port is None else (port,)


# kind -> (targets, matrix, ports) of the element's op
_RESOLVE = {
    el.BS: lambda e: ((), el.bs_unitary(e.reflectivity), e.ports),
    el.PhaseShifter: lambda e: ((), [[np.exp(1j * e.phase)]], (e.port,)),
    el.Reroute: lambda e: ((), [[0.0, 1.0], [1.0, 0.0]], (e.src, e.dst)),
    el.PBS: lambda e: ((POL,), el.pbs_unitary(), e.ports),
    el.PR: lambda e: ((POL,), el.pr_unitary(), (e.port,)),
    el.CavityAtomBlock: lambda e: ((e.atom, POL), el.cavity_atom_block_unitary(), _arm(e.port)),
    el.FieldPiBlock: lambda e: ((e.atom, e.field), el.field_pi_block_unitary(), _arm(e.port)),
    el.FieldHalfPiBlock: lambda e: (
        (e.atom, e.field), el.field_half_pi_block_unitary(), _arm(e.port)
    ),
    el.DispersiveBlock: lambda e: ((e.atom, e.field), el.dispersive_block_unitary(), _arm(e.port)),
    el.RamseyZone: lambda e: ((e.atom,), el.ramsey_unitary(), None),
    el.ExternalPiPulse: lambda e: ((e.atom,), el.external_pi_unitary(), None),
}


def _sector_index(register: Register, axis_of, assignments: dict) -> tuple:
    """Index of the sector fixed by ``assignments``; ``axis_of`` maps a label to its axis."""
    slicer: list = [slice(None)] * len(register)
    for label, outcome in assignments.items():
        slicer[axis_of(label)] = register.subsystem(label).index_of(outcome)
    return tuple(slicer)


# kind -> (sector, limit, message): refused when the sector's mass exceeds the limit
_GUARDS = {
    el.Reroute: lambda e: (
        {PATH: e.dst}, 1e-12, f"reroute target port {e.dst} is already occupied"
    ),
    el.FieldPiBlock: lambda e: (
        {e.atom: "e", e.field: "1", **({} if e.port is None else {PATH: e.port})},
        el.DOUBLE_EXCITATION_EPS,
        "resonant pi block reached with population in the doubly "
        f"excited |e,1> sector of ({e.atom}, {e.field})",
    ),
}


def _resolve(register: Register, axis_of, item, blocks: dict) -> tuple[_Op, tuple | None]:
    """``item``'s op, and its guard as ``(sector index, limit, message)`` or None.

    The op's block is made once per distinct matrix, keyed on its bytes in ``blocks``.
    """
    resolve = _RESOLVE.get(type(item))
    if resolve is None:
        raise ParameterError(f"unknown element {item!r}")
    targets, matrix, ports = resolve(item)
    key = np.asarray(matrix, dtype=complex).tobytes()
    if key not in blocks:
        blocks[key] = qstate._Block(matrix, _ATOL)
    op = _Op(targets, blocks[key], ports)
    labels = ((PATH,) if op.ports else ()) + op.targets
    positions = [register.position(label) for label in labels]
    if len(set(positions)) != len(positions):
        raise ParameterError(f"target labels must be distinct, got {list(op.targets)}")
    dims = [register.dims[pos] for pos in positions]
    if op.ports:
        if len(set(op.ports)) != len(op.ports) or not all(0 <= p < dims[0] for p in op.ports):
            raise ParameterError(
                f"ports {op.ports} must differ and exist on a path of dim {dims[0]}"
            )
        dims[0] = len(op.ports)
    qstate._check_fit(op.block, dims)
    guard = _GUARDS.get(type(item))
    if guard is None:
        return op, None
    sector, limit, message = guard(item)
    return op, (_sector_index(register, axis_of, sector), limit, message)


def _where(scheme: Scheme, index: int, item) -> str:
    """Prefix of an error raised for element ``index`` of ``scheme``."""
    return f"scheme {scheme.name!r}, element {index} ({type(item).__name__}): "


def _plan(
    scheme: Scheme, items: Sequence[el.Element], axis_of
) -> tuple[tuple | None, list[tuple]]:
    """``(cut, steps)``: where the initial state may be nonzero, and how each element acts.

    ``steps`` holds ``(index, element, op, guard, occupied)`` for each of
    ``items`` that can change the state.  Each is resolved and checked
    first, a refusal keeping its type and text after the prefix of
    :func:`_where`.  An element whose ports all hold zeros, as its guard's
    sector then does, is left out.

    ``occupied`` maps each path port that may hold amplitude just before
    the element acts (the one port 0 of a register without a path) to its
    boxes, each a ``(start, stop)`` per axis of ``axis_of``, the path's
    whole; outside them the port holds only +0.0.  At first the ports on
    which a factor over the path alone is nonzero (every port if the path
    shares a factor) have one box: the span of the nonzero entries of each
    factor over one subsystem, the whole axis for a factor over several.
    An element widens the boxes of its port, or of every occupied port if
    it names none, to the whole axis of each target.  A two-port element
    gives both ports the union of their boxes, one that targets the path
    every port the union of all; a port with more boxes than the path has
    ports gets their hull.  A guard's sector is cut to the hull of the
    boxes of its element's ports.

    ``cut`` is the first box, with the span of the path factor, in
    register order for :func:`qstate._factor_product`, or None if it
    spans every axis.  Why the bytes stay: see the comment above ``_ATOL``.
    """
    register = scheme.register
    factors = _factors(scheme)
    dims = [sub.dim for sub in sorted(register.subsystems, key=lambda sub: axis_of(sub.label))]
    whole = [(0, dim) for dim in dims]
    box = whole.copy()
    width = register.subsystem(PATH).dim if PATH in register.labels else 1
    ports: Iterable[int] = [0]
    for labels, vec in factors:
        if len(labels) == 1:
            box[axis_of(labels[0])] = _span(vec, dims[axis_of(labels[0])])
        if PATH in labels:
            ports = np.flatnonzero(vec).tolist() if len(labels) == 1 else range(width)
    cut = None
    if box != whole:
        cut = tuple(slice(*box[axis_of(label)]) for label in register.labels)
    if PATH in register.labels:
        box[axis_of(PATH)] = whole[axis_of(PATH)]

    def settled(boxes: Iterable[tuple], axes: set[int]) -> tuple[tuple, ...]:
        if axes:
            boxes = (tuple(whole[a] if a in axes else s for a, s in enumerate(b)) for b in boxes)
        boxes = tuple(dict.fromkeys(boxes))
        return boxes if len(boxes) <= width else (_hull(boxes),)

    occupied = dict.fromkeys(ports, (tuple(box),))
    steps = []
    blocks: dict = {}  # one block per distinct matrix
    for index, item in enumerate(items):
        if isinstance(item, el.Detector):
            continue
        try:
            op, guard = _resolve(register, axis_of, item, blocks)
        except ParameterError as exc:
            raise type(exc)(_where(scheme, index, item) + str(exc)) from None
        if op.ports and occupied.keys().isdisjoint(op.ports):
            continue
        if guard is not None:
            hull = _hull(_reach(op, occupied))
            sector = tuple(slice(*h) if s == slice(None) else s for s, h in zip(guard[0], hull))
            guard = (sector, *guard[1:])
        steps.append((index, item, op, guard, occupied))
        axes = {axis_of(label) for label in op.targets}
        if op.ports or PATH in op.targets:
            moved = dict.fromkeys(op.ports or range(width), settled(_reach(op, occupied), axes))
        else:
            moved = {port: settled(boxes, axes) for port, boxes in occupied.items()}
        occupied = {**occupied, **moved}
    return cut, steps


def _reach(op: _Op, occupied: dict) -> list[tuple]:
    """The boxes of ``op``'s occupied ports, or of every occupied port if it names none."""
    ports = [port for port in op.ports if port in occupied] if op.ports else occupied
    return [box for port in ports for box in occupied[port]]


def _hull(boxes: Sequence[tuple]) -> tuple:
    """The least box, one ``(start, stop)`` per axis, that holds every one of ``boxes``."""
    if len(boxes) == 1:
        return boxes[0]
    return tuple((min(lo), max(hi)) for lo, hi in (zip(*axis) for axis in zip(*boxes)))


def _span(vec: np.ndarray, dim: int) -> tuple[int, int]:
    """``(start, stop)`` of the nonzero entries of ``vec``, a factor over ``dim`` states.

    ``(0, dim)`` for a factor with no nonzero entry or the wrong length,
    which :func:`qstate._factor_product` refuses.
    """
    hit = np.flatnonzero(vec)
    if np.size(vec) != dim or not hit.size:
        return 0, dim
    return int(hit[0]), int(hit[-1]) + 1


def _apply_op(tensor: np.ndarray, axis_of, op: _Op, occupied: dict | None = None) -> None:
    """Apply ``op`` in place; ``axis_of`` maps a subsystem label to its tensor axis.

    ``occupied`` (see :func:`_plan`; None bounds nothing) maps each port
    that may hold amplitude to the boxes outside which its slice of
    ``tensor`` holds only +0.0.  A signed permutation then moves the slabs
    of the view whose other axes are cut to the hull of the boxes of its
    ports (:func:`_reach`), and a dense block on the leading axis
    multiplies only the column chunks that meet those boxes
    (:func:`qstate._rows_product`), with the bits of the whole tensor (see
    the comment above ``_ATOL``).  Any other dense block acts on it whole.
    """
    axes = [axis_of(label) for label in op.targets]
    index = [slice(None)] * tensor.ndim
    if op.ports:
        path = axis_of(PATH)
        index[path] = _port_slice(op.ports)
        axes = [path] + axes
    columns = None
    if occupied is not None and op.block.cycles is not None:
        hull = _hull(_reach(op, occupied))
        index = [index[a] if a in axes else slice(*hull[a]) for a in range(tensor.ndim)]
    elif occupied is not None and axes == [0]:
        boxes = [box[1:] for box in _reach(op, occupied)]
        if tuple((0, dim) for dim in tensor.shape[1:]) not in boxes:  # else every column
            columns = np.zeros(tensor.shape[1:], dtype=bool)
            for box in boxes:
                columns[tuple(slice(*span) for span in box)] = True
            columns = columns.reshape(-1)
    qstate._apply_block(tensor[tuple(index)], axes, op.block, columns)


def _port_slice(ports: tuple[int, ...]) -> slice:
    """Basic slice of the path axis holding ``ports`` (one or two), in that order."""
    p, q = ports[0], ports[-1]
    step = q - p or 1
    stop = q + (1 if step > 0 else -1)
    return slice(p, stop if stop >= 0 else None, step)


def _factors(scheme: Scheme) -> list[tuple[tuple[str, ...], np.ndarray]]:
    """``scheme.initial`` with each state resolved to its amplitude vector (see :func:`_factor`)."""
    return [(labels, _factor(scheme.register, labels, state)) for labels, state in scheme.initial]


def initial_state(scheme: Scheme) -> PureState:
    """The state before any element acts: :func:`propagate` over no elements."""
    return propagate(scheme, upto=0)


def _path_first(register: Register) -> Register:
    """``register`` with ``path`` first, the rest in order; itself if nothing precedes ``path``."""
    pos = register.position(PATH) if PATH in register.labels else 0
    subs = register.subsystems
    return Register(subs[pos : pos + 1] + subs[:pos] + subs[pos + 1 :]) if pos else register


def _propagated(scheme: Scheme, upto: int | None = None) -> np.ndarray:
    """Frozen amplitudes after the first ``upto`` elements, over :func:`_path_first`'s register.

    :func:`_plan` checks every element before any acts, so a static fault
    such as a bad port is reported before a guard that would trip earlier.
    The buffer has ``path``'s axis first, so each path slice is one
    contiguous block.  It starts zeroed, with the product of the factors
    cut to the plan's ``cut`` (:func:`qstate._factor_product`) transposed
    in.  The elements the plan keeps then act in place, each bounded by the
    boxes of the ports it acts on (:func:`_apply_op`) and each guard
    checked on its plan's sector just before its element, its refusal
    prefixed by :func:`_where`.  The values, and every builder's bytes, are
    those of every element acting on the whole buffer (see above ``_ATOL``).
    The buffer owns its memory, so a :class:`PureState` adopts it as it is.
    """
    register = scheme.register
    lead = _path_first(register)
    items = scheme.elements if upto is None else scheme.elements[:upto]
    cut, plan = _plan(scheme, items, lead.position)
    product = qstate._factor_product(register, _factors(scheme), cut)
    buffer = np.zeros(register.total_dim, dtype=complex)
    view = buffer.reshape(lead.dims).transpose([lead.position(lab) for lab in register.labels])
    box = view if cut is None else view[cut]
    box[...] = product.reshape(box.shape)
    del product
    tensor = buffer.reshape(lead.dims)
    for index, item, op, guard, occupied in plan:
        if guard is not None and qstate._mass(tensor[guard[0]]) > guard[1]:
            raise InvalidConfigurationError(_where(scheme, index, item) + guard[2])
        _apply_op(tensor, lead.position, op, occupied)
    buffer.setflags(write=False)
    return buffer


def propagate(scheme: Scheme, upto: int | None = None) -> PureState:
    """State after the first ``upto`` elements (all of them by default), in register order.

    :func:`_propagated` runs the elements on its path-first buffer, which
    is then transposed into a fresh register-order array and frozen into a
    :class:`PureState` (its norm checked) once.  Its values, and for every
    builder its bytes, are those of every element acting on the whole state.
    """
    register = scheme.register
    lead = _path_first(register)
    tensor = _propagated(scheme, upto).reshape(lead.dims)
    amplitudes = tensor.transpose([lead.position(label) for label in register.labels]).flatten()
    amplitudes.setflags(write=False)
    return PureState(register, amplitudes)


def _strip_flyer(state: PureState, label: str) -> PureState:
    """Remove a flying subsystem that must be in a product with the rest.

    Every outcome's mass is read, and the subsystem is projected out once,
    onto the largest.
    """
    sub = state.register.subsystem(label)
    probs = [qstate.projection_probability(state, label, out) for out in sub.basis_labels]
    best = int(np.argmax(probs))
    prob, post = qstate.project_out(state, label, sub.basis_labels[best])
    if post is None or prob < 1.0 - FLYER_PURITY_ATOL:
        raise LossyWiringError(
            f"flying subsystem {label!r} is still entangled at detection "
            f"(dominant outcome probability {prob})"
        )
    return post


def _outcome_combos(detectors: Iterable[el.Detector]) -> Iterator[tuple[str, tuple]]:
    """Each detector outcome combination, in report order, with its id.

    Detectors on the same subsystem are alternative outcomes; detectors on
    different subsystems are measured jointly, so the combinations are the
    Cartesian product across subsystems, the first subsystem's detectors
    varying slowest.  Yields ``(id, detectors)``; the id joins the
    detector ids with commas.
    """
    groups: dict[str, list[el.Detector]] = {}
    for det in detectors:
        groups.setdefault(det.subsystem, []).append(det)
    for combo in itertools.product(*groups.values()):
        yield ",".join(det.id for det in combo), combo


def run(scheme: Scheme) -> list[OutcomeReport]:
    """Propagate, detect, correct, and score every outcome combination.

    One report per combination of :func:`_outcome_combos`, in its order.
    Every combination's id must be a key of ``scheme.corrections`` and of
    ``scheme.targets`` (a ``None`` target reports no fidelity); a missing
    one is a contract violation, raised before anything is propagated, so
    it comes first even when the wiring would fail too.

    Detection reads :func:`_propagated`'s path-first buffer as a
    :class:`PureState` over :func:`_path_first`'s register: each path
    outcome is one contiguous slab, and no register-order copy is made (a
    post state that keeps the path keeps it first).  Every combination is
    projected and its flyers stripped first; the propagated state is then
    released, and only then are the corrections applied and the
    fidelities computed, in report order.  So when one outcome fails at
    detection and another at its correction, the detection error is
    raised, whatever their order.  Probabilities must account for the
    whole state (sum to 1 within 1e-9).
    """
    combos = list(_outcome_combos(scheme.detectors)) if scheme.detectors else []
    for combo_id, _ in combos:
        if combo_id not in scheme.corrections or combo_id not in scheme.targets:
            raise ContractViolationError(
                f"scheme {scheme.name!r} declares no correction and target for outcome "
                f"{combo_id!r}"
            )
    state = PureState(_path_first(scheme.register), _propagated(scheme))
    if not combos:
        return []

    detected: list[tuple[str, float, PureState | None]] = []
    total = 0.0
    for combo_id, combo in combos:
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
        detected.append((combo_id, prob, st))
        total += prob
    del state

    reports: list[OutcomeReport] = []
    for combo_id, prob, st in detected:
        correction = scheme.corrections[combo_id]
        target = scheme.targets[combo_id]
        corrected = correction.apply(st) if st is not None else None
        fid = (
            verify.fidelity(corrected, target)
            if corrected is not None and target is not None
            else None
        )
        reports.append(OutcomeReport(combo_id, prob, st, corrected, correction, fid))

    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise LossyWiringError(
            f"detector probabilities sum to {total!r}, scheme loses amplitude"
        )
    return reports


# --------------------------------------------------------------------------
# small construction helpers


def _factor(register: Register, labels: Sequence[str], state: str | np.ndarray) -> np.ndarray:
    """Amplitude vector of the factor ``state`` over ``labels``; a vector is returned unchanged.

    A name is a basis label of the one subsystem in ``labels``, ``"+"`` for
    (|0> + |1>)/sqrt(2), or ``"pair"`` for (|0,g> + |1,e>)/sqrt(2) over a
    (field, atom) pair.
    """
    if not isinstance(state, str):
        return state
    if state in ("+", "pair"):
        return np.array([1, 1] if state == "+" else [1, 0, 0, 1], dtype=complex) / np.sqrt(2.0)
    sub = register.subsystem(labels[0])
    vec = np.zeros(sub.dim, dtype=complex)
    vec[sub.index_of(state)] = 1.0
    return vec


def _scheme(
    name: str,
    n: int,
    entries: Iterable[tuple],
    items: Iterable[el.Element],
    detectors: Sequence[el.Detector],
    corrections: Sequence[LocalCorrection],
    targets: Sequence[PureState | None],
    flying: tuple[str, ...] = (),
) -> Scheme:
    """A :class:`Scheme` whose ``register`` and ``initial`` are ``(state, subsystem, ...)`` entries.

    The entries list each subsystem once, in register order, one factor
    each; ``initial`` keeps each ``state`` as its name (see :func:`_factor`).
    ``corrections`` and ``targets`` list one entry per outcome, in :func:`_outcome_combos` order.
    """
    entries = tuple(entries)
    ids = [combo_id for combo_id, _ in _outcome_combos(detectors)]
    return Scheme(
        name=name,
        n=n,
        register=Register(sub for _, *subs in entries for sub in subs),
        initial=tuple((tuple(sub.label for sub in subs), state) for state, *subs in entries),
        elements=tuple(items),
        detectors=tuple(detectors),
        corrections=dict(zip(ids, corrections, strict=True)),
        targets=dict(zip(ids, targets, strict=True)),
        flying=flying,
    )


def _refuse_oversized(qubits: int, *dims: int) -> None:
    """Refuse a register of ``qubits`` two-level subsystems and ``dims`` before it is built.

    Every builder that takes ``n`` calls this before it builds a subsystem
    or a :class:`Graph`, so an oversized ``n`` costs nothing; the refusal
    and its message are :class:`Register`'s own.  More qubits than
    ``MAX_TOTAL_DIM`` has bits exceed it whatever ``dims`` are, so they are
    refused unlisted, the message naming 2**qubits as the least dimension.
    """
    if qubits > qstate.MAX_TOTAL_DIM.bit_length():
        raise ParameterError(
            f"register dimension 2**{qubits} or more exceeds "
            f"MAX_TOTAL_DIM = {qstate.MAX_TOTAL_DIM}"
        )
    qstate._checked_total_dim((2,) * qubits + dims)


def _path_scheme(
    name: str,
    qubits: Sequence[tuple[str, Subsystem]],
    messenger: tuple[str, Subsystem],
    items: Iterable[el.Element],
    corrections: Sequence[LocalCorrection],
    targets: Sequence[PureState | None],
) -> Scheme:
    """A scheme of ``qubits``, a path entered at port 0 and the flying ``messenger``.

    ``qubits`` and ``messenger`` are ``(state, subsystem)`` entries.  The path
    has one port per outcome, and detector ``D<j+1>`` watches port ``j``.
    """
    ports = len(corrections)
    entries = [*qubits, ("0", Subsystem(PATH, KIND_PATH, ports)), messenger]
    detectors = [el.Detector(f"D{j + 1}", PATH, j) for j in range(ports)]
    flying = (messenger[1].label,)
    return _scheme(name, len(qubits), entries, items, detectors, corrections, targets, flying)


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
    """Realize a 2x2 unitary with no zero entry as phases around one beam splitter."""
    p, q = ports
    out: list[el.Element] = []

    def push_phase(port: int, phase: float) -> None:
        phase = float(np.angle(np.exp(1j * phase)))
        if abs(phase) > 1e-12:
            out.append(el.PhaseShifter(port, phase))

    c = float(np.angle(w[0, 0]))
    d = float(np.angle(w[0, 1]))
    b = float(np.angle(w[1, 0])) - c
    push_phase(p, c)
    push_phase(q, d)
    out.append(el.BS(float(abs(w[0, 1]) ** 2), ports))
    push_phase(q, b)
    return out


def _unitary_mesh(v: np.ndarray, ports: Sequence[int]) -> list[el.Element]:
    """Decompose an arbitrary port unitary into splitters and phase shifters.

    ``v`` is square with one port per row.  Left-multiplying Givens
    rotations reduce ``v`` to a phase diagonal; the element list plays the
    factors back so that applying it to the path equals applying ``v``.
    No rotation may have a zero entry (a splitter of reflectivity 0 or 1 is
    refused when applied); the Fourier tritter, the only input, has none.
    """
    u = np.array(v, dtype=complex)
    n = len(ports)
    rotations: list[tuple[int, int, np.ndarray]] = []
    for col in range(n - 1):
        for row in range(col + 1, n):
            a, b = u[col, col], u[row, col]
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


# --------------------------------------------------------------------------
# atom-entangling schemes (flying polarized photon)


def _photon_scheme(
    name: str,
    pattern: Sequence[str],
    items: Iterable[el.Element],
    corrections: Sequence[LocalCorrection],
    targets: Sequence[PureState | None],
) -> Scheme:
    """:func:`_path_scheme` of L/R atoms ``atom1 ..`` in ``pattern`` and an L-polarized photon."""
    atoms = [(s, Subsystem(f"atom{i + 1}", KIND_ATOM_LR)) for i, s in enumerate(pattern)]
    photon = ("L", Subsystem(POL, KIND_POL))
    return _path_scheme(name, atoms, photon, items, corrections, targets)


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
    targets = [verify.ghz_target(n, 1, b), verify.ghz_target(n, -1, b)]
    return pattern, items, [x_layer, x_layer], targets


def _hadamard_z_layers(ports: int, atoms: int) -> list[LocalCorrection]:
    """Z layer per port ``j``: Z on each atom k with Hadamard sign -1."""
    return [
        LocalCorrection(
            tuple(
                (f"atom{k + 1}", "Z") for k in range(atoms) if bin(j & k).count("1") % 2
            )
        )
        for j in range(ports)
    ]


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
    _refuse_oversized(n, 2, 2)  # the atoms, path and polarization
    pattern, items, corrections, targets = _ghz_wiring(
        n, "atom", ("L", "R"), el.CavityAtomBlock
    )
    return _photon_scheme("ghz-atoms", pattern, items, corrections, targets)


def build_w_pow2(n: int) -> Scheme:
    """W state over ``n = 2**k`` atoms from one photon and one cavity per atom.

    A Hadamard splitter mesh fans the photon over n paths, each path flips
    its own atom, and the same mesh recombines the paths.  Every detector
    fires with probability 1/n; the recorded correction is the Z layer
    matching that output port's sign pattern.
    """
    if n < 2 or n & (n - 1):
        raise ParameterError(f"this scheme needs a power-of-two atom count, got {n}")
    _refuse_oversized(n, n, 2)  # the atoms, path and polarization
    target = verify.w_target(n)
    mesh = _hadamard_mesh(range(n))
    cavities = [el.CavityAtomBlock(f"atom{k + 1}", port=k) for k in range(n)]
    items = [*mesh, *cavities, *mesh]
    return _photon_scheme("w", ["L"] * n, items, _hadamard_z_layers(n, n), [target] * n)


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
    corrections = [*_hadamard_z_layers(4, 3), LocalCorrection()]
    targets = [*[verify.w_target(3)] * 4, None]
    return _photon_scheme("w3-prob", ["L"] * 3, items, corrections, targets)


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
    corrections = [
        LocalCorrection(
            tuple(
                (f"atom{k + 1}", ("phase", float(-np.angle(tritter[j, k]))))
                for k in range(3)
                if abs(np.angle(tritter[j, k])) > 1e-12
            )
        )
        for j in range(3)
    ]
    return _photon_scheme("w3-det", ["L"] * 3, items, corrections, [verify.w_target(3)] * 3)


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
    _refuse_oversized(n, 2, 2)  # the atoms, path and polarization
    items: list[el.Element] = [el.BS(0.5, (0, 1))]
    for i in range(n):
        items.append(el.CavityAtomBlock(f"atom{i + 1}", port=1))
        items.append(el.PR(port=1))
        items.append(el.BS(0.5, (0, 1)))
    corrections = [LocalCorrection(), LocalCorrection(((f"atom{n}", "Z"),))]
    targets = [verify.graph_target(Graph.path(n), KIND_ATOM_LR)] * 2
    return _photon_scheme("cluster", ["L"] * n, items, corrections, targets)


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
    _refuse_oversized(n, 2, 2)  # the fields, path and atom
    pattern, items, corrections, targets = _ghz_wiring(
        n, "field", ("1", "0"), lambda field, port: el.FieldPiBlock("atom", field, port)
    )
    fields = [(s, Subsystem(f"field{i + 1}", KIND_FIELD)) for i, s in enumerate(pattern)]
    atom = ("g", Subsystem("atom", KIND_ATOM_GE))
    return _path_scheme("ghz-fields", fields, atom, items, corrections, targets)


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
    entries = (
        ("1", Subsystem("field1", KIND_FIELD)),
        ("+", Subsystem("field2", KIND_FIELD)),
        ("g", Subsystem("atom", KIND_ATOM_GE)),
    )
    items = (
        el.FieldHalfPiBlock("atom", "field1"),
        el.ExternalPiPulse("atom"),
        el.DispersiveBlock("atom", "field2"),
        el.RamseyZone("atom"),
    )
    detectors = (el.Detector("Dg", "atom", "g"), el.Detector("De", "atom", "e"))
    corrections = [LocalCorrection(), LocalCorrection((("field1", "Z"),))]
    targets = [verify.graph_target(Graph.path(2), KIND_FIELD)] * 2
    return _scheme("field-cz", 2, entries, items, detectors, corrections, targets)


def build_field_graph(
    kind: str | None = None,
    n: int | None = None,
    graph: Graph | None = None,
) -> Scheme:
    """Graph state over cavity fields, one dispersive pass per edge.

    Named kinds follow the sequential recipes of :data:`verify.GRAPH_FAMILIES`:
    ``star`` keeps cavity 1 in (|0>+|1>)/sqrt(2) and sends atom j (entangled
    with its own cavity j) through cavity 1; ``linear`` sends atom j through
    cavity j-1; ``ring`` closes the chain by also sending atom 1 through
    cavity n.  An explicit ``graph`` uses one cavity-atom pair per vertex
    and takes its edges in sorted order, each (u, v) with u < v.  For every
    edge (u, v) the atom of v passes through the cavity of u.  Measuring the
    atoms leaves the fields in the graph state after the recorded per-field
    Z corrections (Z on field j when atom j reads e); every one of the
    ``2**(measured atoms)`` outcome combinations occurs with the same
    probability.
    """
    if graph is not None:
        if kind is not None or n is not None:
            raise ParameterError("pass either kind/n or an explicit graph, not both")
        n = graph.vertices
        _refuse_oversized(2 * n)  # a field and an atom per vertex
        scheme_name = "graph-custom"
        edges = sorted(graph.edges)
        paired = range(n)  # every vertex carries an atom
    else:
        if kind is None or n is None:
            raise ParameterError("need kind and n when no explicit graph is given")
        if kind not in verify.GRAPH_FAMILIES:
            raise ParameterError(f"unknown graph kind {kind!r}")
        # the vertices whose atom makes a pass: all of a ring's, all but the first otherwise
        paired = range(0 if kind == "ring" else 1, n)
        _refuse_oversized(2 * n - paired.start)  # the fields and atoms, before any edge is made
        edges = verify.family_edges(kind, n)  # refuses a ring of n < 3, which is never oversized
        if n < 2:
            raise ParameterError(f"{kind} graph needs n >= 2")
        scheme_name = f"graph-{kind}"
        graph = Graph(n, edges)

    entries = [
        ("pair", Subsystem(f"field{v + 1}", KIND_FIELD), Subsystem(f"atom{v + 1}", KIND_ATOM_GE))
        if v in paired
        else ("+", Subsystem(f"field{v + 1}", KIND_FIELD))
        for v in range(n)
    ]

    items: list[el.Element] = [
        el.DispersiveBlock(f"atom{v + 1}", f"field{u + 1}") for u, v in edges
    ]
    items += [el.RamseyZone(f"atom{v + 1}") for v in paired]
    detectors = [
        el.Detector(f"D{v + 1}{out}", f"atom{v + 1}", out) for v in paired for out in "ge"
    ]

    corrections = [
        LocalCorrection(
            tuple((f"field{v + 1}", "Z") for v, det in zip(paired, combo) if det.outcome == "e")
        )
        for _, combo in _outcome_combos(detectors)
    ]
    targets = [verify.graph_target(graph, KIND_FIELD)] * len(corrections)
    return _scheme(scheme_name, n, entries, items, detectors, corrections, targets)


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
        if self.n_cavities > MAX_WALK_CAVITIES:
            raise ParameterError(
                f"{self.n_cavities} cavities exceed MAX_WALK_CAVITIES = {MAX_WALK_CAVITIES}"
            )
        if self.max_steps < 1:
            raise ParameterError(f"max_steps must be positive, got {self.max_steps}")
        if self.max_steps > MAX_WALK_STEPS:
            raise ParameterError(
                f"{self.max_steps} steps exceed MAX_WALK_STEPS = {MAX_WALK_STEPS}"
            )


@dataclass(frozen=True)
class RetryWalkResult:
    success_prob: float
    expected_steps: float
    conditional_fidelity: float


def retry_walk(params: RetryWalkParams) -> RetryWalkResult:
    """Success probability within ``max_steps`` and the mean step count.

    ``success_prob`` steps the chain's distribution in place: each cavity
    sends ``p`` of its mass forward and ``q = 1 - p`` back, and the source
    sends all of its mass to cavity 1.  ``expected_steps`` refers to the
    unlimited walk: it sums the mean times ``E_k`` from cavity ``k`` to
    ``k + 1``, ``E_k = (1 + q E_{k-1}) / p`` from ``E_0 = 1`` (Norris,
    *Markov Chains*, 1997, sec. 1.3), whose terms are all positive, so
    nothing cancels; a mean beyond the largest double is ``inf``.  A
    detected photon has made exactly the intended sequence of net forward
    flips, so the conditional fidelity of the delivered state is 1
    identically: wrong turns cost time, never quality.
    """
    n, p = params.n_cavities, params.p_flip
    q = 1.0 - p
    dist = np.zeros(n + 2)
    dist[1] = 1.0
    for _ in range(params.max_steps):
        forward = p * dist[1:-1]
        source = dist[0]
        np.multiply(dist[1:-1], q, out=dist[:-2])  # cavities 1..n send q back
        dist[-2] = 0.0  # the detector sends nothing back to cavity n
        dist[1] += source
        dist[2:] += forward
        if dist[n + 1] >= 1.0 - 1e-15:
            break

    expected, hop = 0.0, 1.0
    for _ in range(n):
        hop = (1.0 + q * hop) / p
        expected += hop
    return RetryWalkResult(
        success_prob=float(dist[n + 1]),
        expected_steps=expected,
        conditional_fidelity=1.0,
    )


def retry_walk_mc(
    params: RetryWalkParams, trajectories: int, seed: int
) -> float:
    """Monte-Carlo estimate of ``success_prob`` over independent walkers.

    More than ``MAX_MC_TRAJECTORIES`` walkers or more than
    ``MAX_MC_WALKER_STEPS`` walkers times ``params.max_steps`` raise a
    parameter error, in that order, before any buffer is allocated.  The
    walk stops early once no live walker can reach the detector in the
    steps left (the farthest position plus the steps left is at most
    ``n``): the estimate is then final.
    """
    if trajectories < 1:
        raise ParameterError(f"need at least one trajectory, got {trajectories}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if trajectories > MAX_MC_TRAJECTORIES:
        raise ParameterError(
            f"{trajectories} trajectories exceed MAX_MC_TRAJECTORIES = {MAX_MC_TRAJECTORIES}"
        )
    if trajectories * params.max_steps > MAX_MC_WALKER_STEPS:
        raise ParameterError(
            f"{trajectories} trajectories x {params.max_steps} steps exceed "
            f"MAX_MC_WALKER_STEPS = {MAX_MC_WALKER_STEPS}"
        )
    rng = np.random.default_rng(seed)
    n, p = params.n_cavities, params.p_flip
    # The live walkers are the prefix pos[:live], kept in their original order,
    # so the k-th uniform draw of a step always goes to the same walker.
    # Positions stay within 0 .. MAX_WALK_CAVITIES + 1, so int16 holds them.
    pos = np.ones(trajectories, dtype=np.int16)
    draws = np.empty(trajectories)
    step = np.empty(trajectories, dtype=np.int8)
    keep = np.empty(trajectories, dtype=bool)
    live = trajectories
    for left in range(params.max_steps, 0, -1):
        if live == 0 or (left <= n and int(pos[:live].max()) + left <= n):
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


def scheme_to_jsonable(scheme: Scheme) -> dict:
    initial = [{"subsystems": list(labels), "state": state} for labels, state in scheme.initial]
    return {
        "name": scheme.name,
        "n": scheme.n,
        "elements": [{"type": type(item).__name__, **vars(item)} for item in scheme.elements],
        "initial": initial,
    }


def reports_to_jsonable(reports: Sequence[OutcomeReport]) -> list[dict]:
    """Outcome rows; ``corrected_state`` is the read-only amplitude array or None.

    :func:`cavnet.cli.dump_json` renders the array as a list of ``[re, im]``
    pairs.
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
