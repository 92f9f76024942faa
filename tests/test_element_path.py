"""Element application in ``propagate`` against full-register matrix oracles.

``reference_propagate`` is the register-order reference: the same kernels
applied to a buffer whose axes follow the register, as ``propagate`` did
before it moved the path axis to the front.  The two agree bit for bit,
also on a register whose last subsystem is the path, where a path slice of
the register-order buffer is a strided view: the dense kernel multiplies a
contiguous copy of it.  The occupancy tests hold ``_propagated``, which
skips the slabs and column chunks that hold only +0.0, to that reference
and to ``propagate_every_element`` byte for byte, whatever the signs of
the initial factors.
"""

import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavnet import elements as el
from cavnet import qstate, schemes
from cavnet.errors import (
    ContractViolationError,
    InvalidConfigurationError,
    InvalidLabelError,
    ParameterError,
    ShapeError,
)
from cavnet.qstate import (
    KIND_ATOM_GE,
    KIND_ATOM_LR,
    KIND_FIELD,
    KIND_PATH,
    KIND_POL,
    Register,
    Subsystem,
)
from support import assert_bit_equal, bare_scheme, propagate_every_element

KINDS = {
    "a1": KIND_ATOM_LR,
    "a2": KIND_ATOM_LR,
    "f1": KIND_FIELD,
    "f2": KIND_FIELD,
    "path": KIND_PATH,
    "pol": KIND_POL,
    "fly": KIND_ATOM_GE,
}
GUARD_EPS = 1e-12


def random_state(register, seed, empty=()):
    """Random normalized amplitudes, zero where a ``(label, index)`` of ``empty`` holds."""
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=register.dims) + 1j * rng.normal(size=register.dims)
    for label, index in empty:
        psi[(slice(None),) * register.position(label) + (index,)] = 0.0
    psi = psi.reshape(-1)
    return psi / np.linalg.norm(psi)


def reference_propagate(scheme):
    """Final amplitudes of every element applied on a register-order buffer (no guards).

    The buffer is the uncut product of the initial factors (:func:`qstate._factor_product`).
    """
    register = scheme.register
    tensor = qstate._factor_product(register, schemes._factors(scheme)).reshape(register.dims)
    for item in scheme.elements:
        if not isinstance(item, el.Detector):
            op = schemes._resolve(register, register.position, item, {})[0]
            schemes._apply_op(tensor, register.position, op)
    return tensor.reshape(-1)


# ------------------------------------------------------------ kron oracle


def ket_bra(dim, i, j):
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def kron_all(factors):
    out = np.ones((1, 1), dtype=complex)
    for f in factors:
        out = np.kron(out, f)
    return out


def full_matrix(register, block, labels, ports=None):
    """Register matrix of ``block`` on the joint basis of (path ``ports``, ``labels``).

    With ``ports`` the block acts only where the path is in one of those
    ports; every other port sees the identity.
    """
    dims = {sub.label: sub.dim for sub in register.subsystems}
    factor_dims = ([len(ports)] if ports else []) + [dims[lab] for lab in labels]
    total = np.zeros((register.total_dim,) * 2, dtype=complex)
    for (i, j), value in np.ndenumerate(np.asarray(block)):
        if value == 0:
            continue
        ii, jj = np.unravel_index(i, factor_dims), np.unravel_index(j, factor_dims)
        ops = {}
        if ports:
            ops["path"] = ket_bra(dims["path"], ports[ii[0]], ports[jj[0]])
            ii, jj = ii[1:], jj[1:]
        for lab, a, b in zip(labels, ii, jj):
            ops[lab] = ket_bra(dims[lab], a, b)
        total += value * kron_all(
            ops.get(sub.label, np.eye(sub.dim)) for sub in register.subsystems
        )
    if ports:
        idle = np.eye(dims["path"])
        idle[list(ports), list(ports)] = 0.0
        total += kron_all(
            idle if sub.label == "path" else np.eye(sub.dim) for sub in register.subsystems
        )
    return total


def arm(port):
    return None if port is None else (port,)


def oracle_matrix(register, item):
    """Each element kind as written in the ``cavnet.elements`` docstrings."""
    if isinstance(item, el.BS):
        return full_matrix(register, el.bs_unitary(item.reflectivity), [], item.ports)
    if isinstance(item, el.PhaseShifter):
        return full_matrix(register, [[np.exp(1j * item.phase)]], [], (item.port,))
    if isinstance(item, el.Reroute):
        return full_matrix(register, [[0, 1], [1, 0]], [], (item.src, item.dst))
    if isinstance(item, el.PBS):
        return full_matrix(register, el.pbs_unitary(), ["pol"], item.ports)
    if isinstance(item, el.PR):
        return full_matrix(register, el.pr_unitary(), ["pol"], (item.port,))
    if isinstance(item, el.CavityAtomBlock):
        return full_matrix(
            register, el.cavity_atom_block_unitary(), [item.atom, "pol"], arm(item.port)
        )
    ladder = {
        el.FieldPiBlock: el.field_pi_block_unitary,
        el.FieldHalfPiBlock: el.field_half_pi_block_unitary,
        el.DispersiveBlock: el.dispersive_block_unitary,
    }
    if type(item) in ladder:
        block = ladder[type(item)]()
        return full_matrix(register, block, [item.atom, item.field], arm(item.port))
    if isinstance(item, el.RamseyZone):
        return full_matrix(register, el.ramsey_unitary(), [item.atom])
    if isinstance(item, el.ExternalPiPulse):
        return full_matrix(register, el.external_pi_unitary(), [item.atom])
    if isinstance(item, el.Detector):
        return np.eye(register.total_dim)
    raise AssertionError(f"no oracle for {item!r}")


def sector_mass(register, psi, assignments):
    slicer = [slice(None)] * len(register)
    for label, index in assignments.items():
        slicer[register.position(label)] = index
    return float(np.sum(np.abs(psi.reshape(register.dims)[tuple(slicer)]) ** 2))


def guard_trips(register, psi, item):
    """Whether the reroute-occupancy or double-excitation guard must refuse ``item``."""
    if isinstance(item, el.Reroute):
        return sector_mass(register, psi, {"path": item.dst}) > GUARD_EPS
    if isinstance(item, el.FieldPiBlock):
        sector = {item.atom: 1, item.field: 1}
        if item.port is not None:
            sector["path"] = item.port
        return sector_mass(register, psi, sector) > GUARD_EPS
    return False


# ------------------------------------------------------------ strategies


def any_element(dpath, path=True):
    """An element of any kind over the subsystems of ``KINDS``, its ports on a path of
    ``dpath``; with ``path=False`` only elements that name no port."""
    port = st.integers(0, dpath - 1)
    two_ports = st.lists(port, min_size=2, max_size=2, unique=True).map(tuple)
    maybe_port = st.none() | port if path else st.none()
    field = st.sampled_from(("f1", "f2"))
    portless = [
        st.builds(el.CavityAtomBlock, st.sampled_from(("a1", "a2")), maybe_port),
        st.builds(el.FieldPiBlock, st.just("fly"), field, maybe_port),
        st.builds(el.FieldHalfPiBlock, st.just("fly"), field, maybe_port),
        st.builds(el.DispersiveBlock, st.just("fly"), field, maybe_port),
        st.just(el.RamseyZone("fly")),
        st.just(el.ExternalPiPulse("fly")),
    ]
    if not path:
        return st.one_of(*portless)
    return st.one_of(
        st.builds(el.BS, st.floats(0.01, 0.99), two_ports),
        st.builds(el.PhaseShifter, port, st.floats(-np.pi, np.pi)),
        two_ports.map(lambda p: el.Reroute(*p)),
        two_ports.map(el.PBS),
        st.builds(el.PR, port),
        *portless,
        st.just(el.Detector("D", "path", 0)),
    )


@st.composite
def element_runs(draw):
    """A register in random subsystem order, a path of dim 2-4, and 0-8 elements."""
    dpath = draw(st.integers(2, 4))
    order = draw(st.permutations(tuple(KINDS)))
    items = draw(st.lists(any_element(dpath), max_size=8))
    seed = draw(st.integers(0, 2**32 - 1))
    return dpath, order, items, seed


@settings(max_examples=150, deadline=None)
@given(element_runs())
@example((2, ["a1", "a2", "f1", "f2", "pol", "fly", "path"], [el.PhaseShifter(0, 1.0)], 0))
def test_propagate_matches_kron_oracle(run):
    dpath, order, items, seed = run
    register = Register(
        Subsystem(lab, KINDS[lab], dpath if lab == "path" else 2) for lab in order
    )
    # last port and the excited flyer start empty, so both guards can pass or trip
    psi = random_state(register, seed, empty=(("path", dpath - 1), ("fly", 1)))
    scheme = bare_scheme(register, psi, items)
    for item in items:
        if guard_trips(register, psi, item):
            with pytest.raises(InvalidConfigurationError):
                schemes.propagate(scheme)
            return
        psi = oracle_matrix(register, item) @ psi
    got = schemes.propagate(scheme)
    assert np.abs(got.amplitudes - psi).max() < 1e-12
    assert_bit_equal(got.amplitudes, reference_propagate(scheme))


BUILDERS = {
    "ghz-atoms4": lambda: schemes.build_ghz_atoms(4),
    "w4": lambda: schemes.build_w_pow2(4),
    "w3-prob": schemes.build_w3_probabilistic,
    "w3-det": schemes.build_w3_deterministic,
    "cluster3": lambda: schemes.build_cluster_atoms(3),
    "ghz-fields4": lambda: schemes.build_ghz_fields(4),
    "field-cz": schemes.build_field_cz_pair,
    "ring4": lambda: schemes.build_field_graph("ring", 4),
    "star3": lambda: schemes.build_field_graph("star", 3),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_propagate_matches_register_order_reference(name):
    scheme = BUILDERS[name]()
    got = schemes.propagate(scheme)
    assert got.register == scheme.register
    assert not got.amplitudes.flags.writeable
    assert_bit_equal(got.amplitudes, reference_propagate(scheme))


def test_pbs_scheme_matches_numpy_oracle():
    """L transmits and R swaps the two ports, here on non-adjacent axes."""
    register = Register(
        [
            Subsystem("pol", KIND_POL),
            Subsystem("atom1", KIND_ATOM_LR),
            Subsystem("path", KIND_PATH, 3),
        ]
    )
    psi = random_state(register, 7)
    after = schemes.propagate(bare_scheme(register, psi, [el.PBS((2, 0))]))
    want = psi.reshape(2, 2, 3).copy()  # axes (pol, atom1, path)
    want[1, :, 0], want[1, :, 2] = want[1, :, 2].copy(), want[1, :, 0].copy()
    assert np.abs(after.amplitudes - want.reshape(-1)).max() < 1e-15

    # a polarized photon on arm 0: each detector sees one polarization
    pol = np.array([np.sqrt(0.3), 1j * np.sqrt(0.7)])
    photon = np.kron(np.kron([0.6, 0.8], [1.0, 0.0, 0.0]), pol)  # (atom1, path, pol)
    register = Register(
        [
            Subsystem("atom1", KIND_ATOM_LR),
            Subsystem("path", KIND_PATH, 3),
            Subsystem("pol", KIND_POL),
        ]
    )
    detectors = [el.Detector(f"D{p}", "path", p) for p in range(3)]
    scheme = bare_scheme(register, photon, [el.PBS((0, 1))], detectors)
    reports = {rep.detector_id: rep for rep in schemes.run(scheme)}
    assert reports["D0"].probability == pytest.approx(0.3, abs=1e-15)
    assert reports["D1"].probability == pytest.approx(0.7, abs=1e-15)
    assert reports["D2"].probability == 0.0 and reports["D2"].post_state is None
    for det, pol_index in (("D0", 0), ("D1", 1)):
        post = reports[det].post_state.amplitudes.reshape(2, 2)  # (atom1, pol)
        assert np.abs(np.abs(post[:, pol_index]) - [0.6, 0.8]).max() < 1e-15
        assert np.abs(post[:, 1 - pol_index]).max() == 0.0


@pytest.mark.parametrize(
    "item,error",
    [
        (el.BS(0.5, (0, 3)), ParameterError),
        (el.BS(0.5, (1, 1)), ParameterError),
        (el.PhaseShifter(5, 0.1), ParameterError),
        (el.PR(-1), ParameterError),
        (el.CavityAtomBlock("nosuch", 0), InvalidLabelError),
        (el.CavityAtomBlock("path", 0), ParameterError),
        (el.RamseyZone("path"), ShapeError),
        ("not an element", ParameterError),
    ],
)
def test_propagate_rejects_bad_wiring(item, error):
    register = Register(
        [
            Subsystem("atom1", KIND_ATOM_LR),
            Subsystem("path", KIND_PATH, 3),
            Subsystem("pol", KIND_POL),
        ]
    )
    with pytest.raises(error):
        schemes.propagate(bare_scheme(register, random_state(register, 1), [item]))


def test_a_plan_refusal_names_the_scheme_and_the_element():
    register = Register([Subsystem("atom1", KIND_ATOM_LR), Subsystem("path", KIND_PATH, 3)])
    items = [el.BS(0.5, (0, 1)), el.Detector("D", "path", 0), el.PhaseShifter(5, 0.1)]
    scheme = bare_scheme(register, random_state(register, 1), items, name="wired")
    with pytest.raises(ParameterError) as info:
        schemes.propagate(scheme)
    assert str(info.value) == (
        "scheme 'wired', element 2 (PhaseShifter): "
        "ports (5,) must differ and exist on a path of dim 3"
    )
    scheme = bare_scheme(register, random_state(register, 1), [el.RamseyZone("a9")], name="wired")
    with pytest.raises(InvalidLabelError, match=r"^scheme 'wired', element 0 \(RamseyZone\): no "):
        schemes.propagate(scheme)


SQ2 = 1.0 / np.sqrt(2.0)


def test_a_bad_port_is_reported_before_an_earlier_guard_trips():
    register = Register([Subsystem("path", KIND_PATH, 3)])
    # port 2 is occupied, so the reroute's guard would trip first if it ran
    scheme = bare_scheme(register, [SQ2, 0.0, SQ2], [el.Reroute(0, 2), el.BS(0.5, (0, 7))])
    with pytest.raises(ParameterError, match=r"^scheme 'bare', element 1 \(BS\): ports"):
        schemes.propagate(scheme)


def photon_scheme(register, port, items):
    """``register`` with a photon in ``port`` and each other subsystem in its first state."""
    factors = tuple(
        ((sub.label,), np.eye(sub.dim)[port if sub.kind == KIND_PATH else 0])
        for sub in register.subsystems
    )
    scheme = bare_scheme(register, np.eye(register.total_dim)[0], items)
    return dataclasses.replace(scheme, initial=factors)


def test_an_element_left_out_is_still_checked():
    register = Register(
        [
            Subsystem("atom1", KIND_ATOM_LR),
            Subsystem("field1", KIND_FIELD),
            Subsystem("path", KIND_PATH, 3),
        ]
    )
    # both act on empty port 2 only; the pi block's guard asks for an "e" the LR atom lacks
    items = [el.PhaseShifter(2, 0.3), el.FieldPiBlock("atom1", "field1", 2)]
    scheme = photon_scheme(register, 0, items)
    assert schemes._plan(scheme, items[:1], register.position)[1] == []
    with pytest.raises(InvalidLabelError, match=r"^scheme 'bare', element 1 \(FieldPiBlock\): label"):
        schemes.propagate(scheme)


@st.composite
def meshes(draw):
    """A photon in a random port of a 2-8 port path among up to two qubits, and a mesh of
    splitters, phase shifters and reroutes, with pi pulses and Ramsey zones on the qubits.

    A qubit starts in a random complex state or, so that slabs and chunks are skipped, in
    ``"L"``, ``"R"`` or ``"+"``; half the time 13 idle qubits in such states lead the
    register, so the path rows span 2-4 chunks of columns.
    """
    dpath = draw(st.integers(2, 8))
    subs = [Subsystem(f"q{i}", KIND_ATOM_LR) for i in range(draw(st.integers(0, 2)))]
    subs.insert(draw(st.integers(0, len(subs))), Subsystem("path", KIND_PATH, dpath))
    idle = [Subsystem(f"idle{i}", KIND_ATOM_LR) for i in range(draw(st.sampled_from((0, 13))))]
    port = st.integers(0, dpath - 1)
    two_ports = st.lists(port, min_size=2, max_size=2, unique=True).map(tuple)
    element = st.one_of(
        st.builds(el.BS, st.floats(0.01, 0.99), two_ports),
        st.builds(el.PhaseShifter, port, st.floats(-np.pi, np.pi)),
        two_ports.map(lambda p: el.Reroute(*p)),
    )
    qubits = [sub.label for sub in subs if sub.kind != KIND_PATH]
    if qubits:
        qubit = st.sampled_from(qubits)
        element |= st.builds(el.ExternalPiPulse, qubit) | st.builds(el.RamseyZone, qubit)
    items = draw(st.lists(element, max_size=12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors = []
    for sub in idle + subs:
        if sub.kind == KIND_PATH:
            factors.append(((sub.label,), str(draw(port))))
        elif sub in idle or draw(st.booleans()):
            factors.append(((sub.label,), draw(st.sampled_from(("L", "R", "+")))))
        else:
            amps = rng.normal(size=2) + 1j * rng.normal(size=2)
            factors.append(((sub.label,), amps / np.linalg.norm(amps)))
    scheme = bare_scheme(Register(idle + subs), [1.0], items)
    return dataclasses.replace(scheme, initial=tuple(factors))


@settings(max_examples=200, deadline=None)
@given(meshes())
def test_left_out_elements_change_no_value(scheme):
    # Exact in value, so bit for bit except the sign of a zero: a left-out
    # element keeps a zero as it is, and the matrix product it would have
    # run writes -0.0 for some zeros on a few columns (a 2x2 splitter on
    # 2 or 3 columns of zeros).  The slabs and column chunks the plan's
    # boxes skip hold zeros too.  Every builder's bytes are unchanged.
    try:
        want = propagate_every_element(scheme)
    except InvalidConfigurationError as exc:
        with pytest.raises(InvalidConfigurationError) as info:
            schemes.propagate(scheme)
        assert str(info.value) == str(exc)
        return
    got = schemes.propagate(scheme).amplitudes
    assert np.array_equal(got.view(np.float64), want.view(np.float64))


@st.composite
def factor_tilings(draw):
    """A register of 1-5 subsystems, with or without a path, tiled by random factors.

    A signed tiling's factors are complex with zeros of either sign; a sign-free
    one's are real, at least +0.0.  Either way the plan cuts every factor over one
    subsystem to the span of its nonzero entries.
    """
    n = draw(st.integers(1, 5))
    kinds = st.sampled_from((KIND_ATOM_LR, KIND_FIELD))
    subs = [Subsystem(f"s{i}", draw(kinds)) for i in range(n)]
    if draw(st.booleans()):
        subs.insert(draw(st.integers(0, n)), Subsystem("path", KIND_PATH, draw(st.integers(2, 5))))
    register = Register(subs)
    signed = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    factors, at = [], 0
    while at < len(subs):
        width = draw(st.integers(1, len(subs) - at))
        labels = tuple(sub.label for sub in subs[at : at + width])
        dim = int(np.prod([sub.dim for sub in subs[at : at + width]]))
        if signed:
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            amps[rng.random(dim) < 0.3] = draw(st.sampled_from((0.0, -0.0, complex(0.0, -0.0))))
        else:
            amps = rng.random(dim) * (rng.random(dim) < 0.6)
        amps[rng.integers(dim)] = 1.0  # no factor is all zeros
        factors.append((labels, amps))
        at += width
    norm = np.prod([np.linalg.norm(amps) for _, amps in factors])
    factors[0] = (factors[0][0], factors[0][1] / norm)
    return register, factors


@settings(max_examples=200, deadline=None)
@given(factor_tilings())
def test_path_first_product_is_the_transposed_register_order_product(case):
    register, factors = case
    scheme = dataclasses.replace(bare_scheme(register, [1.0]), initial=tuple(factors))
    lead = schemes._path_first(register)
    if "path" in register.labels:
        assert lead.labels[0] == "path" and sorted(lead.labels) == sorted(register.labels)
        # dropping the path leaves the register order
        assert lead.without("path") == register.without("path")
    else:
        assert lead is register
    products = []
    factor_product = qstate._factor_product

    def spy(*args):
        products.append(factor_product(*args))
        return products[-1]

    with mock.patch.object(qstate, "_factor_product", spy):
        got = schemes._propagated(scheme, upto=0)
    order = [register.position(label) for label in lead.labels]
    vectors = [np.asarray(amps, dtype=complex) for _, amps in factors]
    want = functools.reduce(np.kron, vectors) + 0.0  # every zero +0.0
    want = want.reshape(register.dims).transpose(order).reshape(-1)
    assert_bit_equal(got, want)
    assert got.base is None and not got.flags.writeable  # so a PureState adopts it
    # the product is written into a fresh buffer, never adopted as it
    assert len(products) == 1 and got is not products[0]
    assert not np.shares_memory(got, products[0])


# ------------------------------------------------------------ occupancy


CHUNK = qstate._CHUNK_COLUMNS


def path_first(register, amplitudes):
    """Register-order ``amplitudes`` as the path-first buffer ``_propagated`` returns."""
    lead = schemes._path_first(register)
    order = [register.position(label) for label in lead.labels]
    return amplitudes.reshape(register.dims).transpose(order).reshape(-1)


def path_factor(draw, rng, dim, signed, basis=True):
    """A basis port (if ``basis``), or a real vector over every port with a negative entry
    if ``signed``."""
    if basis and draw(st.booleans()):
        return str(draw(st.integers(0, dim - 1)))
    vec = rng.random(dim) + 0.1
    vec[draw(st.integers(0, dim - 1))] *= -1 if signed else 1
    return vec / np.linalg.norm(vec)


@st.composite
def occupancy_runs(draw):
    """A scheme whose factors mix basis states, ``"+"``, ``"pair"`` and, in a signed
    scheme, real vectors with a negative entry, in one of three layouts.

    * ``qubits``: the six two-level subsystems of ``KINDS`` and no path, with elements
      that name no port.
    * ``chunks``: 7-9 idle qubits, most significant, so the path rows have 1-4 chunks of
      columns and the idle qubits' states pick the chunks the occupied columns meet; then
      the seven subsystems of ``KINDS``, the path never last.
    * ``merged``: the path and an idle path of ``2 * CHUNK + 1`` states, so the second
      and last chunk has ``CHUNK + 1`` columns; every port holds amplitude.
    * ``mesh``: a photon in one port of a 4- or 8-port path, fanned out by a Hadamard
      mesh to cavities on distinct ports, each with its own atom, then recombined by
      random splitters, phase shifters and reroutes.  Two atoms lead 10 or 6 idle
      qubits, so the path rows have 4 chunks of columns picked by those two atoms.

    Every zero of the initial product is +0.0, whatever the factors' signs; a left-out
    element keeps a zero's sign (see ``test_left_out_elements_change_no_value``).
    """
    layout = draw(st.sampled_from(("qubits", "chunks", "merged", "mesh")))
    signed = draw(st.booleans())
    dpath = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "mesh":
        return draw(cavity_meshes(signed))
    if layout == "merged":
        register = Register(
            [Subsystem("path", KIND_PATH, dpath), Subsystem("idle", KIND_PATH, 2 * CHUNK + 1)]
        )
        initial = [
            (("path",), path_factor(draw, rng, dpath, signed, basis=False)),
            (("idle",), path_factor(draw, rng, 2 * CHUNK + 1, signed)),
        ]
        items = [
            item
            for item in draw(st.lists(any_element(dpath), max_size=6))
            if isinstance(item, (el.BS, el.PhaseShifter, el.Reroute))
        ]
        return dataclasses.replace(bare_scheme(register, [1.0], items), initial=tuple(initial))
    labels = [label for label in draw(st.permutations(tuple(KINDS))) if label != "path"]
    subs = []
    if layout == "chunks":
        subs = [Subsystem(f"q{i}", KIND_ATOM_LR) for i in range(draw(st.integers(7, 9)))]
        labels.insert(draw(st.integers(0, len(labels) - 1)), "path")
    subs += [Subsystem(label, KINDS[label], dpath if label == "path" else 2) for label in labels]
    states = ("basis", "basis", "+", "pair") + (("negative",) if signed else ())
    initial, at = [], 0
    while at < len(subs):
        sub = subs[at]
        choice = draw(st.sampled_from(states))
        if sub.kind == KIND_PATH:
            initial.append(((sub.label,), path_factor(draw, rng, dpath, signed)))
        elif choice == "pair" and at + 1 < len(subs) and subs[at + 1].dim == 2:
            initial.append(((sub.label, subs[at + 1].label), "pair"))
            at += 1
        elif choice == "negative":
            initial.append(((sub.label,), np.array([0.6, -0.8])[:: draw(st.sampled_from((1, -1)))]))
        elif choice == "+":
            initial.append(((sub.label,), "+"))
        else:
            initial.append(((sub.label,), draw(st.sampled_from(sub.basis_labels))))
        at += 1
    items = draw(st.lists(any_element(dpath, path=layout == "chunks"), max_size=8))
    return dataclasses.replace(bare_scheme(Register(subs), [1.0], items), initial=tuple(initial))


@st.composite
def cavity_meshes(draw, signed):
    """The ``mesh`` layout of ``occupancy_runs``: the atoms start in basis states or ``"+"``,
    or, if ``signed``, some in a real vector with a negative entry."""
    ports = draw(st.sampled_from((4, 8)))
    atoms = [Subsystem(f"a{k}", KIND_ATOM_LR) for k in range(ports)]
    idle = [Subsystem(f"q{i}", KIND_ATOM_LR) for i in range(14 - ports)]
    path = Subsystem("path", KIND_PATH, ports)
    subs = atoms[:2] + idle + atoms[2:] + [Subsystem("pol", KIND_POL)]
    subs.insert(draw(st.integers(0, len(subs))), path)
    states = ("L", "R", "+") + (("negative",) if signed else ())
    initial = []
    for sub in subs:
        if sub is path:
            state = str(draw(st.integers(0, ports - 1)))
        elif sub in atoms:
            state = draw(st.sampled_from(states))
        else:
            state = draw(st.sampled_from(("L", "R", "+")))
        initial.append(((sub.label,), np.array([0.6, -0.8]) if state == "negative" else state))
    order = draw(st.permutations(range(ports)))[: draw(st.integers(1, ports))]
    cavities = [el.CavityAtomBlock(f"a{k}", port) for k, port in enumerate(order)]
    port = st.integers(0, ports - 1)
    two_ports = st.lists(port, min_size=2, max_size=2, unique=True).map(tuple)
    mixer = st.one_of(
        st.builds(el.BS, st.floats(0.01, 0.99), two_ports),
        st.builds(el.PhaseShifter, port, st.floats(-np.pi, np.pi)),
        two_ports.map(lambda p: el.Reroute(*p)),
    )
    recombine = schemes._hadamard_mesh(range(ports)) if draw(st.booleans()) else []
    items = [
        *schemes._hadamard_mesh(range(ports)),
        *cavities,
        *draw(st.lists(mixer, max_size=4)),
        *recombine,
        *draw(st.lists(mixer, max_size=4)),
    ]
    return dataclasses.replace(bare_scheme(Register(subs), [1.0], items), initial=tuple(initial))


def mesh_with_the_path_last():
    """A ``mesh`` scheme whose path is the register's last subsystem (``--hypothesis-seed=31``).

    A path slice of the register-order buffer is then strided, and the reference
    multiplies its phase shifters as such a view; ``_propagated`` multiplies contiguous
    chunks of its path-first rows.
    """
    atoms = [Subsystem(f"a{k}", KIND_ATOM_LR) for k in range(4)]
    idle = [Subsystem(f"q{i}", KIND_ATOM_LR) for i in range(10)]
    path = Subsystem("path", KIND_PATH, 4)
    register = Register(atoms[:2] + idle + atoms[2:] + [Subsystem("pol", KIND_POL), path])
    items = [el.BS(0.5, ports) for ports in [(0, 1), (2, 3), (0, 2), (1, 3)]]
    items += [el.CavityAtomBlock("a0", 0), el.PhaseShifter(0, 1.0), el.PhaseShifter(0, 1.0)]
    initial = tuple(((sub.label,), "0" if sub is path else "L") for sub in register.subsystems)
    return dataclasses.replace(bare_scheme(register, [1.0], items), initial=initial)


@settings(max_examples=150, deadline=None)
@given(occupancy_runs())
@example(mesh_with_the_path_last())
def test_occupancy_bounded_propagation_matches_the_whole_buffer_bit_for_bit(scheme):
    try:
        want = propagate_every_element(scheme)
    except InvalidConfigurationError as exc:
        with pytest.raises(InvalidConfigurationError) as info:
            schemes._propagated(scheme)
        assert str(info.value) == str(exc)
        return
    register = scheme.register
    got = schemes._propagated(scheme)
    assert_bit_equal(got, path_first(register, want))
    assert_bit_equal(got, path_first(register, reference_propagate(scheme)))


def spy_on_four_chunks(monkeypatch):
    """A list that gains, per ``qstate._rows_product`` call, whether each of 4 chunks is
    multiplied."""
    multiplied = []
    rows_product = qstate._rows_product

    def spy(rows, matrix, occupied=None):
        chunks = [slice(c * CHUNK, (c + 1) * CHUNK) for c in range(4)]
        multiplied.append([occupied is None or occupied[cols].any() for cols in chunks])
        rows_product(rows, matrix, occupied)

    monkeypatch.setattr(qstate, "_rows_product", spy)
    return multiplied


def four_chunk_scheme(states):
    """13 idle qubits lead a path of 2 ports, ``a1`` and ``pol``, each subsystem starting in
    its entry of ``states``: the path rows have 2**15 columns, 4 chunks, and the first two
    idle qubits' basis states pick the one chunk that holds amplitude."""
    idle = [Subsystem(f"q{i}", KIND_ATOM_LR) for i in range(13)]
    register = Register(
        idle
        + [Subsystem("path", KIND_PATH, 2), Subsystem("a1", KIND_ATOM_LR)]
        + [Subsystem("pol", KIND_POL)]
    )
    items = [
        el.BS(0.3, (0, 1)),
        el.PhaseShifter(1, 2.0),
        el.CavityAtomBlock("a1", 1),
        el.BS(0.5, (0, 1)),
    ]
    return dataclasses.replace(
        bare_scheme(register, [1.0], items),
        initial=tuple(((sub.label,), state) for sub, state in zip(register.subsystems, states)),
    )


@pytest.mark.parametrize("chunk", [0, 1, 3])
def test_path_rows_multiply_only_the_chunks_their_occupied_columns_meet(chunk, monkeypatch):
    scheme = four_chunk_scheme(["LR"[chunk >> 1], "LR"[chunk & 1]] + ["+"] * 12 + ["L", "L"])
    multiplied = spy_on_four_chunks(monkeypatch)
    got = schemes._propagated(scheme)
    assert multiplied == [[c == chunk for c in range(4)]] * 3
    assert_bit_equal(got, path_first(scheme.register, propagate_every_element(scheme)))
    assert_bit_equal(got, path_first(scheme.register, reference_propagate(scheme)))


def test_a_signed_factor_bounds_the_chunks_as_a_sign_free_one_does(monkeypatch):
    # the other idle qubits in basis states too, and a1 in 0.6|L> - 0.8|R>
    scheme = four_chunk_scheme(["L", "R"] + ["L"] * 11 + ["+", np.array([0.6, -0.8]), "L"])
    multiplied = spy_on_four_chunks(monkeypatch)
    got = schemes._propagated(scheme)
    assert multiplied == [[c == 1 for c in range(4)]] * 3
    assert_bit_equal(got, path_first(scheme.register, propagate_every_element(scheme)))
    assert_bit_equal(got, path_first(scheme.register, reference_propagate(scheme)))


def assert_boxes_hold_every_nonzero(scheme):
    """Every nonzero amplitude lies inside its port's boxes, before each step the plan keeps
    and after the last; a port the plan holds empty holds only zeros.

    The kept elements act on the whole buffer, so the bound is checked against the state
    itself.  Steps appended after the last element read the final boxes: a phase shifter
    of phase 0 on each port, or a pi pulse on the first subsystem of a register without a
    path.
    """
    register = scheme.register
    lead = schemes._path_first(register)
    if "path" in register.labels:
        probes = [el.PhaseShifter(port, 0.0) for port in range(register.subsystem("path").dim)]
    else:
        probes = [el.ExternalPiPulse(register.labels[0])]
    _, steps = schemes._plan(scheme, scheme.elements + tuple(probes), lead.position)
    tensor = schemes._propagated(scheme, upto=0).reshape(lead.dims).copy()
    ports = tensor if "path" in register.labels else tensor[None]
    for index, _, op, _, occupied in steps:
        assert occupied is not None and set(occupied) <= set(range(len(ports)))
        for port, rows in enumerate(ports):
            inside = np.zeros(rows.shape, dtype=bool)
            for box in occupied.get(port, ()):
                inside[tuple(slice(*span) for span in box[-rows.ndim :])] = True
            assert not rows[~inside].any()
        if index >= len(scheme.elements):
            return
        schemes._apply_op(tensor, lead.position, op)
    raise AssertionError("no probe step was kept")


@pytest.mark.parametrize("name", BUILDERS)
def test_every_builders_amplitudes_lie_inside_their_ports_boxes(name):
    assert_boxes_hold_every_nonzero(BUILDERS[name]())


def test_a_path_sharing_a_factor_may_fill_each_of_its_ports():
    register = Register([Subsystem("path", KIND_PATH, 3), Subsystem("a1", KIND_ATOM_LR)])
    amps = np.zeros(6)
    amps[[0, 5]] = SQ2  # (|0, L> + |2, R>) / sqrt(2), one factor over both
    items = [el.BS(0.5, (0, 1)), el.PhaseShifter(2, 0.3), el.ExternalPiPulse("a1")]
    assert_boxes_hold_every_nonzero(bare_scheme(register, amps, items))


@settings(max_examples=100, deadline=None)
@given(occupancy_runs())
def test_every_amplitude_lies_inside_its_ports_boxes(scheme):
    assert_boxes_hold_every_nonzero(scheme)


@pytest.mark.parametrize("port", [0, 1, None])
def test_a_guard_reads_its_sector_within_the_boxes_as_the_whole_buffer_would(port):
    # after the first pi block only port 1 holds |e> with field f2 in |1>: the doubly
    # excited sector of (fly, f2) is populated there and nowhere else
    register = Register(
        [
            Subsystem("f1", KIND_FIELD),
            Subsystem("path", KIND_PATH, 2),
            Subsystem("fly", KIND_ATOM_GE),
            Subsystem("f2", KIND_FIELD),
        ]
    )
    items = [el.FieldPiBlock("fly", "f1", 1), el.FieldPiBlock("fly", "f2", port)]
    scheme = dataclasses.replace(
        bare_scheme(register, [1.0], items, name="guarded"),
        initial=((("f1",), "1"), (("path",), "+"), (("fly",), "g"), (("f2",), "1")),
    )
    _, steps = schemes._plan(scheme, items, schemes._path_first(register).position)
    # path-first axes (path, f1, fly, f2): the first pi block widened port 1 on f1 and fly
    assert steps[1][4] == {
        0: (((0, 2), (1, 2), (0, 1), (1, 2)),),
        1: (((0, 2), (0, 2), (0, 2), (1, 2)),),
    }
    try:
        want = propagate_every_element(scheme)
    except InvalidConfigurationError as exc:
        assert port != 0
        with pytest.raises(InvalidConfigurationError) as info:
            schemes._propagated(scheme)
        assert str(info.value) == str(exc) == (
            "scheme 'guarded', element 1 (FieldPiBlock): resonant pi block reached with "
            "population in the doubly excited |e,1> sector of (fly, f2)"
        )
        return
    assert port == 0
    assert_bit_equal(schemes._propagated(scheme), path_first(register, want))


def test_the_second_mesh_of_w16_multiplies_92_chunks(monkeypatch):
    # 16 ports, 17 qubits: the path rows have 2**17 columns, 16 chunks picked by atoms
    # 1-4.  After its cavity a port's amplitude is its own atom's and the photon's, in
    # chunk 0 and, for atoms 1-4, one more; each splitter of the second mesh multiplies
    # the chunks of the boxes of its two ports (a range per subsystem shared by every
    # port spans all 16 chunks there, 512 in all)
    scheme = schemes.build_w_pow2(16)
    chunks = []
    rows_product = qstate._rows_product

    def spy(rows, matrix, occupied=None):
        starts = range(0, rows.shape[1], CHUNK)
        chunks.append(sum(occupied is None or occupied[c : c + CHUNK].any() for c in starts))
        rows_product(rows, matrix, occupied)

    monkeypatch.setattr(qstate, "_rows_product", spy)
    got = schemes._propagated(scheme)
    assert len(chunks) == 15 + 32  # 17 splitters of the first mesh meet only empty ports
    assert chunks[:15] == [1] * 15 and sum(chunks[15:]) == 92
    monkeypatch.undo()
    assert_bit_equal(got, path_first(scheme.register, propagate_every_element(scheme)))


def count_blocks(monkeypatch):
    """A list that gains one entry per ``qstate._Block`` made while the patch holds."""
    made = []
    init = qstate._Block.__init__
    monkeypatch.setattr(qstate._Block, "__init__", lambda *a: made.append(1) or init(*a))
    return made


def test_a_plan_makes_one_block_per_distinct_splitter_matrix(monkeypatch):
    scheme = schemes.build_w_pow2(16)
    axis_of = schemes._path_first(scheme.register).position
    splitters = [item for item in scheme.elements if isinstance(item, el.BS)]
    assert len(splitters) == 64 and len({item.reflectivity for item in splitters}) == 1
    made = count_blocks(monkeypatch)
    _, steps = schemes._plan(scheme, scheme.elements, axis_of)
    assert made == [1, 1]  # 64 splitters of one reflectivity, and 16 cavities
    assert len({id(op.block) for _, item, op, _, _ in steps if isinstance(item, el.BS)}) == 1
    schemes._plan(scheme, scheme.elements, axis_of)
    assert made == [1] * 4  # the blocks live in one plan only


def test_a_reroute_a_rotator_and_a_pi_pulse_share_one_swap_block(monkeypatch):
    register = Register(
        [Subsystem("path", KIND_PATH, 2), Subsystem("pol", KIND_POL), Subsystem("fly", KIND_ATOM_GE)]
    )
    items = [el.Reroute(0, 1), el.PR(1), el.ExternalPiPulse("fly"), el.Reroute(1, 0)]
    made = count_blocks(monkeypatch)
    _, steps = schemes._plan(photon_scheme(register, 0, items), items, register.position)
    assert len(made) == 1 and len(steps) == 4
    assert len({id(op.block) for _, _, op, _, _ in steps}) == 1


def test_a_plan_makes_one_block_per_distinct_phase(monkeypatch):
    register = Register([Subsystem("path", KIND_PATH, 3)])
    items = [el.BS(0.5, (0, 1)), el.BS(0.25, (1, 2))]
    items += [el.PhaseShifter(port, phase) for port, phase in [(0, 0.5), (1, 0.5), (2, 1.0)]]
    items += [el.BS(0.5, (0, 2))]
    made = count_blocks(monkeypatch)
    _, steps = schemes._plan(photon_scheme(register, 0, items), items, register.position)
    assert len(made) == 4
    blocks = [op.block for _, _, op, _, _ in steps]
    assert len(blocks) == 6 and blocks[2] is blocks[3] and blocks[0] is blocks[5]
    assert len({id(block) for block in blocks}) == 4


def test_a_factor_the_product_refuses_is_refused_as_before():
    # the plan reads every factor for its spans; a factor it cannot read is left to the product
    register = Register([Subsystem("a1", KIND_ATOM_LR), Subsystem("path", KIND_PATH, 3)])
    scheme = photon_scheme(register, 0, [el.BS(0.5, (0, 1))])
    for factor, error, message in [
        (np.ones(3), ShapeError, r"^factor over \('a1',\) has length 3, expected 2$"),
        (np.zeros(2), ContractViolationError, r"^state norm 0\.0 deviates from 1"),
    ]:
        bad = dataclasses.replace(scheme, initial=((("a1",), factor),) + scheme.initial[1:])
        with pytest.raises(error, match=message):
            schemes.propagate(bad)
