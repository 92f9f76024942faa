"""Slab moves and the in-place projection against the routes they replaced.

``gemm_apply_op`` applies every block as a matrix product: the path slices
an op names are stacked, multiplied and written back one by one.
``support.reference_project_out`` takes the slab with ``np.take``, sums its
probability as ``np.sum(np.abs(slab) ** 2)`` and builds the post register
fresh, and ``support.reference_apply`` applies each correction op through
``apply_unitary``.  With all three patched in, :func:`schemes.run` is the
GEMM pipeline; it agrees bit for bit with the slab pipeline on every
builder, and the projection agrees bit for bit with its oracle on random
registers and amplitudes.  On random blocks and states the two kernels
agree in value; a matrix product may give a zero the other sign, and a
dense block may round differently when its ports are gathered into a copy
first.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavnet import elements as el
from cavnet import qstate, schemes, verify
from cavnet.errors import ContractViolationError, ShapeError
from cavnet.qstate import (
    KIND_ATOM_GE,
    KIND_ATOM_LR,
    KIND_FIELD,
    KIND_PATH,
    KIND_POL,
    PureState,
    Register,
    Subsystem,
    apply_unitary,
)
from cavnet.verify import Graph, LocalCorrection
from support import reference_apply, reference_project_out, sector_mass


def gemm_apply_op(tensor, axis_of, op, occupied=None):
    """``op`` applied in place as one matrix product over its stacked path slices.

    ``occupied`` is ignored: every op acts on the whole tensor.
    """
    ports = op.ports or ()
    axes = [axis_of(label) for label in op.targets]
    views = [tensor]
    if ports:
        path = axis_of(schemes.PATH)
        views = [tensor[(slice(None),) * path + (p,)] for p in ports]
        axes = [a - (a > path) for a in axes]
    if len(views) == 1:
        views[0][...] = qstate._block_product(views[0], axes, op.block.matrix)
        return
    mixed = qstate._block_product(np.stack(views), [0] + [a + 1 for a in axes], op.block.matrix)
    for view, new in zip(views, mixed):
        view[...] = new


def assert_bit_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


BUILDERS = {
    "ghz-atoms4": lambda: schemes.build_ghz_atoms(4),
    "ghz-atoms6": lambda: schemes.build_ghz_atoms(6),
    "w4": lambda: schemes.build_w_pow2(4),
    "w8": lambda: schemes.build_w_pow2(8),
    "w3-prob": schemes.build_w3_probabilistic,
    "w3-det": schemes.build_w3_deterministic,
    "cluster3": lambda: schemes.build_cluster_atoms(3),
    "cluster6": lambda: schemes.build_cluster_atoms(6),
    "ghz-fields4": lambda: schemes.build_ghz_fields(4),
    "ghz-fields8": lambda: schemes.build_ghz_fields(8),
    "field-cz": schemes.build_field_cz_pair,
    "ring5": lambda: schemes.build_field_graph("ring", 5),
    "star4": lambda: schemes.build_field_graph("star", 4),
    "linear5": lambda: schemes.build_field_graph("linear", 5),
    "custom6": lambda: schemes.build_field_graph(
        graph=Graph(6, [(0, 1), (1, 2), (0, 3), (3, 4), (4, 5), (2, 5), (1, 4)])
    ),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_run_matches_the_gemm_pipeline_bit_for_bit(name, monkeypatch):
    scheme = BUILDERS[name]()
    state = schemes.propagate(scheme)
    reports = schemes.run(scheme)

    monkeypatch.setattr(schemes, "_apply_op", gemm_apply_op)
    monkeypatch.setattr(qstate, "project_out", reference_project_out)
    monkeypatch.setattr(verify.LocalCorrection, "apply", reference_apply)
    assert_bit_equal(state.amplitudes, schemes.propagate(scheme).amplitudes)
    expected = schemes.run(scheme)

    assert len(reports) == len(expected)
    for got, want in zip(reports, expected):
        assert got.detector_id == want.detector_id
        assert got.probability == want.probability
        assert got.fidelity_vs_target == want.fidelity_vs_target
        for a, b in ((got.post_state, want.post_state), (got.corrected_state, want.corrected_state)):
            assert (a is None) == (b is None)
            if a is not None:
                assert_bit_equal(a.amplitudes, b.amplitudes)


def test_slab_cycles_accept_signed_permutations_only():
    cycles = qstate._slab_cycles
    assert cycles(np.eye(3)) == ()
    assert cycles(np.diag([1.0, -1.0])) == (((1, 1, True),),)
    # out_0 = in_1, out_1 = -in_2, out_2 = in_0: one 3-cycle
    three = np.array([[0, 1, 0], [0, 0, -1], [1, 0, 0]], dtype=complex)
    assert cycles(three) == (((0, 1, False), (1, 2, True), (2, 0, False)),)
    assert cycles(np.array([[0, 1j], [1, 0]])) is None  # a phase that is not a sign
    assert cycles(np.array([[1, 1], [1, -1]]) / np.sqrt(2)) is None
    assert cycles(np.array([[-1 + 1e-16j]])) is None
    assert cycles(np.array([[np.nan]])) is None
    assert cycles(np.array([[1, 0], [1, 0]])) is None  # two rows read one column


KINDS = (KIND_ATOM_LR, KIND_ATOM_GE, KIND_FIELD, KIND_POL)


@st.composite
def ops_on_registers(draw):
    """A register with the path anywhere or absent, an op on it, and a state.

    The op's block is a random signed permutation or a random unitary over
    up to two ports of a path of dim 2-4 and up to two two-level targets.
    """
    n = draw(st.integers(1, 4))
    subs = [Subsystem(f"s{i}", draw(st.sampled_from(KINDS))) for i in range(n)]
    ports = None
    if draw(st.booleans()):
        dpath = draw(st.integers(2, 4))
        subs.insert(draw(st.integers(0, n)), Subsystem(schemes.PATH, KIND_PATH, dpath))
        count = draw(st.integers(0, 2))
        if count:
            ports = tuple(draw(st.permutations(range(dpath)))[:count])
    labels = [s.label for s in subs if s.kind != KIND_PATH]
    targets = tuple(draw(st.permutations(labels))[: draw(st.integers(0, min(2, len(labels))))])
    joint = len(ports or (0,)) * 2 ** len(targets)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        perm = draw(st.permutations(range(joint)))
        signs = draw(st.lists(st.sampled_from((1.0, -1.0)), min_size=joint, max_size=joint))
        block = np.zeros((joint, joint), dtype=complex)
        block[np.arange(joint), perm] = signs
    else:
        q, r = np.linalg.qr(rng.normal(size=(joint,) * 2) + 1j * rng.normal(size=(joint,) * 2))
        block = q * (np.diag(r) / np.abs(np.diag(r)))
    register = Register(subs)
    psi = rng.normal(size=register.dims) + 1j * rng.normal(size=register.dims)
    psi[rng.random(register.dims) < 0.3] = draw(st.sampled_from((0.0, -0.0, complex(-0.0, -0.0))))
    op = schemes._Op(targets, qstate._Block(block, el.ELEMENT_UNITARY_ATOL), ports)
    return register, op, psi


@settings(max_examples=300, deadline=None)
@given(ops_on_registers())
def test_apply_op_matches_the_gemm_route(case):
    register, op, psi = case
    got, want = psi.copy(), psi.copy()
    schemes._apply_op(got, register.position, op)
    gemm_apply_op(want, register.position, op)
    if op.block.cycles is not None:
        assert np.array_equal(got, want)
        assert not np.signbit(got[(got == 0) & (psi != 0)].view(np.float64)).any()
    else:
        assert np.abs(got - want).max() < 1e-14


def test_three_cycle_over_two_ports_and_a_qubit():
    register = Register([Subsystem("q", KIND_ATOM_LR), Subsystem("path", KIND_PATH, 3)])
    psi = np.arange(1, 7, dtype=complex).reshape(2, 3)  # (q, path)
    # joint basis (port, q) over ports (2, 0): |2,L> takes |2,R>, |2,R> takes -|0,L>,
    # and |0,L> takes |2,L>; port 0 with q = R is a fixed point
    block = np.eye(4, dtype=complex)
    block[:3, :3] = [[0, 1, 0], [0, 0, -1], [1, 0, 0]]
    got = psi.copy()
    op = schemes._Op(("q",), qstate._Block(block, el.ELEMENT_UNITARY_ATOL), (2, 0))
    schemes._apply_op(got, register.position, op)
    want = psi.copy()
    want[0, 2], want[1, 2], want[0, 0] = psi[1, 2], -psi[0, 0], psi[0, 2]
    assert np.array_equal(got, want)


# a 2x2 matrix whose unitarity defect is 1e-10: between the two tolerances
NEAR_UNITARY = np.diag([1.0, np.sqrt(1.0 + 1e-10)])


def test_block_tolerance_is_the_callers(monkeypatch):
    with pytest.raises(ContractViolationError, match="not unitary"):
        qstate._Block(NEAR_UNITARY, el.ELEMENT_UNITARY_ATOL)
    monkeypatch.setattr(el, "bs_unitary", lambda reflectivity: NEAR_UNITARY)
    with pytest.raises(ContractViolationError, match="not unitary"):
        schemes.propagate(schemes.build_cluster_atoms(1))

    state = PureState(Register([Subsystem("q", KIND_ATOM_LR)]), [1.0, 0.0])
    assert np.array_equal(apply_unitary(state, ["q"], NEAR_UNITARY).amplitudes, [1.0, 0.0])
    with pytest.raises(ContractViolationError, match="not unitary"):
        apply_unitary(state, ["q"], np.diag([1.0, 1.0 + 1e-8]))


def test_a_block_of_the_wrong_size_is_refused_by_the_kernel():
    register = Register([Subsystem("q", KIND_ATOM_LR), Subsystem("path", KIND_PATH, 3)])
    psi = np.ones(register.dims, dtype=complex)
    swap = qstate._Block([[0.0, 1.0], [1.0, 0.0]], el.ELEMENT_UNITARY_ATOL)
    with pytest.raises(ShapeError, match="joint target dim 4"):  # two ports and q
        schemes._apply_op(psi, register.position, schemes._Op(("q",), swap, (0, 1)))
    with pytest.raises(ShapeError, match="joint target dim 3"):
        schemes._apply_op(psi, register.position, schemes._Op(("path",), swap))
    assert (psi == 1).all()
    state = PureState(register, psi.reshape(-1) / np.sqrt(6))
    for op in ("X", "Z", ("phase", 0.3)):
        with pytest.raises(ShapeError, match="joint target dim 3"):
            LocalCorrection((("path", op),)).apply(state)


# finite values a projection must carry bit for bit: signed zeros, subnormals, normals
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 0.5, -1.25)


@st.composite
def projections(draw):
    """A register of 2-6 subsystems with a path, a state on it, a target and an outcome.

    The amplitudes mix signed zeros, subnormals and normal values; the
    target's outcome slab is scaled by a factor that may leave its mass at
    or below ``PROJECT_EPS``.
    """
    n = draw(st.integers(2, 6))
    subs = [Subsystem(f"s{i}", draw(st.sampled_from(KINDS))) for i in range(n - 1)]
    path = Subsystem("path", KIND_PATH, draw(st.integers(2, 4)))
    subs.insert(draw(st.integers(0, n - 1)), path)
    register = Register(subs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.normal(size=register.dims) + 1j * rng.normal(size=register.dims)
    special = np.array(SPECIAL)
    for part in (psi.real, psi.imag):
        mask = rng.random(register.dims) < draw(st.sampled_from((0.0, 0.3, 0.9)))
        part[mask] = special[rng.integers(len(special), size=int(mask.sum()))]
    pos = draw(st.integers(0, n - 1))
    idx = draw(st.integers(0, register.dims[pos] - 1))
    slab = psi[(slice(None),) * pos + (idx,)]
    slab *= draw(st.sampled_from((1.0, 1e-5, 1e-6, 1e-7, 0.0)))
    norm = np.linalg.norm(psi)
    if not norm:
        psi.flat[0] = 1.0
        norm = 1.0
    state = PureState(register, (psi / norm).reshape(-1))
    return state, register.labels[pos], register.subsystems[pos].basis_labels[idx]


@settings(max_examples=400, deadline=None)
@given(projections())
def test_project_out_matches_the_oracle_bit_for_bit(case):
    state, target, outcome = case
    prob, post = qstate.project_out(state, target, outcome)
    want_prob, want = reference_project_out(state, target, outcome)
    assert prob.hex() == want_prob.hex()
    assert qstate.projection_probability(state, target, outcome).hex() == want_prob.hex()
    sector = sector_mass(
        state.tensor_view(), state.register, state.register.position, {target: outcome}
    )
    assert sector.hex() == want_prob.hex()
    if prob <= qstate.PROJECT_EPS:
        assert post is None and want is None
        return
    assert post.register == want.register and post.register.dims == want.register.dims
    assert_bit_equal(post.amplitudes, want.amplitudes)


@st.composite
def leading_axis_blocks(draw):
    """A path-first tensor, a view of 2-4 of its leading slabs, and a random dense block.

    The leading dim is 2-17 and the trailing size is small or within two
    of a multiple of the chunk; the amplitudes mix in signed zeros.
    """
    lead = draw(st.integers(2, 17))
    k = draw(st.integers(2, min(4, lead)))
    step = draw(st.integers(1, (lead - 1) // (k - 1)))
    start = draw(st.integers(0, lead - 1 - (k - 1) * step))
    rows = slice(start, start + (k - 1) * step + 1, step)
    if draw(st.booleans()):  # the ports in the other order, as _port_slice gives (2, 0)
        rows = slice(rows.stop - 1, start - 1 if start else None, -step)
    chunk = qstate._CHUNK_COLUMNS
    cols = draw(
        st.integers(1, 40)
        | st.builds(lambda m, r: m * chunk + r, st.integers(1, 3), st.integers(-2, 2))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, r = np.linalg.qr(rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k)))
    block = qstate._Block(q * (np.diag(r) / np.abs(np.diag(r))), el.ELEMENT_UNITARY_ATOL)
    psi = rng.normal(size=(lead, cols)) + 1j * rng.normal(size=(lead, cols))
    psi[rng.random(psi.shape) < 0.3] = draw(st.sampled_from((0.0, -0.0, complex(-0.0, -0.0))))
    return psi, rows, block


@settings(max_examples=100, deadline=None)
@given(leading_axis_blocks())
def test_chunked_splitter_product_matches_one_product_bit_for_bit(case):
    psi, rows, block = case
    got, want = psi.copy(), psi.copy()
    assert got[rows][0].flags.c_contiguous  # so _apply_block multiplies in chunks
    qstate._apply_block(got[rows], [0], block)
    view = want[rows]
    view[...] = qstate._block_product(view, [0], block.matrix)
    assert_bit_equal(got, want)


@pytest.mark.parametrize("name", BUILDERS)
def test_a_left_out_step_finds_only_zeros_on_its_ports(name):
    scheme = BUILDERS[name]()
    register = scheme.register
    _, steps = schemes._plan(scheme, scheme.elements, register.position)
    kept = {index for index, *_ in steps}
    left_out = [
        (index, item)
        for index, item in enumerate(scheme.elements)
        if not isinstance(item, el.Detector) and index not in kept
    ]
    assert bool(left_out) == (name in ("w4", "w8", "w3-prob"))
    for index, item in left_out:
        before = schemes.propagate(scheme, upto=index).tensor_view()
        ports = list(schemes._resolve(register, register.position, item, {})[0].ports)
        assert not np.take(before, ports, axis=register.position(schemes.PATH)).any()
