"""``LocalCorrection.apply`` against the ``apply_unitary`` loop it replaced.

``support.reference_apply`` is that loop: one full-state matrix product per
non-identity op.  ``apply`` negates and swaps slabs for ``Z`` and ``X``
instead, and multiplies phase ops into its one copy of the state.  The two
agree in value on every input, and bit for bit, zero signs included, on
every builder's outcomes.  On inputs that hold
``-0.0`` the BLAS product's zero signs depend on its kernel and on the
call shape, so there only values are compared.  A layer of ``X`` and ``Z``
only is made in one flipped copy; ``slab_route``, the op-by-op route a
layer with a phase op takes, holds it to the same bits.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cavnet import qstate, schemes, verify
from cavnet.errors import (
    ContractViolationError,
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
    PureState,
    Register,
    Subsystem,
)
from cavnet.verify import LocalCorrection
from support import PAULI, assert_bit_equal, product_state, reference_apply

TWO_LEVEL_KINDS = (KIND_ATOM_LR, KIND_ATOM_GE, KIND_FIELD, KIND_POL)


component = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.floats(-1.0, 1.0, allow_subnormal=True),
)
op_strategy = st.one_of(
    st.sampled_from(["I", "X", "Z"]),
    st.tuples(st.just("phase"), st.floats(-7.0, 7.0)),
)


@st.composite
def registers_and_states(draw):
    subs = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(TWO_LEVEL_KINDS + (KIND_PATH,)))
        dim = draw(st.integers(2, 3)) if kind == KIND_PATH else 2
        subs.append(Subsystem(f"s{i}", kind, dim))
    register = Register(subs)
    size = 2 * register.total_dim
    parts = draw(st.lists(component, min_size=size, max_size=size))
    vec = np.array(parts[0::2]) + 1j * np.array(parts[1::2])
    norm = np.linalg.norm(vec)
    assume(norm > 1e-150)
    return register, PureState(register, vec / norm)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_apply_matches_apply_unitary_loop(data):
    register, state = data.draw(registers_and_states())
    qubits = [s.label for s in register.subsystems if s.dim == 2]
    assume(qubits)
    ops = data.draw(
        st.lists(st.tuples(st.sampled_from(qubits), op_strategy), max_size=8)
    )
    before = state.amplitudes.tobytes()
    correction = LocalCorrection(tuple(ops))

    got = correction.apply(state)
    ref = reference_apply(correction, state)

    assert got.register == register
    assert np.array_equal(got.amplitudes, ref.amplitudes)
    assert not got.amplitudes.flags.writeable
    assert state.amplitudes.tobytes() == before
    if all(op == "I" for _, op in ops):
        assert got is state


BUILDERS = {
    "ghz-atoms4": lambda: schemes.build_ghz_atoms(4),
    "ghz-atoms6": lambda: schemes.build_ghz_atoms(6),
    "w4": lambda: schemes.build_w_pow2(4),
    "w8": lambda: schemes.build_w_pow2(8),
    "w3-prob": schemes.build_w3_probabilistic,
    "w3-det": schemes.build_w3_deterministic,
    "cluster3": lambda: schemes.build_cluster_atoms(3),
    "ghz-fields4": lambda: schemes.build_ghz_fields(4),
    "ghz-fields6": lambda: schemes.build_ghz_fields(6),
    "field-cz": schemes.build_field_cz_pair,
    "ring4": lambda: schemes.build_field_graph("ring", 4),
    "star4": lambda: schemes.build_field_graph("star", 4),
    "linear5": lambda: schemes.build_field_graph("linear", 5),
}


@pytest.mark.parametrize("name", BUILDERS)
def test_builder_outcomes_match_apply_unitary_loop_bit_for_bit(name):
    reports = schemes.run(BUILDERS[name]())
    corrected = [r for r in reports if r.corrected_state is not None]
    assert corrected
    for report in corrected:
        ref = reference_apply(report.correction, report.post_state)
        assert_bit_equal(report.corrected_state.amplitudes, ref.amplitudes)


def test_phase_corrections_do_not_call_apply_unitary(monkeypatch):
    reports = schemes.run(schemes.build_w3_deterministic())
    expected = [reference_apply(r.correction, r.post_state).amplitudes for r in reports]
    assert sum(bool(r.correction.ops) for r in reports) == 2  # D2 and D3 carry phases

    def refuse(*args, **kwargs):
        raise AssertionError("apply_unitary called")

    monkeypatch.setattr(verify, "apply_unitary", refuse)
    monkeypatch.setattr(qstate, "apply_unitary", refuse)
    rerun = schemes.run(schemes.build_w3_deterministic())
    assert len(rerun) == len(expected)
    for report, ref in zip(rerun, expected):
        assert_bit_equal(report.corrected_state.amplitudes, ref)


def test_pauli_ops_are_exact_sign_and_axis_flips():
    register = Register([Subsystem("a", KIND_ATOM_LR), Subsystem("f", KIND_FIELD)])
    vec = np.array([0.1, 0.2j, -0.3, 0.4 + 0.5j])
    state = PureState(register, vec / np.linalg.norm(vec))
    tensor = state.amplitudes.reshape(2, 2)
    z_f = LocalCorrection((("f", "Z"),)).apply(state).amplitudes.reshape(2, 2)
    assert np.array_equal(z_f, tensor * [1, -1])
    x_a = LocalCorrection((("a", "X"),)).apply(state).amplitudes.reshape(2, 2)
    assert np.array_equal(x_a, tensor[::-1])
    # X then Z on one qubit is ZX = iY
    xz = LocalCorrection((("a", "X"), ("a", "Z"))).apply(state).amplitudes.reshape(2, 2)
    assert np.array_equal(xz, tensor[::-1] * [[1], [-1]])


@pytest.mark.parametrize("ops", [(("q0", "Z"),), (("q1", "X"),), (("q0", "X"), ("q1", "Z"))])
def test_pauli_ops_leave_every_zero_positive(ops):
    register = Register([Subsystem("q0", KIND_ATOM_LR), Subsystem("q1", KIND_FIELD)])
    vec = np.array([complex(-0.0, 0.6), complex(0.8, -0.0), complex(-0.0, -0.0), 0.0])
    got = LocalCorrection(ops).apply(PureState(register, vec)).amplitudes.view(np.float64)
    assert not np.signbit(got[got == 0.0]).any()


def test_phase_ops_run_between_pauli_ops_in_order():
    register = Register([Subsystem("q0", KIND_ATOM_LR), Subsystem("q1", KIND_ATOM_LR)])
    state = product_state(register, ["L", "L"])
    ops = (("q0", "X"), ("q0", ("phase", np.pi / 2)), ("q0", "X"), ("q1", "Z"))
    got = LocalCorrection(ops).apply(state)
    # X puts q0 in |R>, the phase multiplies by i, X returns q0 to |L>
    assert got.amplitude(["L", "L"]) == pytest.approx(1j)
    assert np.array_equal(got.amplitudes, reference_apply(LocalCorrection(ops), state).amplitudes)


def test_apply_rejects_what_the_matrix_route_rejected():
    register = Register([Subsystem("q", KIND_ATOM_LR), Subsystem("path", KIND_PATH, 3)])
    state = product_state(register, ["L", 0])
    for op in ("X", "Z", ("phase", 0.3)):
        with pytest.raises(ShapeError):
            LocalCorrection((("path", op),)).apply(state)
    with pytest.raises(ContractViolationError):
        LocalCorrection((("q", ("phase", np.nan)),)).apply(state)
    with pytest.raises(InvalidLabelError):
        LocalCorrection((("nosuch", "Z"),)).apply(state)
    with pytest.raises(ParameterError, match="unknown correction op"):
        LocalCorrection((("q", "Y"),)).apply(state)


def slab_route(correction, state):
    """Amplitudes of every non-identity op applied in turn through ``qstate._apply_block`` on
    one copy, the route a layer holding a phase op takes."""
    register = state.register
    flat = state.amplitudes + 0.0
    for label, op in correction.ops:
        if op == "I":
            continue
        matrix = PAULI[op] if op in PAULI else np.diag([1.0, np.exp(1j * float(op[1]))])
        block = qstate._Block(matrix, qstate.UNITARY_ATOL)
        qstate._apply_block(flat.reshape(register.dims), [register.position(label)], block)
    return flat


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_a_pauli_layer_in_one_copy_matches_the_slab_route_bit_for_bit(data):
    register, state = data.draw(registers_and_states())
    qubits = [s.label for s in register.subsystems if s.dim == 2]
    assume(qubits)
    pauli = st.sampled_from(["I", "X", "Z"])
    ops = data.draw(st.lists(st.tuples(st.sampled_from(qubits), pauli), max_size=8))
    if data.draw(st.booleans()):  # a phase op sends the layer op by op
        at = data.draw(st.integers(0, len(ops)))
        phase = ("phase", data.draw(st.floats(-7.0, 7.0)))
        ops.insert(at, (data.draw(st.sampled_from(qubits)), phase))
    correction = LocalCorrection(tuple(ops))
    got = correction.apply(state)
    if all(op == "I" for _, op in ops):
        assert got is state
    elif any(op not in ("I", "X", "Z") for _, op in ops):
        # a phase layer runs slab_route's own loop, so check it against apply_unitary;
        # on a -0.0 input the signs of zeros may differ there (LocalCorrection's docstring)
        assert np.array_equal(got.amplitudes, reference_apply(correction, state).amplitudes)
    else:
        assert_bit_equal(got.amplitudes, slab_route(correction, state))


@pytest.mark.parametrize(
    "ops",
    [
        ("X", "Z"),
        ("Z", "X"),
        ("X", "X", "Z"),
        ("Z", "I", "Z", "X", "Z"),
        ("X", "Z", "X", "Z", "I", "X"),
    ],
)
@pytest.mark.parametrize("others", [0, 2])
def test_x_and_z_on_one_qubit_in_any_order_match_the_slab_route(ops, others):
    # with no other subsystem the |0> and |1> slabs are 0-d
    others = [Subsystem(f"o{i}", KIND_FIELD) for i in range(others)]
    register = Register([Subsystem("q", KIND_ATOM_LR), *others])
    rng = np.random.default_rng(len(ops) + len(others))
    vec = rng.normal(size=register.total_dim) + 1j * rng.normal(size=register.total_dim)
    vec[0] = complex(-0.0, 0.0)
    state = PureState(register, vec / np.linalg.norm(vec))
    correction = LocalCorrection(tuple(("q", op) for op in ops))
    got = correction.apply(state)
    assert_bit_equal(got.amplitudes, slab_route(correction, state))
    assert np.array_equal(got.amplitudes, reference_apply(correction, state).amplitudes)


def test_x_on_a_subsystem_that_is_not_two_level_is_refused_by_its_joint_dim():
    register = Register([Subsystem("q", KIND_ATOM_LR), Subsystem("path", KIND_PATH, 3)])
    state = product_state(register, ["L", 0])
    for ops in ((("path", "X"),), (("q", "Z"), ("path", "X")), (("q", "X"), ("path", "Z"))):
        message = r"^block shape \(2, 2\) does not match joint target dim 3$"
        with pytest.raises(ShapeError, match=message):
            LocalCorrection(ops).apply(state)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_pauli_only_layer_keeps_its_inputs_norm(data):
    register, state = data.draw(registers_and_states())
    qubits = [s.label for s in register.subsystems if s.dim == 2]
    assume(qubits)
    ops = data.draw(
        st.lists(st.tuples(st.sampled_from(qubits), st.sampled_from(["X", "Z"])), min_size=1)
    )
    got = LocalCorrection(tuple(ops)).apply(state)
    assert abs(got.norm - state.norm) <= 1e-12


def test_a_pauli_only_layer_reads_no_norm_and_a_phase_layer_checks_one(monkeypatch):
    register = Register([Subsystem("a", KIND_ATOM_LR), Subsystem("f", KIND_FIELD)])
    state = PureState(register, np.full(4, 0.5, dtype=complex))
    calls = []
    real = qstate._check_norm
    monkeypatch.setattr(qstate, "_check_norm", lambda amps: calls.append(1) or real(amps))
    got = LocalCorrection((("a", "X"), ("f", "Z"), ("a", "Z"))).apply(state)
    assert calls == [] and not got.amplitudes.flags.writeable
    assert got.register is register and got.amplitudes.shape == (4,)
    LocalCorrection((("a", "X"), ("f", ("phase", 0.5)))).apply(state)
    assert calls == [1]
