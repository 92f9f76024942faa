"""State-vector layer: registers, product states, unitaries, projections."""

import tracemalloc

import numpy as np
import pytest

from cavnet import qstate
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
    apply_unitary,
    from_factors,
    overlap,
    product_state,
    project,
    project_out,
    projection_probability,
)

SQ2 = np.sqrt(0.5)


def two_qubit_register():
    return Register(
        [Subsystem("a", KIND_ATOM_LR), Subsystem("b", KIND_ATOM_LR)]
    )


def test_subsystem_kinds_and_labels():
    assert Subsystem("x", KIND_ATOM_LR).basis_labels == ("L", "R")
    assert Subsystem("x", KIND_ATOM_GE).basis_labels == ("g", "e")
    assert Subsystem("x", KIND_FIELD).basis_labels == ("0", "1")
    assert Subsystem("x", KIND_POL).basis_labels == ("L", "R")
    assert Subsystem("x", KIND_PATH, dim=4).basis_labels == ("0", "1", "2", "3")


def test_subsystem_validation():
    with pytest.raises(ParameterError):
        Subsystem("x", "qutrit")
    with pytest.raises(ShapeError):
        Subsystem("x", KIND_ATOM_LR, dim=3)
    with pytest.raises(ParameterError):
        Subsystem("x", KIND_PATH, dim=1)


def test_subsystem_index_of():
    path = Subsystem("p", KIND_PATH, dim=3)
    assert path.index_of(2) == 2
    assert path.index_of("1") == 1
    with pytest.raises(InvalidLabelError):
        path.index_of(3)
    atom = Subsystem("a", KIND_ATOM_LR)
    assert atom.index_of("R") == 1
    with pytest.raises(InvalidLabelError):
        atom.index_of("g")


def test_register_rejects_duplicates_and_empty():
    with pytest.raises(ParameterError):
        Register([Subsystem("a", KIND_ATOM_LR), Subsystem("a", KIND_POL)])
    with pytest.raises(ParameterError):
        Register([])


def test_register_mixed_radix_first_most_significant():
    reg = Register(
        [
            Subsystem("a", KIND_ATOM_LR),
            Subsystem("p", KIND_PATH, dim=3),
            Subsystem("f", KIND_FIELD),
        ]
    )
    assert reg.dims == (2, 3, 2)
    assert reg.total_dim == 12
    # index = ((a*3) + p)*2 + f
    assert reg.index_of_labels(["R", 2, "1"]) == 11
    assert reg.index_of_labels(["L", 1, "0"]) == 2
    for idx in range(reg.total_dim):
        assert reg.index_of_labels(reg.labels_of_index(idx)) == idx


def test_register_without_preserves_order():
    reg = Register(
        [
            Subsystem("a", KIND_ATOM_LR),
            Subsystem("b", KIND_ATOM_LR),
            Subsystem("c", KIND_ATOM_LR),
        ]
    )
    assert reg.without("b").labels == ("a", "c")
    with pytest.raises(InvalidLabelError):
        reg.without("z")


@pytest.mark.parametrize("n", [62, 63, 64, 200])
def test_register_total_dim_is_exact_and_allocates_nothing(n):
    tracemalloc.start()
    try:
        register = Register(Subsystem(f"q{i}", KIND_FIELD) for i in range(n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert register.total_dim == 2**n
    assert register.dims == (2,) * n
    assert peak < 200_000


def test_product_state_places_single_amplitude():
    reg = two_qubit_register()
    st = product_state(reg, ["R", "L"])
    expect = np.zeros(4)
    expect[2] = 1.0
    assert np.array_equal(st.amplitudes, expect)
    assert st.amplitude(["R", "L"]) == 1.0 + 0.0j


def test_pure_state_norm_guard():
    reg = two_qubit_register()
    with pytest.raises(ContractViolationError):
        PureState(reg, np.array([1.0, 1.0, 0.0, 0.0]))
    # 1e-9 band is inclusive of tiny drift
    amps = np.array([1.0 + 5e-10, 0.0, 0.0, 0.0])
    PureState(reg, amps)


def test_pure_state_amplitudes_write_protected():
    st = product_state(two_qubit_register(), ["L", "L"])
    with pytest.raises(ValueError):
        st.amplitudes[0] = 0.0


def test_pure_state_copies_what_the_caller_can_still_write():
    reg = two_qubit_register()
    writable = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    st = PureState(reg, writable)
    writable[:] = [0.0, 1.0, 0.0, 0.0]
    assert st.amplitudes.tolist() == [1.0, 0.0, 0.0, 0.0]

    owner = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    view = owner[:]
    view.setflags(write=False)
    st = PureState(reg, view)
    owner[:] = [0.0, 1.0, 0.0, 0.0]
    assert st.amplitudes.tolist() == [1.0, 0.0, 0.0, 0.0]
    assert not st.amplitudes.flags.writeable


def test_pure_state_adopts_frozen_arrays_that_own_their_memory():
    fresh = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    fresh.setflags(write=False)
    assert PureState(two_qubit_register(), fresh).amplitudes is fresh
    prob, post = project_out(bell_state(), "a", "R")
    pair = from_factors(two_qubit_register(), [(("a", "b"), [SQ2, 0, 0, SQ2])])
    made = [post, pair, apply_unitary(pair, ["b"], np.eye(2))]
    for st in made:  # fresh results are adopted, not copied a second time
        assert st.amplitudes.base is None and not st.amplitudes.flags.writeable


def test_pure_state_shape_guard():
    with pytest.raises(ShapeError):
        PureState(two_qubit_register(), np.array([1.0, 0.0]))


def test_from_factors_bell_pair():
    reg = Register(
        [Subsystem("f", KIND_FIELD), Subsystem("a", KIND_ATOM_GE)]
    )
    st = from_factors(reg, [(("f", "a"), np.array([SQ2, 0, 0, SQ2]))])
    assert st.amplitude(["0", "g"]) == pytest.approx(SQ2)
    assert st.amplitude(["1", "e"]) == pytest.approx(SQ2)
    assert st.amplitude(["0", "e"]) == 0.0


def test_from_factors_must_tile_in_order():
    reg = two_qubit_register()
    with pytest.raises(ShapeError):
        from_factors(reg, [(("b",), np.array([1.0, 0.0]))])
    with pytest.raises(ShapeError):
        from_factors(reg, [(("a",), np.array([1.0, 0.0]))])  # b uncovered
    with pytest.raises(ShapeError):
        from_factors(reg, [(("a",), np.array([1.0, 0.0, 0.0]))])


def test_apply_unitary_single_qubit_x():
    reg = two_qubit_register()
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    st = apply_unitary(product_state(reg, ["L", "L"]), ["b"], x)
    assert st.amplitude(["L", "R"]) == 1.0 + 0.0j


def test_apply_unitary_target_order_matters():
    reg = two_qubit_register()
    # CNOT with control = first listed target
    cnot = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    st = product_state(reg, ["R", "L"])
    assert apply_unitary(st, ["a", "b"], cnot).amplitude(["R", "R"]) == 1.0
    assert apply_unitary(st, ["b", "a"], cnot).amplitude(["R", "L"]) == 1.0


def test_apply_unitary_rejects_non_unitary():
    reg = two_qubit_register()
    st = product_state(reg, ["L", "L"])
    with pytest.raises(ContractViolationError):
        apply_unitary(st, ["a"], np.array([[1, 0], [0, 2]], dtype=complex))
    with pytest.raises(ShapeError):
        apply_unitary(st, ["a"], np.eye(4, dtype=complex))
    with pytest.raises(ParameterError):
        apply_unitary(st, ["a", "a"], np.eye(4, dtype=complex))


def bell_state():
    reg = two_qubit_register()
    return PureState(reg, np.array([SQ2, 0, 0, SQ2]))


def test_projection_probability_matches_project():
    st = bell_state()
    assert projection_probability(st, "a", "L") == pytest.approx(0.5)
    prob, post = project(st, "a", "L")
    assert prob == pytest.approx(0.5)
    assert post.amplitude(["L", "L"]) == pytest.approx(1.0)
    assert len(post.register) == 2


def test_project_out_drops_subsystem():
    st = bell_state()
    prob, post = project_out(st, "a", "R")
    assert prob == pytest.approx(0.5)
    assert post.register.labels == ("b",)
    assert post.amplitude(["R"]) == pytest.approx(1.0)


def test_project_zero_probability_returns_none():
    reg = two_qubit_register()
    st = product_state(reg, ["L", "L"])
    prob, post = project(st, "a", "R")
    assert prob == 0.0
    assert post is None
    prob, post = project_out(st, "a", "R")
    assert prob == 0.0
    assert post is None


def test_project_out_refuses_last_subsystem():
    reg = Register([Subsystem("a", KIND_ATOM_LR)])
    st = product_state(reg, ["L"])
    with pytest.raises(ParameterError):
        project_out(st, "a", "L")


def test_overlap_conjugates_first_argument():
    reg = Register([Subsystem("a", KIND_ATOM_LR)])
    plus_i = PureState(reg, np.array([SQ2, 1j * SQ2]))
    basis1 = product_state(reg, ["R"])
    assert overlap(basis1, plus_i) == pytest.approx(1j * SQ2)
    assert overlap(plus_i, basis1) == pytest.approx(-1j * SQ2)


def random_register(rng):
    kinds = [KIND_ATOM_LR, KIND_ATOM_GE, KIND_FIELD, KIND_POL]
    subs = []
    for i in range(rng.integers(1, 4)):
        if rng.random() < 0.25:
            subs.append(Subsystem(f"s{i}", KIND_PATH, dim=int(rng.integers(2, 5))))
        else:
            subs.append(Subsystem(f"s{i}", kinds[rng.integers(len(kinds))]))
    return Register(subs)


def random_state(rng, register):
    vec = rng.normal(size=register.total_dim) + 1j * rng.normal(size=register.total_dim)
    return PureState(register, vec / np.linalg.norm(vec))


def random_unitary(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_randomized_state_properties():
    """1000 randomized trials: norm preservation, composition, completeness."""
    rng = np.random.default_rng(20240917)
    for trial in range(1000):
        reg = random_register(rng)
        st = random_state(rng, reg)
        k = int(rng.integers(1, len(reg) + 1))
        targets = list(rng.choice(reg.labels, size=k, replace=False))
        joint = int(np.prod([reg.subsystem(t).dim for t in targets]))
        u = random_unitary(rng, joint)
        v = random_unitary(rng, joint)

        after_u = apply_unitary(st, targets, u)
        assert abs(after_u.norm - 1.0) < 1e-9

        # composition: V(U(state)) == (VU)(state)
        chained = apply_unitary(after_u, targets, v)
        fused = apply_unitary(st, targets, v @ u)
        assert np.abs(chained.amplitudes - fused.amplitudes).max() < 1e-9

        # inverse undoes
        undone = apply_unitary(after_u, targets, u.conj().T)
        assert np.abs(undone.amplitudes - st.amplitudes).max() < 1e-9

        # projection completeness on one subsystem
        target = targets[0]
        probs = [
            projection_probability(after_u, target, lab)
            for lab in reg.subsystem(target).basis_labels
        ]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)

        # project_out agrees with projection_probability
        lab = reg.subsystem(target).basis_labels[int(rng.integers(len(probs)))]
        if len(reg) > 1:
            prob, post = project_out(after_u, target, lab)
        else:
            prob, post = project(after_u, target, lab)
        assert prob == pytest.approx(
            projection_probability(after_u, target, lab), abs=1e-12
        )
        if post is not None:
            assert abs(post.norm - 1.0) < 1e-9


def reference_apply_unitary(state, targets, matrix):
    """Targets moved to the front, one matmul over the flattened rest, moved back."""
    register = state.register
    positions = [register.position(lab) for lab in targets]
    rest = [ax for ax in range(len(register)) if ax not in positions]
    moved = np.transpose(state.tensor_view(), positions + rest)
    flat = matrix @ moved.reshape(len(matrix), -1)
    out = np.transpose(flat.reshape(moved.shape), np.argsort(positions + rest))
    return out.flatten()


def test_apply_unitary_matches_transpose_matmul_reference():
    """The shared block kernel gives the reference's amplitudes bit for bit."""
    rng = np.random.default_rng(20261018)
    for _ in range(300):
        reg = random_register(rng)
        st = random_state(rng, reg)
        k = int(rng.integers(1, len(reg) + 1))
        targets = list(rng.choice(reg.labels, size=k, replace=False))
        u = random_unitary(rng, int(np.prod([reg.subsystem(t).dim for t in targets])))
        got = apply_unitary(st, targets, u).amplitudes
        assert got.tobytes() == reference_apply_unitary(st, targets, u).tobytes()
