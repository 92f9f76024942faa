"""State-vector layer: registers, product states, unitaries, projections."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from cavnet import qstate, schemes
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
    overlap,
    project_out,
    projection_probability,
)
from support import bare_scheme, product_state

SQ2 = np.sqrt(0.5)


def initial_of(register, factors):
    """:func:`schemes.initial_state` of a scheme with no elements, started from ``factors``."""
    scheme = dataclasses.replace(bare_scheme(register, [1.0]), initial=tuple(factors))
    return schemes.initial_state(scheme)


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


def test_a_path_outcome_must_be_a_port_index():
    with pytest.raises(InvalidLabelError, match="path outcome 'x' is not a port index"):
        Subsystem("p", KIND_PATH, dim=3).index_of("x")
    with pytest.raises(InvalidLabelError, match="path outcome None is not a port index"):
        Subsystem("p", KIND_PATH, dim=3).index_of(None)


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


def test_register_index_maps_refuse_a_wrong_label_count_or_index():
    reg = Register([Subsystem("a", KIND_ATOM_LR), Subsystem("p", KIND_PATH, dim=3)])
    with pytest.raises(ShapeError, match="expected 2 outcome labels, got 1"):
        reg.index_of_labels(["L"])
    with pytest.raises(ShapeError, match="expected 2 outcome labels, got 3"):
        product_state(reg, ["L", 0, "R"])
    for index in (-1, 6):
        with pytest.raises(ShapeError, match=f"basis index {index} out of range"):
            reg.labels_of_index(index)


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


def test_register_equality_and_hash_follow_the_subsystems():
    a = Register([Subsystem("a", KIND_ATOM_LR), Subsystem("p", KIND_PATH, 3)])
    b = Register([Subsystem("a", KIND_ATOM_LR), Subsystem("p", KIND_PATH, 3)])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Register([Subsystem("a", KIND_ATOM_LR), Subsystem("p", KIND_PATH, 4)])
    assert a != Register([Subsystem("p", KIND_PATH, 3), Subsystem("a", KIND_ATOM_LR)])
    assert a != a.subsystems


def test_register_without_returns_its_cached_register():
    subs = [Subsystem("a", KIND_ATOM_LR), Subsystem("p", KIND_PATH, 3), Subsystem("f", KIND_FIELD)]
    reg = Register(subs)
    fresh = Register(subs)
    dropped = reg.without("p")
    assert reg.without("p") is dropped
    rebuilt = Register([subs[0], subs[2]])
    assert dropped == rebuilt and hash(dropped) == hash(rebuilt)
    assert dropped.dims == (2, 2) and dropped.total_dim == 4
    # the cache takes no part in == or repr
    assert reg == fresh and hash(reg) == hash(fresh) and repr(reg) == repr(fresh)
    assert reg.without("a").without("f") is reg.without("a").without("f")
    for _ in range(2):  # a miss caches nothing
        with pytest.raises(InvalidLabelError):
            reg.without("z")


class MultiplyRefused(int):
    """An int dim that fails if a running product multiplies it in."""

    def __rmul__(self, other):
        raise AssertionError("the budget check multiplied past the refusal")


def test_register_refuses_once_the_running_product_passes_the_budget():
    qubits = [Subsystem(f"q{i}", KIND_FIELD) for i in range(24)]  # 2**24 > MAX_TOTAL_DIM
    late = Subsystem("p", KIND_PATH, MultiplyRefused(4))
    with pytest.raises(ParameterError, match=r"2\*\*26\.00 exceeds MAX_TOTAL_DIM = 8388608"):
        Register([*qubits, late])
    # the power of 2 is the sum of the dims' log2
    paths = [Subsystem(f"p{i}", KIND_PATH, 3) for i in range(15)]
    with pytest.raises(ParameterError, match=rf"2\*\*{15 * np.log2(3):.2f} exceeds"):
        Register(paths)


@pytest.mark.parametrize("n", [62, 63, 64, 200])
def test_register_total_dim_is_exact_and_allocates_nothing(n, monkeypatch):
    subs = [Subsystem(f"q{i}", KIND_FIELD) for i in range(n)]
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=rf"2\*\*{n}\.00 exceeds MAX_TOTAL_DIM"):
            Register(subs)
        monkeypatch.setattr(qstate, "MAX_TOTAL_DIM", 2**n)
        register = Register(subs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert register.total_dim == 2**n
    assert register.dims == (2,) * n
    assert peak < 200_000


def test_register_budget_names_a_dimension_too_long_to_print():
    # 2**20000 has more digits than str() converts by default
    with pytest.raises(ParameterError, match=r"2\*\*20000\.00 exceeds MAX_TOTAL_DIM"):
        Register(Subsystem(f"q{i}", KIND_FIELD) for i in range(20_000))


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_pure_state_norm_guard_refuses_non_finite(bad):
    reg = Register([Subsystem("a", KIND_ATOM_LR)])
    with pytest.raises(ContractViolationError):
        PureState(reg, np.array([bad, 0.0]))
    with pytest.raises(ContractViolationError):
        PureState(reg, np.array([1.0, bad]))


def test_norm_equals_linalg_norm():
    rng = np.random.default_rng(5)
    reg = Register(Subsystem(f"q{i}", KIND_FIELD) for i in range(6))
    vec = rng.normal(size=64) + 1j * rng.normal(size=64)
    st = PureState(reg, vec / np.linalg.norm(vec))
    assert st.norm == pytest.approx(np.linalg.norm(st.amplitudes), abs=1e-15)
    assert qstate._norm(np.array([3.0, 4.0j])) == 5.0


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
    pair = initial_of(two_qubit_register(), [(("a", "b"), [SQ2, 0, 0, SQ2])])
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
    st = initial_of(reg, [(("f", "a"), np.array([SQ2, 0, 0, SQ2]))])
    assert st.amplitude(["0", "g"]) == pytest.approx(SQ2)
    assert st.amplitude(["1", "e"]) == pytest.approx(SQ2)
    assert st.amplitude(["0", "e"]) == 0.0


@pytest.mark.parametrize(
    "factors",
    [
        [[0.6, -0.8], [1.0, 0.0], [0.0, 1.0]],
        [[-1.0, 0.0], [0.0, -1j], [SQ2, -SQ2]],
        [[0.6j, -0.8], [-0.0, 1.0], [complex(0.0, -0.0), -1.0]],
    ],
)
def test_from_factors_writes_every_zero_as_positive_zero(factors):
    reg = Register([Subsystem(label, KIND_ATOM_LR) for label in "abc"])
    amps = initial_of(reg, [((label,), f) for label, f in zip("abc", factors)]).amplitudes
    assert np.array_equal(amps, np.kron(np.kron(factors[0], factors[1]), factors[2]))
    parts = amps.view(np.float64)
    assert (parts == 0).any() and not np.signbit(parts[parts == 0]).any()


def test_from_factors_must_tile_in_order():
    reg = two_qubit_register()
    with pytest.raises(ShapeError):
        initial_of(reg, [(("b",), np.array([1.0, 0.0]))])
    with pytest.raises(ShapeError):
        initial_of(reg, [(("a",), np.array([1.0, 0.0]))])  # b uncovered
    with pytest.raises(ShapeError):
        initial_of(reg, [(("a",), np.array([1.0, 0.0, 0.0]))])


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
    with pytest.raises(ContractViolationError, match="not unitary"):
        apply_unitary(st, ["a"], np.array([[np.nan, 0], [0, 1]], dtype=complex))
    with pytest.raises(ShapeError):
        apply_unitary(st, ["a"], np.eye(4, dtype=complex))
    with pytest.raises(ParameterError):
        apply_unitary(st, ["a", "a"], np.eye(4, dtype=complex))


def bell_state():
    reg = two_qubit_register()
    return PureState(reg, np.array([SQ2, 0, 0, SQ2]))


def test_projection_probability_matches_project_out():
    st = bell_state()
    assert projection_probability(st, "a", "L") == pytest.approx(0.5)
    prob, post = project_out(st, "a", "L")
    assert prob == pytest.approx(0.5)
    assert post.amplitude(["L"]) == pytest.approx(1.0)
    assert post.register.labels == ("b",)


def test_project_out_drops_subsystem():
    st = bell_state()
    prob, post = project_out(st, "a", "R")
    assert prob == pytest.approx(0.5)
    assert post.register.labels == ("b",)
    assert post.amplitude(["R"]) == pytest.approx(1.0)


def test_project_zero_probability_returns_none():
    reg = two_qubit_register()
    st = product_state(reg, ["L", "L"])
    prob, post = project_out(st, "a", "R")
    assert prob == 0.0
    assert post is None


def test_project_out_refuses_last_subsystem():
    reg = Register([Subsystem("a", KIND_ATOM_LR)])
    st = product_state(reg, ["L"])
    with pytest.raises(ParameterError):
        project_out(st, "a", "L")


def corrupted_bell_state(value):
    """A Bell state whose first amplitude is overwritten with ``value`` after its check."""
    st = bell_state()
    st.amplitudes.setflags(write=True)  # the state owns its array
    st.amplitudes[0] = value
    st.amplitudes.setflags(write=False)
    return st


@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_project_out_refuses_a_non_finite_slab(value):
    with pytest.raises(ContractViolationError, match=r"^post state norm\*\*2 nan deviates"):
        project_out(corrupted_bell_state(value), "a", "L")
    # the other slab is finite, so its post state is built as before
    prob, post = project_out(corrupted_bell_state(value), "a", "R")
    assert prob == pytest.approx(0.5) and post.amplitude(["R"]) == pytest.approx(1.0)


def test_project_out_refuses_a_wrong_scale(monkeypatch):
    class HalfRoot:
        """``math`` whose square roots are twice too large, so every scale is half."""

        def sqrt(self, x):
            return 2.0 * float(np.sqrt(x))

    monkeypatch.setattr(qstate, "math", HalfRoot())
    with pytest.raises(ContractViolationError, match=r"^post state norm\*\*2 0\.25 deviates"):
        project_out(bell_state(), "a", "L")


def test_project_out_post_state_is_adopted_and_normalized():
    st = PureState(two_qubit_register(), np.array([0.6, 0.0, 0.0, 0.8j]))
    prob, post = project_out(st, "a", "R")
    assert prob == pytest.approx(0.64)
    assert post.register == Register([Subsystem("b", KIND_ATOM_LR)])
    assert post.amplitudes.base is None and not post.amplitudes.flags.writeable
    assert abs(post.norm - 1.0) <= 1e-15
    assert post == PureState(post.register, post.amplitudes)


def test_overlap_conjugates_first_argument():
    reg = Register([Subsystem("a", KIND_ATOM_LR)])
    plus_i = PureState(reg, np.array([SQ2, 1j * SQ2]))
    basis1 = product_state(reg, ["R"])
    assert overlap(basis1, plus_i) == pytest.approx(1j * SQ2)
    assert overlap(plus_i, basis1) == pytest.approx(-1j * SQ2)


def test_overlap_refuses_states_on_different_registers():
    a = product_state(Register([Subsystem("a", KIND_ATOM_LR)]), ["L"])
    b = product_state(Register([Subsystem("b", KIND_ATOM_LR)]), ["L"])
    with pytest.raises(ShapeError, match="same register"):
        overlap(a, b)


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
        if len(reg) == 1:  # the last subsystem cannot be projected out
            continue
        prob, post = project_out(after_u, target, lab)
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
