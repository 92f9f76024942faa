"""Target states, stabilizers, corrections: each checked against a raw oracle."""

import numpy as np
import pytest

from cavnet.errors import GraphError, NotSingleExcitationError, ParameterError, ShapeError
from cavnet.qstate import (
    KIND_ATOM_LR,
    KIND_FIELD,
    KIND_PATH,
    KIND_POL,
    PureState,
    Register,
    Subsystem,
    apply_unitary,
)
from cavnet.verify import (
    Graph,
    LocalCorrection,
    canonicalize_single_excitation,
    fidelity,
    ghz_target,
    graph_target,
    stabilizer_expectations,
    w_target,
)
from support import product_state


def qubit_register(n, kind=KIND_ATOM_LR, prefix="q"):
    return Register([Subsystem(f"{prefix}{i}", kind) for i in range(n)])


# ---------------------------------------------------------------- graphs


def test_graph_validation():
    g = Graph(3, [(0, 1), (2, 1)])
    assert g.neighbors(1) == (0, 2)
    assert g.neighbors(0) == (1,)
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(0)


def test_graph_families():
    assert Graph.path(3).edges == Graph(3, [(0, 1), (1, 2)]).edges
    assert Graph.star(4).edges == Graph(4, [(0, 1), (0, 2), (0, 3)]).edges
    assert Graph.ring(4).edges == Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]).edges
    with pytest.raises(GraphError):
        Graph.ring(2)
    assert Graph.path(1).edges == frozenset()


# ---------------------------------------------------------------- targets


def test_ghz_target_against_raw_vector():
    for n in (2, 3, 5):
        reg = qubit_register(n)
        target = ghz_target(n, sign=1, zero_label="R", register=reg)
        raw = np.zeros(2**n, dtype=complex)
        raw[2**n - 1] = 1 / np.sqrt(2)  # all R
        raw[0] = 1 / np.sqrt(2)  # all L
        assert np.abs(target.amplitudes - raw).max() < 1e-15

        minus = ghz_target(n, sign=-1, zero_label="R", register=reg)
        raw_minus = raw.copy()
        raw_minus[0] *= -1  # sign rides on the flipped branch
        assert (
            np.abs(minus.amplitudes - raw_minus).max() < 1e-15
            or np.abs(minus.amplitudes + raw_minus).max() < 1e-15
        )


def test_ghz_target_zero_label_sets_leading_branch():
    reg = qubit_register(2)
    tgt = ghz_target(2, sign=-1, zero_label="L", register=reg)
    assert tgt.amplitude(["L", "L"]) == pytest.approx(1 / np.sqrt(2))
    assert tgt.amplitude(["R", "R"]) == pytest.approx(-1 / np.sqrt(2))


def test_w_target_against_raw_vector():
    for n in (2, 3, 6):
        reg = qubit_register(n)
        target = w_target(n, register=reg)
        raw = np.zeros(2**n, dtype=complex)
        for k in range(n):
            raw[1 << (n - 1 - k)] = 1 / np.sqrt(n)
        assert np.abs(target.amplitudes - raw).max() < 1e-15


def test_targets_need_two_qubits():
    with pytest.raises(ParameterError):
        ghz_target(1)
    with pytest.raises(ParameterError):
        w_target(1)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: ghz_target(2, sign=0), "sign must be +1 or -1, got 0"),
        (lambda: ghz_target(2, zero_label="x"), "unknown basis label 'x'"),
        (lambda: w_target(3, register=qubit_register(2)), "register has 2 subsystems, expected 3"),
        (
            lambda: graph_target(Graph.path(2), register=Register(
                [Subsystem("q0", KIND_FIELD), Subsystem("p", KIND_PATH, dim=3)]
            )),
            "target construction needs two-level subsystems",
        ),
        (
            lambda: graph_target(Graph.path(2), kind=KIND_POL),
            "no two-level register of kind 'pol-LR'",
        ),
        (
            lambda: graph_target(Graph.path(2), kind=KIND_PATH),
            "no two-level register of kind 'path'",
        ),
        (lambda: graph_target(Graph.path(2), kind="x"), "no two-level register of kind 'x'"),
    ],
)
def test_target_constructors_refuse_bad_arguments(call, message):
    with pytest.raises(ParameterError) as info:
        call()
    assert str(info.value) == message


def test_ghz_target_puts_its_two_branches_at_the_ends_of_the_basis():
    for lead in ("L", "R"):
        amps = ghz_target(3, sign=-1, zero_label=lead).amplitudes
        half = np.sqrt(0.5)
        first, last = (half, -half) if lead == "L" else (-half, half)
        assert amps[0] == pytest.approx(first) and amps[-1] == pytest.approx(last)
        assert np.count_nonzero(amps) == 2


def graph_state_oracle(graph, n):
    """Plus states CZ-phased per edge: the textbook construction."""
    raw = np.ones(2**n, dtype=complex) / np.sqrt(2**n)
    for idx in range(2**n):
        bits = [(idx >> (n - 1 - k)) & 1 for k in range(n)]
        for u, v in graph.edges:
            if bits[u] and bits[v]:
                raw[idx] *= -1
    return raw


def test_graph_target_against_cz_oracle():
    for graph in (Graph.path(2), Graph.path(4), Graph.star(3), Graph.ring(3)):
        n = graph.vertices
        reg = qubit_register(n, kind=KIND_FIELD)
        target = graph_target(graph, kind=KIND_FIELD, register=reg)
        assert np.abs(target.amplitudes - graph_state_oracle(graph, n)).max() < 1e-14


def test_graph_target_atom_kind_uses_l_as_zero():
    reg = qubit_register(2, kind=KIND_ATOM_LR)
    target = graph_target(Graph.path(2), kind=KIND_ATOM_LR, register=reg)
    assert target.amplitude(["L", "L"]) == pytest.approx(0.5)
    assert target.amplitude(["R", "R"]) == pytest.approx(-0.5)


# ---------------------------------------------------------------- stabilizers


def test_graph_targets_satisfy_their_stabilizers():
    for graph in (Graph.path(3), Graph.star(4), Graph.ring(5)):
        target = graph_target(graph)
        expect = stabilizer_expectations(target, graph)
        assert np.abs(expect - 1.0).max() < 1e-12


def test_stabilizer_flips_under_local_z():
    graph = Graph.path(3)
    reg = qubit_register(3, kind=KIND_FIELD)
    target = graph_target(graph, register=reg)
    z = np.diag([1.0, -1.0]).astype(complex)
    flipped = apply_unitary(target, ["q1"], z)
    expect = stabilizer_expectations(flipped, graph)
    assert expect[1] == pytest.approx(-1.0)
    assert expect[0] == pytest.approx(1.0)
    assert expect[2] == pytest.approx(1.0)


def test_stabilizer_register_size_guard():
    with pytest.raises(ShapeError):
        stabilizer_expectations(graph_target(Graph.path(2)), Graph.path(3))


# ---------------------------------------------------------------- corrections


def test_local_correction_ops():
    reg = qubit_register(2)
    st = product_state(reg, ["L", "R"])
    flipped = LocalCorrection((("q0", "X"),)).apply(st)
    assert flipped.amplitude(["R", "R"]) == pytest.approx(1.0)
    phased = LocalCorrection((("q1", ("phase", np.pi / 2)),)).apply(st)
    assert phased.amplitude(["L", "R"]) == pytest.approx(1j)
    zed = LocalCorrection((("q1", "Z"),)).apply(st)
    assert zed.amplitude(["L", "R"]) == pytest.approx(-1.0)


def test_local_correction_describe():
    corr = LocalCorrection((("q0", "X"), ("q1", ("phase", 0.5))))
    desc = corr.describe()
    assert desc[0] == {"subsystem": "q0", "op": "X"}
    assert desc[1]["op"] == "phase"
    assert desc[1]["phase"] == pytest.approx(0.5)


def test_local_correction_describe_skips_the_identity():
    corr = LocalCorrection((("q0", "I"), ("q1", "Z"), ("q2", "I")))
    assert corr.describe() == [{"subsystem": "q1", "op": "Z"}]


def test_canonicalize_single_excitation_restores_w():
    n = 4
    reg = qubit_register(n)
    rng = np.random.default_rng(5)
    raw = np.zeros(2**n, dtype=complex)
    for k in range(n):
        raw[1 << (n - 1 - k)] = np.exp(1j * rng.uniform(-np.pi, np.pi)) / np.sqrt(n)
    state = PureState(reg, raw)
    fixed, corr = canonicalize_single_excitation(state)
    assert fidelity(fixed, w_target(n, register=reg)) == pytest.approx(1.0, abs=1e-12)
    assert all(op[1][0] == "phase" for op in corr.ops)


def test_canonicalize_rejects_multi_excitation():
    reg = qubit_register(2)
    with pytest.raises(NotSingleExcitationError):
        canonicalize_single_excitation(product_state(reg, ["R", "R"]))


def test_canonicalize_refuses_a_register_that_is_not_two_level():
    reg = Register([Subsystem("q0", KIND_ATOM_LR), Subsystem("p", KIND_PATH, dim=3)])
    with pytest.raises(ShapeError, match="needs two-level subsystems"):
        canonicalize_single_excitation(product_state(reg, ["R", 0]))


def test_fidelity_ignores_global_phase():
    reg = qubit_register(2)
    tgt = ghz_target(2, register=reg)
    rotated = PureState(reg, tgt.amplitudes * np.exp(0.7j))
    assert fidelity(rotated, tgt) == pytest.approx(1.0, abs=1e-12)
