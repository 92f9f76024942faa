"""Scheme builders, the measurement loop, meshes, and the retry walk."""

import dataclasses
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavnet import elements as el
from cavnet import qstate, schemes, verify
from cavnet.errors import (
    ContractViolationError,
    DegenerateCouplingError,
    GraphError,
    InvalidConfigurationError,
    InvalidLabelError,
    LossyWiringError,
    ParameterError,
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
from cavnet.schemes import (
    RetryWalkParams,
    build_cluster_atoms,
    build_field_cz_pair,
    build_field_graph,
    build_ghz_atoms,
    build_ghz_fields,
    build_w3_deterministic,
    build_w3_probabilistic,
    build_w_pow2,
    initial_state,
    retry_walk,
    retry_walk_mc,
    run,
)
from cavnet.verify import Graph, fidelity, stabilizer_expectations
from support import bare_scheme, unchunked_retry_walk_mc

SQ2 = np.sqrt(0.5)


def mesh_matrix(items, dpath):
    """Path-space matrix of BS/PhaseShifter/Reroute elements, built with raw numpy.

    Independent of the element kernels: each element is the identity with
    its block written into the rows and columns of its ports.
    """
    m = np.eye(dpath, dtype=complex)
    for item in items:
        if isinstance(item, el.BS):
            ports, block = list(item.ports), el.bs_unitary(item.reflectivity)
        elif isinstance(item, el.PhaseShifter):
            ports, block = [item.port], [[np.exp(1j * item.phase)]]
        elif isinstance(item, el.Reroute):
            ports, block = [item.src, item.dst], [[0, 1], [1, 0]]
        else:
            raise AssertionError(f"{item!r} is not a path-only element")
        step = np.eye(dpath, dtype=complex)
        step[np.ix_(ports, ports)] = block
        m = step @ m
    return m


def outcome_map(reports):
    return {r.detector_id: r for r in reports}


def basis_amplitude(state, per_label):
    """Amplitude of a product basis state given {label: outcome}."""
    labels = [per_label[lab] for lab in state.register.labels]
    return state.amplitude(labels)


# ---------------------------------------------------------------- validation


def test_builders_reject_bad_sizes():
    with pytest.raises(ParameterError):
        build_ghz_atoms(3)
    with pytest.raises(ParameterError):
        build_ghz_atoms(0)
    with pytest.raises(ParameterError):
        build_w_pow2(3)
    with pytest.raises(ParameterError):
        build_w_pow2(0)
    with pytest.raises(ParameterError):
        build_cluster_atoms(0)
    with pytest.raises(ParameterError):
        build_ghz_fields(5)
    with pytest.raises(ParameterError):
        build_field_graph(kind="tree", n=3)
    with pytest.raises(ParameterError):
        build_field_graph()


# ---------------------------------------------------------------- ghz atoms


def test_ghz_atoms_two_qubit_amplitudes_frozen():
    reports = run(build_ghz_atoms(2))
    by_id = outcome_map(reports)
    assert set(by_id) == {"D1", "D2"}
    for rep in reports:
        assert rep.probability == pytest.approx(0.5, abs=1e-12)
        assert rep.fidelity_vs_target == pytest.approx(1.0, abs=1e-12)
    d1 = by_id["D1"].post_state
    assert basis_amplitude(d1, {"atom1": "R", "atom2": "L"}) == pytest.approx(SQ2)
    assert basis_amplitude(d1, {"atom1": "L", "atom2": "R"}) == pytest.approx(SQ2)
    d2 = by_id["D2"].post_state
    assert basis_amplitude(d2, {"atom1": "R", "atom2": "L"}) == pytest.approx(SQ2)
    assert basis_amplitude(d2, {"atom1": "L", "atom2": "R"}) == pytest.approx(-SQ2)


def test_ghz_atoms_alternating_pattern_n6():
    reports = run(build_ghz_atoms(6))
    d1 = outcome_map(reports)["D1"].post_state
    lead = dict(zip([f"atom{i + 1}" for i in range(6)], "RLLRRL"))
    flip = dict(zip([f"atom{i + 1}" for i in range(6)], "LRRLLR"))
    assert basis_amplitude(d1, lead) == pytest.approx(SQ2, abs=1e-12)
    assert basis_amplitude(d1, flip) == pytest.approx(SQ2, abs=1e-12)
    # nothing outside the two branches
    assert np.sort(np.abs(d1.amplitudes))[-3] < 1e-12


def test_ghz_atoms_corrected_states_hit_target():
    for n in (2, 4):
        sch = build_ghz_atoms(n)
        for rep in run(sch):
            assert rep.corrected_state is not None
            tgt = sch.targets[rep.detector_id]
            assert fidelity(rep.corrected_state, tgt) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- W states


def test_w_scheme_probabilities_and_fidelity():
    for n in (2, 4):
        reports = run(build_w_pow2(n))
        assert len(reports) == n
        for rep in reports:
            assert rep.probability == pytest.approx(1.0 / n, abs=1e-12)
            assert rep.fidelity_vs_target == pytest.approx(1.0, abs=1e-12)


def test_hadamard_mesh_matrix_is_hadamard_transform():
    for m in (1, 2, 3):
        n = 2**m
        items = schemes._hadamard_mesh(tuple(range(n)))
        mat = mesh_matrix(items, n)
        oracle = np.ones((1, 1))
        h = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for _ in range(m):
            oracle = np.kron(oracle, h)
        assert np.abs(mat - oracle).max() < 1e-12


def test_w3_probabilistic_split():
    reports = run(build_w3_probabilistic())
    by_id = outcome_map(reports)
    assert by_id["D5"].probability == pytest.approx(0.25, abs=1e-12)
    assert by_id["D5"].fidelity_vs_target is None
    for j in range(1, 5):
        rep = by_id[f"D{j}"]
        assert rep.probability == pytest.approx(3.0 / 16.0, abs=1e-12)
        assert rep.fidelity_vs_target == pytest.approx(1.0, abs=1e-12)


def test_w3_deterministic_probabilities_and_fidelity():
    reports = run(build_w3_deterministic())
    assert len(reports) == 3
    for rep in reports:
        assert rep.probability == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.fidelity_vs_target == pytest.approx(1.0, abs=1e-12)
        # corrections are pure phase rotations
        for _, op in rep.correction.ops:
            assert op[0] == "phase"


def test_fourier_tritter_mesh_decomposition():
    tritter = schemes._fourier_tritter()
    w = np.exp(2j * np.pi / 3)
    oracle = np.array(
        [[w ** (j * k) for k in range(3)] for j in range(3)]
    ) / np.sqrt(3)
    assert np.abs(tritter - oracle).max() < 1e-15
    items = schemes._unitary_mesh(tritter, (0, 1, 2))
    assert np.abs(mesh_matrix(items, 3) - tritter).max() < 1e-12


def test_unitary_block_refuses_non_unitary_and_nan():
    with pytest.raises(ContractViolationError):
        qstate._Block([[1.0, 0.0], [0.0, 2.0]], el.ELEMENT_UNITARY_ATOL)
    with pytest.raises(ContractViolationError, match="not unitary"):
        qstate._Block([[np.nan, 0.0], [0.0, 1.0]], el.ELEMENT_UNITARY_ATOL)
    swap = [[0.0, 1.0], [1.0, 0.0]]
    block = qstate._Block(swap, el.ELEMENT_UNITARY_ATOL)
    assert not block.matrix.flags.writeable
    assert block.matrix.dtype == complex and np.array_equal(block.matrix, swap)


@st.composite
def port_unitaries(draw):
    """Haar-random unitaries on 2 to 4 ports."""
    dim = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


@settings(max_examples=300, deadline=None)
@given(v=port_unitaries(), data=st.data())
def test_unitary_mesh_handles_random_unitaries(v, data):
    ports = data.draw(st.permutations(range(len(v))))
    items = schemes._unitary_mesh(v, ports)
    assert all(isinstance(item, (el.BS, el.PhaseShifter)) for item in items)
    assert np.abs(mesh_matrix(items, len(v))[np.ix_(ports, ports)] - v).max() < 1e-10


# ---------------------------------------------------------------- cluster


def test_cluster_two_atom_amplitudes_frozen():
    reports = run(build_cluster_atoms(2))
    by_id = outcome_map(reports)
    d1 = by_id["D1"].post_state
    amps = {
        ("L", "L"): 0.5,
        ("L", "R"): 0.5,
        ("R", "L"): 0.5,
        ("R", "R"): -0.5,
    }
    for (a1, a2), expect in amps.items():
        got = basis_amplitude(d1, {"atom1": a1, "atom2": a2})
        assert got == pytest.approx(expect, abs=1e-12)
    # second outcome differs from the first by Z on the last atom exactly
    d2 = by_id["D2"].post_state
    for (a1, a2), expect in amps.items():
        sign = -1.0 if a2 == "R" else 1.0
        got = basis_amplitude(d2, {"atom1": a1, "atom2": a2})
        assert got == pytest.approx(sign * expect, abs=1e-12)


def test_cluster_corrected_stabilizers():
    for n in (1, 2, 3, 4):
        sch = build_cluster_atoms(n)
        graph = Graph.path(n)
        for rep in run(sch):
            assert rep.probability == pytest.approx(0.5, abs=1e-12)
            expect = stabilizer_expectations(rep.corrected_state, graph)
            assert np.abs(expect - 1.0).max() < 1e-9


# ---------------------------------------------------------------- fields


def test_ghz_fields_matches_atom_version_shape():
    for n in (2, 4):
        sch = build_ghz_fields(n)
        reports = run(sch)
        assert {r.detector_id for r in reports} == {"D1", "D2"}
        for rep in reports:
            assert rep.probability == pytest.approx(0.5, abs=1e-12)
            assert rep.fidelity_vs_target == pytest.approx(1.0, abs=1e-12)
            # flying atom is gone from the register
            assert "atom" not in rep.post_state.register.labels


def test_ghz_fields_pre_correction_branches():
    reports = run(build_ghz_fields(4))
    d1 = outcome_map(reports)["D1"].post_state
    lead = dict(zip([f"field{i + 1}" for i in range(4)], "1001"))
    flip = dict(zip([f"field{i + 1}" for i in range(4)], "0110"))
    a_lead = basis_amplitude(d1, lead)
    a_flip = basis_amplitude(d1, flip)
    # equal up to a global phase, equal to each other for the plus branch
    assert abs(a_lead) == pytest.approx(SQ2, abs=1e-12)
    assert a_lead == pytest.approx(a_flip, abs=1e-12)


def test_field_cz_amplitudes_frozen():
    sch = build_field_cz_pair()
    # joint state before the atom detection: 8 amplitudes of +-1/(2 sqrt 2)
    joint = schemes.propagate(sch)
    inv_sq8 = 1.0 / (2.0 * np.sqrt(2.0))
    signs_g = {("0", "0"): 1, ("0", "1"): 1, ("1", "0"): 1, ("1", "1"): -1}
    signs_e = {("0", "0"): 1, ("0", "1"): 1, ("1", "0"): -1, ("1", "1"): 1}
    for atom, signs in (("g", signs_g), ("e", signs_e)):
        for (f1, f2), sgn in signs.items():
            got = basis_amplitude(joint, {"field1": f1, "field2": f2, "atom": atom})
            assert got == pytest.approx(sgn * inv_sq8, abs=1e-12)
    # post-detection states carry the same sign patterns, renormalized
    by_id = outcome_map(run(sch))
    for det, signs in (("Dg", signs_g), ("De", signs_e)):
        rep = by_id[det]
        assert rep.probability == pytest.approx(0.5, abs=1e-12)
        for (f1, f2), sgn in signs.items():
            got = basis_amplitude(rep.post_state, {"field1": f1, "field2": f2})
            assert got == pytest.approx(sgn * 0.5, abs=1e-12)
        assert rep.fidelity_vs_target == pytest.approx(1.0, abs=1e-12)


def test_field_graph_all_outcomes_reach_graph_state():
    cases = [
        build_field_graph(kind="star", n=4),
        build_field_graph(kind="linear", n=3),
        build_field_graph(kind="ring", n=3),
        build_field_graph(graph=Graph(4, [(0, 1), (1, 2), (0, 2)])),
    ]
    for sch in cases:
        reports = run(sch)
        assert sum(r.probability for r in reports) == pytest.approx(1.0, abs=1e-9)
        for rep in reports:
            tgt = sch.targets[rep.detector_id]
            assert fidelity(rep.corrected_state, tgt) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "kind,family", [("star", Graph.star), ("linear", Graph.path), ("ring", Graph.ring)]
)
@pytest.mark.parametrize("n", range(3, 7))
def test_named_graph_targets_are_the_family_graph_states(kind, family, n):
    want = verify.graph_target(family(n), KIND_FIELD).amplitudes
    targets = build_field_graph(kind, n).targets.values()
    assert targets and all(t.amplitudes.tobytes() == want.tobytes() for t in targets)


@pytest.mark.parametrize(
    "kind,n,error,message",
    [
        ("star", 1, ParameterError, "star graph needs n >= 2"),
        ("linear", 1, ParameterError, "linear graph needs n >= 2"),
        ("linear", 0, ParameterError, "linear graph needs n >= 2"),
        ("ring", 2, GraphError, "a ring needs at least 3 vertices"),
        ("ring", 1, GraphError, "a ring needs at least 3 vertices"),
        ("square", 4, ParameterError, "unknown graph kind 'square'"),
    ],
)
def test_named_graph_refusals_keep_their_types_and_messages(kind, n, error, message):
    with pytest.raises(error) as info:
        build_field_graph(kind, n)
    assert type(info.value) is error and str(info.value) == message


def test_field_graph_refuses_a_kind_and_a_graph_together():
    with pytest.raises(ParameterError, match="pass either kind/n or an explicit graph, not both"):
        build_field_graph("ring", 3, Graph.ring(3))
    with pytest.raises(ParameterError, match="pass either kind/n or an explicit graph, not both"):
        build_field_graph(n=3, graph=Graph.ring(3))


@st.composite
def random_graphs(draw, low, high):
    """A graph on ``low``-``high`` vertices, each possible edge present or not."""
    n = draw(st.integers(low, high))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, [pair for pair in pairs if draw(st.booleans())])


def assert_stabilizer_oracle(graph):
    """Every outcome has probability 2**-n and every corrected state has <K_i> = 1.

    The oracle is the graph state's stabilizer group (Hein, Eisert & Briegel,
    PRA 69, 062311, 2004): K_i = X_i prod_{j in N(i)} Z_j fixes it, and
    measuring the n atoms leaves all 2**n outcomes equally likely.
    """
    reports = run(build_field_graph(graph=graph))
    assert len(reports) == 2**graph.vertices
    for rep in reports:
        assert abs(rep.probability - 2.0**-graph.vertices) <= 1e-12
        expectations = stabilizer_expectations(rep.corrected_state, graph)
        assert np.abs(expectations - 1.0).max() <= 1e-9


@settings(max_examples=60, deadline=None)
@given(random_graphs(1, 5))
def test_random_field_graphs_meet_the_stabilizer_oracle(graph):
    assert_stabilizer_oracle(graph)


@settings(max_examples=15, deadline=None)
@given(random_graphs(6, 7))
def test_random_field_graphs_of_six_or_seven_vertices_meet_the_stabilizer_oracle(graph):
    # the paper's claim is for any number of qubits; 7 vertices cost ~0.2 s each
    assert_stabilizer_oracle(graph)


# one builder per run-scheme kind, and two explicit graphs (one with an isolated vertex)
DECLARED = {
    "ghz-atoms": lambda: build_ghz_atoms(4),
    "w": lambda: build_w_pow2(4),
    "w3-prob": build_w3_probabilistic,
    "w3-det": build_w3_deterministic,
    "cluster": lambda: build_cluster_atoms(3),
    "ghz-fields": lambda: build_ghz_fields(4),
    "field-cz": build_field_cz_pair,
    "graph-star": lambda: build_field_graph("star", 4),
    "graph-linear": lambda: build_field_graph("linear", 4),
    "graph-ring": lambda: build_field_graph("ring", 4),
    "graph-triangle": lambda: build_field_graph(graph=Graph(3, [(0, 1), (1, 2), (0, 2)])),
    "graph-isolated": lambda: build_field_graph(graph=Graph(4, [(2, 0), (1, 2)])),
}


@pytest.mark.parametrize("name", DECLARED)
def test_run_reports_exactly_the_declared_outcome_ids(name):
    scheme = DECLARED[name]()
    ids = [rep.detector_id for rep in run(scheme)]
    assert ids == list(scheme.corrections) == list(scheme.targets)


# the schemes detected at the ports of a path, each with the one subsystem that flies through it
PATH_MESSENGERS = {
    "ghz-atoms": "pol",
    "w": "pol",
    "w3-prob": "pol",
    "w3-det": "pol",
    "cluster": "pol",
    "ghz-fields": "atom",
}


@pytest.mark.parametrize("name", DECLARED)
def test_every_builder_keys_its_outcomes_by_its_detectors_combinations(name):
    scheme = DECLARED[name]()
    ids = [combo_id for combo_id, _ in schemes._outcome_combos(scheme.detectors)]
    assert list(scheme.corrections) == list(scheme.targets) == ids
    if name not in PATH_MESSENGERS:
        assert schemes.PATH not in scheme.register.labels
        assert scheme.flying == ()
        return
    ports = scheme.register.subsystem(schemes.PATH).dim
    watched = [(det.id, det.subsystem, det.outcome) for det in scheme.detectors]
    assert watched == [(f"D{j + 1}", schemes.PATH, j) for j in range(ports)]
    assert scheme.flying == (PATH_MESSENGERS[name],)


@pytest.mark.parametrize("name", DECLARED)
def test_initial_spec_lists_the_register_in_order(name):
    scheme = DECLARED[name]()
    labels = [label for factor, _ in scheme.initial for label in factor]
    assert tuple(labels) == scheme.register.labels


@pytest.mark.parametrize("name", DECLARED)
def test_replaying_one_element_at_a_time_from_full_state_vectors_is_bit_equal(name):
    # each step restarts from the state reached, as one factor over the whole register
    scheme = DECLARED[name]()
    state = initial_state(scheme)
    for item in scheme.elements:
        start = ((scheme.register.labels, state.amplitudes),)
        state = schemes.propagate(dataclasses.replace(scheme, initial=start, elements=(item,)))
    assert state.amplitudes.tobytes() == schemes.propagate(scheme).amplitudes.tobytes()


@pytest.mark.parametrize(
    "build,initial",
    [
        (
            lambda: build_ghz_atoms(2),
            [
                {"subsystems": ["atom1"], "state": "L"},
                {"subsystems": ["atom2"], "state": "L"},
                {"subsystems": ["path"], "state": "0"},
                {"subsystems": ["pol"], "state": "L"},
            ],
        ),
        (
            build_field_cz_pair,
            [
                {"subsystems": ["field1"], "state": "1"},
                {"subsystems": ["field2"], "state": "+"},
                {"subsystems": ["atom"], "state": "g"},
            ],
        ),
        (
            lambda: build_field_graph("star", 3),
            [
                {"subsystems": ["field1"], "state": "+"},
                {"subsystems": ["field2", "atom2"], "state": "pair"},
                {"subsystems": ["field3", "atom3"], "state": "pair"},
            ],
        ),
    ],
    ids=["ghz-atoms-2", "field-cz", "graph-star-3"],
)
def test_rendered_initial_state_names_each_factor(build, initial):
    assert schemes.scheme_to_jsonable(build())["initial"] == initial


def test_run_refuses_an_outcome_id_the_scheme_does_not_declare():
    scheme = build_ghz_atoms(2)
    renamed = dataclasses.replace(
        scheme,
        corrections={"d1": scheme.corrections["D1"], "d2": scheme.corrections["D2"]},
        targets={"d1": scheme.targets["D1"], "d2": scheme.targets["D2"]},
    )
    with pytest.raises(ContractViolationError, match="'ghz-atoms' .* outcome 'D1'"):
        run(renamed)


def test_run_checks_every_outcome_id_before_propagating(monkeypatch):
    scheme = build_ghz_atoms(2)
    renamed = dataclasses.replace(scheme, targets={"D1": scheme.targets["D1"], "d2": None})

    def refuse(*args, **kwargs):
        raise AssertionError("propagated before the outcome ids were checked")

    monkeypatch.setattr(schemes, "propagate", refuse)
    monkeypatch.setattr(schemes, "_propagated", refuse)
    with pytest.raises(ContractViolationError) as info:
        run(renamed)
    assert str(info.value) == (
        "scheme 'ghz-atoms' declares no correction and target for outcome 'D2'"
    )


def test_an_undeclared_outcome_id_is_reported_before_a_wiring_fault():
    reg = Register([Subsystem("path", KIND_PATH, dim=2)])
    sch = bare_scheme(  # the reroute is refused, and D2 is not declared
        reg,
        [SQ2, SQ2],
        [el.Reroute(0, 1)],
        [el.Detector("D1", "path", 0), el.Detector("D2", "path", 1)],
        corrections={"D1": verify.LocalCorrection()},
    )
    with pytest.raises(ContractViolationError) as info:
        run(sch)
    assert type(info.value) is ContractViolationError
    assert "outcome 'D2'" in str(info.value)


def test_ring8_detection_builds_each_dropped_register_once(monkeypatch):
    scheme = build_field_graph("ring", 8)
    built, calls = [], []
    init, project_out = Register.__init__, qstate.project_out

    def counting_init(self, subsystems):
        built.append(1)
        init(self, subsystems)

    def counting_project_out(*args):
        calls.append(1)
        return project_out(*args)

    monkeypatch.setattr(Register, "__init__", counting_init)
    monkeypatch.setattr(qstate, "project_out", counting_project_out)
    reports = run(scheme)
    assert len(reports) == 256 and len(calls) == 2_048
    assert len(built) <= 9  # one register per detector group, not one per projection


def test_field_graph_combo_count_scales_with_edges():
    # star: only the leaves' atoms are measured jointly with the hub pass
    sch = build_field_graph(kind="ring", n=3)
    assert len(run(sch)) == 8


# ---------------------------------------------------------------- run loop


def test_run_without_detectors_returns_empty():
    reg = Register([Subsystem("atom1", KIND_ATOM_GE)])
    sch = bare_scheme(reg, [1.0, 0.0], n=1)
    assert run(sch) == []


def bare_photon_scheme(amplitudes, ports):
    """Bare (atom1, path[2], pol) scheme with no elements and detectors on ``ports``."""
    reg = Register(
        [
            Subsystem("atom1", KIND_ATOM_LR),
            Subsystem("path", KIND_PATH, dim=2),
            Subsystem("pol", KIND_POL),
        ]
    )
    detectors = [el.Detector(f"D{p + 1}", "path", p) for p in ports]
    return bare_scheme(reg, amplitudes, (), detectors, n=1, flying=("pol",))


def test_run_rejects_flyer_entangled_at_detection():
    # (|L,0,L> + |R,0,R>)/sqrt(2): the polarization still carries the atom
    amps = np.zeros(8)
    amps[0] = amps[5] = SQ2
    with pytest.raises(LossyWiringError, match="still entangled at detection"):
        run(bare_photon_scheme(amps, ports=(0, 1)))


def test_run_rejects_detectors_missing_amplitude():
    # (|L,0,L> + |L,1,L>)/sqrt(2) with only port 0 watched: half the photon is lost
    amps = np.zeros(8)
    amps[0] = amps[2] = SQ2
    with pytest.raises(LossyWiringError, match="probabilities sum to"):
        run(bare_photon_scheme(amps, ports=(0,)))


def count_calls(monkeypatch, name):
    calls = []
    real = getattr(qstate, name)

    def counted(state, target, outcome):
        calls.append(outcome)
        return real(state, target, outcome)

    monkeypatch.setattr(qstate, name, counted)
    return calls


@pytest.mark.parametrize("pol", ["L", "R"])
def test_flyer_strip_projects_once_onto_the_dominant_outcome(monkeypatch, pol):
    # |L,0,pol>: the polarization is a product with the rest
    amps = np.zeros(8)
    amps[0 if pol == "L" else 1] = 1.0
    masses = count_calls(monkeypatch, "projection_probability")
    projections = count_calls(monkeypatch, "project_out")
    (report,) = run(bare_photon_scheme(amps, ports=(0,)))
    assert masses == ["L"]
    assert projections == [0, pol]
    assert report.post_state.register.labels == ("atom1",)
    assert report.post_state.amplitude(["L"]) == pytest.approx(1.0)


def test_flyer_strip_error_names_the_largest_mass():
    # sqrt(0.3)|L,0,L> + sqrt(0.7)|R,0,R>: the largest polarization mass is 0.7
    amps = np.zeros(8)
    amps[0], amps[5] = np.sqrt(0.3), np.sqrt(0.7)
    with pytest.raises(LossyWiringError, match=r"dominant outcome probability 0\.7"):
        run(bare_photon_scheme(amps, ports=(0,)))


def test_flyer_strip_error_names_the_scheme_and_the_outcome():
    amps = np.zeros(8)
    amps[0], amps[5] = np.sqrt(0.3), np.sqrt(0.7)
    with pytest.raises(LossyWiringError) as info:
        run(bare_photon_scheme(amps, ports=(0,)))
    assert str(info.value) == (
        "scheme 'bare', outcome 'D1': flying subsystem 'pol' is still entangled at detection "
        "(dominant outcome probability 0.7000000000000001)"
    )


def test_run_refuses_a_detector_on_its_own_flyer():
    # |L,L> with the flying polarization itself detected: nothing is left to strip
    reg = Register([Subsystem("atom1", KIND_ATOM_LR), Subsystem("pol", KIND_POL)])
    detectors = [el.Detector("P1", "pol", "L"), el.Detector("P2", "pol", "R")]
    scheme = bare_scheme(reg, [1.0, 0, 0, 0], (), detectors, n=1, flying=("pol",))
    with pytest.raises(InvalidLabelError) as info:
        run(scheme)
    assert str(info.value) == "scheme 'bare', outcome 'P1': no subsystem labelled 'pol'"


def test_probability_sum_refusal_names_the_scheme():
    amps = np.zeros(8)
    amps[0] = amps[2] = SQ2
    with pytest.raises(LossyWiringError) as info:
        run(bare_photon_scheme(amps, ports=(0,)))
    assert str(info.value) == (
        "scheme 'bare': detector probabilities sum to 0.5000000000000001, scheme loses amplitude"
    )


def test_field_pi_block_rejects_double_excitation():
    reg = Register(
        [
            Subsystem("field1", KIND_FIELD),
            Subsystem("atom", KIND_ATOM_GE),
        ]
    )
    sch = bare_scheme(  # |1, e>
        reg,
        np.kron([0.0, 1.0], [0.0, 1.0]),
        [el.FieldPiBlock("atom", "field1")],
        name="bad",
        n=1,
    )
    with pytest.raises(InvalidConfigurationError):
        schemes.propagate(sch)


def test_reroute_rejects_occupied_destination():
    reg = Register([Subsystem("path", KIND_PATH, dim=2)])
    init = np.array([SQ2, SQ2])
    sch = bare_scheme(reg, init, [el.Reroute(0, 1)], name="bad")
    with pytest.raises(InvalidConfigurationError):
        schemes.propagate(sch)


def test_guard_messages_name_the_refused_sector():
    reroute = bare_scheme(
        Register([Subsystem("path", KIND_PATH, dim=3)]), [SQ2, 0.0, SQ2], [el.Reroute(0, 2)]
    )
    with pytest.raises(InvalidConfigurationError) as info:
        schemes.propagate(reroute)
    assert str(info.value) == (
        "scheme 'bare', element 0 (Reroute): reroute target port 2 is already occupied"
    )
    pi = bare_scheme(
        Register([Subsystem("field1", KIND_FIELD), Subsystem("atom", KIND_ATOM_GE)]),
        [0.0, 0.0, 0.0, 1.0],  # |1, e>
        [el.FieldPiBlock("atom", "field1")],
    )
    with pytest.raises(InvalidConfigurationError) as info:
        schemes.propagate(pi)
    assert str(info.value) == (
        "scheme 'bare', element 0 (FieldPiBlock): resonant pi block reached with "
        "population in the doubly excited |e,1> sector of (atom, field1)"
    )


@pytest.mark.parametrize("port,refused", [(0, True), (1, False)])
def test_pi_block_guard_reads_only_its_own_arm(port, refused):
    # |1, path 0, e>: the doubly excited sector is populated in arm 0 only
    reg = Register(
        [
            Subsystem("field1", KIND_FIELD),
            Subsystem("path", KIND_PATH, dim=2),
            Subsystem("atom", KIND_ATOM_GE),
        ]
    )
    amps = np.zeros(8)
    amps[reg.index_of_labels(["1", 0, "e"])] = 1.0
    sch = bare_scheme(reg, amps, [el.FieldPiBlock("atom", "field1", port)])
    if refused:
        with pytest.raises(InvalidConfigurationError):
            schemes.propagate(sch)
    else:
        assert schemes.propagate(sch).amplitudes.tobytes() == amps.astype(complex).tobytes()


def test_run_without_detectors_still_propagates():
    reg = Register([Subsystem("path", KIND_PATH, dim=2)])
    sch = bare_scheme(reg, [SQ2, SQ2], [el.Reroute(0, 1)])
    with pytest.raises(InvalidConfigurationError, match="already occupied"):
        run(sch)


def test_initial_state_matches_spec():
    sch = build_ghz_atoms(2)
    st = initial_state(sch)
    assert basis_amplitude(
        st, {"atom1": "L", "atom2": "L", "path": 0, "pol": "L"}
    ) == pytest.approx(1.0)


def test_propagate_upto_prefix():
    sch = build_ghz_atoms(2)
    after_first = schemes.propagate(sch, upto=1)
    # one balanced splitter in: photon amplitude split across ports 0 and 1
    p0 = basis_amplitude(after_first, {"atom1": "L", "atom2": "L", "path": 0, "pol": "L"})
    p1 = basis_amplitude(after_first, {"atom1": "L", "atom2": "L", "path": 1, "pol": "L"})
    assert p0 == pytest.approx(SQ2)
    assert p1 == pytest.approx(SQ2)


# ---------------------------------------------------------------- retry walk


def expected_steps_oracle(p, n):
    """Reflecting-origin hitting time, exactly: closed form via step differences."""
    p = Fraction(p)
    if p == 1:
        return Fraction(n)
    if p == Fraction(1, 2):
        return Fraction(n * (n + 2))
    r = (1 - p) / p
    return sum(r**k + (r**k - 1) / (p * (r - 1)) for k in range(1, n + 1))


def expected_steps_recurrence(p, n):
    """``E_1 + ... + E_n`` with ``E_k = (1 + q E_{k-1}) / p`` and ``E_0 = 1``, exactly."""
    p = Fraction(p)
    hop, total = Fraction(1), Fraction(0)
    for _ in range(n):
        hop = (1 + (1 - p) * hop) / p
        total += hop
    return total


def test_retry_walk_expected_steps_closed_form():
    for p in (1e-3, 0.1, 0.3, 0.45, 0.5, 0.6, 0.8, 0.95, 1.0):
        for n in (1, 2, 4, 8, 30, 100, 120):
            exact = expected_steps_recurrence(p, n)
            assert exact == expected_steps_oracle(p, n)
            res = retry_walk(RetryWalkParams(p_flip=p, n_cavities=n, max_steps=n))
            if exact > sys.float_info.max:  # only p = 1e-3 at n = 120
                assert res.expected_steps == math.inf
            else:
                assert res.expected_steps == pytest.approx(float(exact), rel=1e-12)
            assert res.conditional_fidelity == 1.0


def exact_success_prob(p, n, max_steps):
    """The walk's absorbed mass after ``max_steps`` steps, as an exact rational.

    ``p = a / d`` exactly, so after ``t`` steps every mass times ``d**t`` is an
    integer: cavities send ``a`` forward and ``d - a`` back, the source and
    the detector keep all ``d``.
    """
    a, d = p.as_integer_ratio()
    mass = [0] * (n + 2)
    mass[1] = 1
    for _ in range(max_steps):
        step = [0] * (n + 2)
        step[1] += d * mass[0]
        step[n + 1] += d * mass[n + 1]
        for j in range(1, n + 1):
            step[j + 1] += a * mass[j]
            step[j - 1] += (d - a) * mass[j]
        mass = step
    return Fraction(mass[n + 1], d**max_steps)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.0, 1.0, exclude_min=True) | st.floats(1e-12, 1e-3),
    st.integers(1, 12),
    st.integers(1, 200),
)
def test_retry_walk_success_prob_matches_the_exact_walk(p, n, max_steps):
    # the float walk may stop once 1 - 1e-15 is absorbed; the exact one never does
    res = retry_walk(RetryWalkParams(p_flip=p, n_cavities=n, max_steps=max_steps))
    exact = float(exact_success_prob(p, n, max_steps))
    assert res.success_prob == pytest.approx(exact, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("p,n", [(0.999, 100), (0.9999, 100), (0.999, 50), (0.999999999, 1000)])
def test_retry_walk_success_prob_is_at_most_one(p, n):
    # the in-place steps round each of these walks' absorbed mass past 1
    assert retry_walk(RetryWalkParams(p_flip=p, n_cavities=n)).success_prob <= 1.0


def test_retry_walk_success_prob_monotone_in_budget():
    probs = [
        retry_walk(RetryWalkParams(0.6, 4, max_steps=m)).success_prob
        for m in (4, 8, 16, 64, 256)
    ]
    assert all(b >= a - 1e-15 for a, b in zip(probs, probs[1:]))
    assert probs[0] > 0.0
    assert probs[-1] == pytest.approx(1.0, abs=1e-6)


def test_retry_walk_needs_enough_steps():
    # walk cannot reach the absorbing end in fewer than n steps
    res = retry_walk(RetryWalkParams(0.9, 6, max_steps=5))
    assert res.success_prob == 0.0
    res = retry_walk(RetryWalkParams(1.0, 6, max_steps=6))
    assert res.success_prob == pytest.approx(1.0)


def test_retry_walk_parameter_guards():
    with pytest.raises(DegenerateCouplingError):
        RetryWalkParams(p_flip=0.0, n_cavities=3)
    with pytest.raises(ParameterError):
        RetryWalkParams(p_flip=1.2, n_cavities=3)
    with pytest.raises(ParameterError):
        RetryWalkParams(p_flip=-0.1, n_cavities=3)
    with pytest.raises(ParameterError):
        RetryWalkParams(p_flip=0.5, n_cavities=0)
    with pytest.raises(ParameterError):
        RetryWalkParams(p_flip=0.5, n_cavities=2, max_steps=0)


def test_retry_walk_budgets_refuse_before_allocating(monkeypatch):
    params = RetryWalkParams(p_flip=0.5, n_cavities=2)
    # buffers for 10**15 walkers could not be allocated: the check comes first
    with pytest.raises(ParameterError, match="MAX_MC_TRAJECTORIES"):
        retry_walk_mc(params, 10**15, seed=1)
    monkeypatch.setattr(schemes, "MAX_MC_TRAJECTORIES", 5)
    assert 0.0 <= retry_walk_mc(params, 5, seed=1) <= 1.0
    with pytest.raises(ParameterError, match="MAX_MC_TRAJECTORIES"):
        retry_walk_mc(params, 6, seed=1)
    monkeypatch.setattr(schemes, "MAX_WALK_CAVITIES", 3)
    RetryWalkParams(p_flip=0.5, n_cavities=3)
    with pytest.raises(ParameterError, match="MAX_WALK_CAVITIES"):
        RetryWalkParams(p_flip=0.5, n_cavities=4)
    monkeypatch.setattr(schemes, "MAX_WALK_STEPS", 5)
    RetryWalkParams(p_flip=0.5, n_cavities=2, max_steps=5)
    with pytest.raises(ParameterError, match="MAX_WALK_STEPS"):
        RetryWalkParams(p_flip=0.5, n_cavities=2, max_steps=6)


def full_walk_mc(params, trajectories, seed):
    """``retry_walk_mc``'s walk run for every step until no walker is live."""
    rng = np.random.default_rng(seed)
    pos = np.ones(trajectories, dtype=np.int64)
    for _ in range(params.max_steps):
        if not len(pos):
            break
        pos = np.abs(pos + np.where(rng.random(len(pos)) < params.p_flip, 1, -1))
        pos = pos[pos <= params.n_cavities]
    return (trajectories - len(pos)) / trajectories


@settings(max_examples=150, deadline=None)
@given(
    st.floats(0.01, 1.0),
    st.integers(1, 30),
    st.integers(1, 120),
    st.integers(1, 400),
    st.integers(0, 2**32 - 1),
)
def test_mc_walk_that_stops_early_matches_the_full_walk(p, n, max_steps, trajectories, seed):
    params = RetryWalkParams(p_flip=p, n_cavities=n, max_steps=max_steps)
    assert retry_walk_mc(params, trajectories, seed) == full_walk_mc(params, trajectories, seed)


def test_mc_walk_stops_once_no_walker_can_reach_the_detector(monkeypatch):
    # p = 0.01 keeps 1,000 walkers near the source, so of 400 steps over 50 cavities
    # the last ~40 are never drawn
    params = RetryWalkParams(p_flip=0.01, n_cavities=50, max_steps=400)
    draws = []
    default_rng = np.random.default_rng

    def counting_rng(seed):
        rng = default_rng(seed)
        random = rng.random

        class Counting:
            def random(self, out):
                draws.append(len(out))
                return random(out=out)

        return Counting()

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    estimate = retry_walk_mc(params, 1_000, seed=3)
    monkeypatch.undo()
    assert estimate == full_walk_mc(params, 1_000, 3) == 0.0
    assert 340 <= len(draws) < 400


@pytest.mark.parametrize(
    "trajectories,seed,message",
    [(0, 1, "need at least one trajectory, got 0"), (-3, 1, "need at least one trajectory, got -3"),
     (5, -1, "seed must be non-negative, got -1")],
)
def test_retry_walk_mc_refuses_no_walkers_and_a_negative_seed(trajectories, seed, message):
    with pytest.raises(ParameterError) as info:
        retry_walk_mc(RetryWalkParams(0.5, 2), trajectories, seed)
    assert str(info.value) == message


def test_mc_walker_steps_budget_bounds_walkers_times_steps(monkeypatch):
    params = RetryWalkParams(p_flip=0.5, n_cavities=2, max_steps=6)
    monkeypatch.setattr(schemes, "MAX_MC_WALKER_STEPS", 12)
    assert 0.0 <= retry_walk_mc(params, 2, seed=1) <= 1.0

    def refuse(*args):
        raise AssertionError("walkers were set up")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    with pytest.raises(ParameterError, match="MAX_MC_WALKER_STEPS = 12"):
        retry_walk_mc(params, 3, seed=1)
    # the walker budget keeps its own message: it is checked first
    monkeypatch.setattr(schemes, "MAX_MC_TRAJECTORIES", 2)
    with pytest.raises(ParameterError, match="exceed MAX_MC_TRAJECTORIES"):
        retry_walk_mc(params, 3, seed=1)


def test_mc_walker_steps_budget_admits_the_default_million_walkers(monkeypatch):
    assert schemes.MAX_MC_WALKER_STEPS == 10**6 * RetryWalkParams(0.5, 1).max_steps
    monkeypatch.setattr(np.random, "default_rng", None)  # a walk that starts fails at once
    params = RetryWalkParams(p_flip=0.01, n_cavities=1000, max_steps=100_000)
    with pytest.raises(ParameterError, match="MAX_MC_WALKER_STEPS"):
        retry_walk_mc(params, 10_000_000, seed=1)


def test_builders_refuse_an_oversized_register_before_their_tables(monkeypatch):
    monkeypatch.setattr(qstate, "MAX_TOTAL_DIM", 2**15)
    build_field_graph("linear", 8)  # 15 subsystems
    built = []
    monkeypatch.setattr(schemes, "LocalCorrection", lambda *a: built.append(a))
    monkeypatch.setattr(schemes, "_hadamard_mesh", lambda *a: built.append(a))
    with pytest.raises(ParameterError, match="MAX_TOTAL_DIM"):
        build_field_graph("ring", 8)  # 16 subsystems
    with pytest.raises(ParameterError, match="MAX_TOTAL_DIM"):
        build_w_pow2(16)  # a W target over 16 atoms
    assert built == []


@pytest.mark.parametrize(
    "build,qubits",
    [
        (lambda: build_ghz_atoms(10**30), 10**30),
        (lambda: build_w_pow2(2**80), 2**80),
        (lambda: build_cluster_atoms(10**12), 10**12),
        (lambda: build_ghz_fields(10**12), 10**12),
        (lambda: build_field_graph("ring", 10**12), 2 * 10**12),
        (lambda: build_field_graph("star", 10**12), 2 * 10**12 - 1),
        (lambda: build_field_graph(graph=Graph(10**12)), 2 * 10**12),
    ],
    ids=["ghz-atoms", "w", "cluster", "ghz-fields", "ring", "star", "graph"],
)
def test_a_qubit_count_past_the_budget_is_refused_unlisted(build, qubits, monkeypatch):
    def refuse(n):
        raise AssertionError("an edge list was built")

    for kind in verify.GRAPH_FAMILIES:
        monkeypatch.setitem(verify.GRAPH_FAMILIES, kind, refuse)
    with pytest.raises(ParameterError) as info:
        build()
    assert str(info.value) == (
        f"register dimension 2**{qubits} or more exceeds MAX_TOTAL_DIM = {qstate.MAX_TOTAL_DIM}"
    )


def test_retry_walk_mc_tracks_analytic():
    for p, n in ((0.5, 2), (0.8, 4), (0.95, 3)):
        params = RetryWalkParams(p_flip=p, n_cavities=n, max_steps=200)
        analytic = retry_walk(params).success_prob
        mc = retry_walk_mc(params, trajectories=60_000, seed=42)
        assert abs(mc - analytic) < 0.01


def test_retry_walk_mc_is_seed_deterministic():
    # budget chosen so the success probability sits strictly inside (0, 1)
    params = RetryWalkParams(0.5, 4, max_steps=20)
    a = retry_walk_mc(params, trajectories=10_000, seed=9)
    b = retry_walk_mc(params, trajectories=10_000, seed=9)
    c = retry_walk_mc(params, trajectories=10_000, seed=10)
    assert a == b
    assert 0.0 < a < 1.0
    assert a != c


def reference_retry_walk_mc(params, trajectories, seed):
    """The walk as first written: fresh arrays every step, absorbed walkers dropped."""
    rng = np.random.default_rng(seed)
    n, p = params.n_cavities, params.p_flip
    pos = np.ones(trajectories, dtype=np.int64)
    absorbed = 0
    for _ in range(params.max_steps):
        if pos.size == 0:
            break
        forward = rng.random(pos.size) < p
        pos = np.where(pos == 0, 1, np.where(forward, pos + 1, pos - 1))
        done = pos == n + 1
        hits = int(np.count_nonzero(done))
        if hits:
            absorbed += hits
            pos = pos[~done]
    return absorbed / trajectories


@pytest.mark.parametrize("chunk", [1_000, 65_536, 100_003])
@pytest.mark.parametrize("trajectories", [1, 65_535, 65_536, 65_537, 131_073])
def test_the_chunked_mc_walk_matches_the_unchunked_walk(chunk, trajectories, monkeypatch):
    # step limits that leave walkers alive, and one walk run until every walker is absorbed
    monkeypatch.setattr(schemes, "_MC_CHUNK", chunk)
    for params, seed in (
        (RetryWalkParams(0.5, 4, max_steps=20), 9),
        (RetryWalkParams(0.55, 30, max_steps=50), 2**40 + 3),
        (RetryWalkParams(0.8, 4, max_steps=200), 7),
    ):
        got = retry_walk_mc(params, trajectories, seed)
        assert got == unchunked_retry_walk_mc(params, trajectories, seed)


def test_retry_walk_positions_fit_int16():
    # a walker stays within 0 .. MAX_WALK_CAVITIES + 1
    assert np.iinfo(np.int16).max > schemes.MAX_WALK_CAVITIES + 1


@pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
def test_retry_walk_mc_matches_reference_at_the_cavity_cap(seed):
    params = RetryWalkParams(p_flip=0.97, n_cavities=schemes.MAX_WALK_CAVITIES, max_steps=1_070)
    got = retry_walk_mc(params, 2_000, seed)
    assert 0.0 < got < 1.0  # walkers reach the last cavity and some are absorbed
    assert got == reference_retry_walk_mc(params, 2_000, seed)


@settings(max_examples=150, deadline=None)
@given(
    p=st.floats(1e-3, 1.0),
    n=st.integers(1, 8),
    max_steps=st.integers(1, 300),
    trajectories=st.integers(1, 3000),
    seed=st.integers(0, 2**63),
)
def test_retry_walk_mc_matches_reference_exactly(p, n, max_steps, trajectories, seed):
    params = RetryWalkParams(p_flip=p, n_cavities=n, max_steps=max_steps)
    got = retry_walk_mc(params, trajectories, seed)
    assert got == reference_retry_walk_mc(params, trajectories, seed)
