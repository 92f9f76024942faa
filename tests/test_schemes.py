"""Scheme builders, the measurement loop, meshes, and the retry walk."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavnet import elements as el
from cavnet import qstate, schemes, verify
from cavnet.errors import (
    DegenerateCouplingError,
    InvalidConfigurationError,
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
    product_state,
)
from cavnet.schemes import (
    RetryWalkParams,
    Scheme,
    build_cluster_atoms,
    build_field_cz_pair,
    build_field_graph,
    build_ghz_atoms,
    build_ghz_fields,
    build_w3_deterministic,
    build_w3_probabilistic,
    build_w_pow2,
    initial_state,
    mesh_matrix,
    retry_walk,
    retry_walk_mc,
    run,
    run_report,
)
from cavnet.verify import Graph, fidelity, ghz_target, stabilizer_expectations, w_target

SQ2 = np.sqrt(0.5)


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


def test_unitary_mesh_handles_random_unitaries():
    rng = np.random.default_rng(11)
    for dim in (2, 3, 4):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, r = np.linalg.qr(m)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        items = schemes._unitary_mesh(q, tuple(range(dim)))
        assert np.abs(mesh_matrix(items, dim) - q).max() < 1e-10


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


def test_field_graph_combo_count_scales_with_edges():
    # star: only the leaves' atoms are measured jointly with the hub pass
    sch = build_field_graph(kind="ring", n=3)
    assert len(run(sch)) == 8


# ---------------------------------------------------------------- run loop


def test_run_without_detectors_returns_empty():
    reg = Register([Subsystem("atom1", KIND_ATOM_GE)])
    sch = Scheme(
        name="bare",
        n=1,
        register=reg,
        initial=(( ("atom1",), np.array([1.0, 0.0]) ),),
        initial_spec=(("atom1", "g"),),
        elements=(),
        detectors=(),
        corrections={},
        targets={},
        flying=(),
    )
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
    return Scheme(
        name="bare",
        n=1,
        register=reg,
        initial=((reg.labels, np.asarray(amplitudes, dtype=complex)),),
        initial_spec=(),
        elements=(),
        detectors=tuple(el.Detector(f"D{p + 1}", "path", p) for p in ports),
        corrections={},
        targets={},
        flying=("pol",),
    )


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


@pytest.mark.parametrize("pol,scanned", [("L", ["L"]), ("R", ["L", "R"])])
def test_flyer_strip_stops_at_the_dominant_outcome(monkeypatch, pol, scanned):
    # |L,0,pol>: the polarization is a product with the rest
    amps = np.zeros(8)
    amps[0 if pol == "L" else 1] = 1.0
    masses = count_calls(monkeypatch, "projection_probability")
    projections = count_calls(monkeypatch, "project_out")
    (report,) = run(bare_photon_scheme(amps, ports=(0,)))
    assert masses == scanned
    assert projections == [0, pol]
    assert report.post_state.register.labels == ("atom1",)
    assert report.post_state.amplitude(["L"]) == pytest.approx(1.0)


def test_flyer_strip_error_names_the_largest_mass():
    # sqrt(0.3)|L,0,L> + sqrt(0.7)|R,0,R>: the largest polarization mass is 0.7
    amps = np.zeros(8)
    amps[0], amps[5] = np.sqrt(0.3), np.sqrt(0.7)
    with pytest.raises(LossyWiringError, match=r"dominant outcome probability 0\.7"):
        run(bare_photon_scheme(amps, ports=(0,)))


def test_field_pi_block_rejects_double_excitation():
    reg = Register(
        [
            Subsystem("field1", KIND_FIELD),
            Subsystem("atom", KIND_ATOM_GE),
        ]
    )
    sch = Scheme(
        name="bad",
        n=1,
        register=reg,
        initial=((("field1",), np.array([0.0, 1.0])), (("atom",), np.array([0.0, 1.0]))),
        initial_spec=(("field1", "1"), ("atom", "e")),
        elements=(el.FieldPiBlock("atom", "field1"),),
        detectors=(),
        corrections={},
        targets={},
        flying=(),
    )
    with pytest.raises(InvalidConfigurationError):
        schemes.propagate(sch)


def test_reroute_rejects_occupied_destination():
    reg = Register([Subsystem("path", KIND_PATH, dim=2)])
    init = np.array([SQ2, SQ2])
    sch = Scheme(
        name="bad",
        n=0,
        register=reg,
        initial=((("path",), init),),
        initial_spec=(("path", "superposed"),),
        elements=(el.Reroute(0, 1),),
        detectors=(),
        corrections={},
        targets={},
        flying=(),
    )
    with pytest.raises(InvalidConfigurationError):
        schemes.propagate(sch)


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
    """Reflecting-origin hitting time: closed form via step differences."""
    if p == 1.0:
        return float(n)
    r = (1.0 - p) / p
    if p == 0.5:
        return float(n * (n + 2))
    total = 0.0
    for k in range(1, n + 1):
        total += r**k + (r**k - 1.0) / (p * (r - 1.0))
    return total


def test_retry_walk_expected_steps_closed_form():
    for p in (0.5, 0.6, 0.8, 0.95, 1.0):
        for n in (1, 2, 4, 8):
            res = retry_walk(RetryWalkParams(p_flip=p, n_cavities=n))
            assert res.expected_steps == pytest.approx(
                expected_steps_oracle(p, n), rel=1e-12
            )
            assert res.conditional_fidelity == 1.0


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


# ---------------------------------------------------------------- reporting


def test_run_report_is_json_serializable():
    payload = run_report(build_ghz_atoms(2))
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["scheme"]["name"] == "ghz-atoms"
    assert back["scheme"]["n"] == 2
    assert len(back["outcomes"]) == 2
    types = [row["type"] for row in back["scheme"]["elements"]]
    assert types[0] == "BS"
    for row in back["outcomes"]:
        assert row["probability"] == pytest.approx(0.5, abs=1e-12)
        assert isinstance(row["corrected_state"], list)
