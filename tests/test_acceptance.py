"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Run with ``pytest -v tests/test_acceptance.py``: the verbose listing gives
one pass/fail line per criterion.
"""

import csv
import time
from pathlib import Path

import numpy as np

from cavnet import schemes
from cavnet.iomodel import (
    PulseParams,
    TimeGrid,
    adiabatic_output_coefficients,
    default_grid,
    flip_probability_sweep,
    integrate_pulse,
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
    projection_probability,
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
    retry_walk,
    retry_walk_mc,
    run,
)
from cavnet.verify import (
    Graph,
    canonicalize_single_excitation,
    fidelity,
    stabilizer_expectations,
    w_target,
)

GOLDEN = Path(__file__).parent / "golden" / "flip_sweep.csv"

PROB_TOL = 1e-9
STATE_TOL = 1e-9


def by_id(reports):
    return {r.detector_id: r for r in reports}


def amplitude(state, assignment):
    labels = [assignment[lab] for lab in state.register.labels]
    return state.amplitude(labels)


def strip_global_phase(amps, anchor_index):
    lead = amps[anchor_index]
    assert abs(lead) > 1e-12
    return amps * (abs(lead) / lead)


def test_criterion_01_adiabatic_coefficients():
    r, t = adiabatic_output_coefficients(PulseParams(2.0, 2.0, 1.0, 1.0))
    assert r == 0.0 and t == 1.0
    rng = np.random.default_rng(101)
    for _ in range(500):
        gl, gr = rng.uniform(1e-3, 10.0, size=2)
        r, t = adiabatic_output_coefficients(PulseParams(gl, gr, 1.0, 1.0))
        assert abs(r * r + t * t - 1.0) <= 1e-12
    print("PASS criterion 1: adiabatic coefficients exact and norm-conserving")


def test_criterion_02_flip_probability_sweep():
    g_values = [0.5, 1.0, 2.0, 5.0]
    tau_values = list(np.geomspace(0.1, 40.0, 20))

    t0 = time.perf_counter()
    rows = flip_probability_sweep(g_values, tau_values)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"80-point sweep took {elapsed:.1f} s"

    # strong coupling, long pulse: high-confidence flip
    res = integrate_pulse(PulseParams(5.0, 5.0, 1.0, 10.0))
    assert res.P_flip >= 0.95

    # monotone in kappa*tau for every coupling, flux conserved everywhere
    for gi, g in enumerate(g_values):
        block = rows[gi * len(tau_values) : (gi + 1) * len(tau_values)]
        flips = [row.P_flip for row in block]
        assert all(b > a for a, b in zip(flips, flips[1:])), f"g={g} not monotone"
        for row in block:
            assert abs(row.P_flip + row.P_noflip - 1.0) <= 1e-6

    # golden file agrees with a half-step re-integration to a millionth
    with GOLDEN.open() as fh:
        golden = list(csv.DictReader(fh))
    assert len(golden) == 80
    for rec in golden:
        params = PulseParams(
            g_L=float(rec["g_over_kappa"]),
            g_R=float(rec["g_over_kappa"]),
            kappa=1.0,
            tau=float(rec["kappa_tau"]),
        )
        base = default_grid(params)
        fine = TimeGrid(base.t_start, base.t_end, base.step / 2.0)
        res = integrate_pulse(params, grid=fine)
        assert abs(res.P_flip - float(rec["P_flip"])) <= 1e-6
    print("PASS criterion 2: sweep timing, threshold, monotonicity, golden file")


def test_criterion_03_ghz_atoms():
    for n in (2, 4, 6):
        sch = build_ghz_atoms(n)
        reports = by_id(run(sch))
        assert set(reports) == {"D1", "D2"}
        pattern = "".join("R" if i % 4 in (0, 3) else "L" for i in range(n))
        lead = {f"atom{i + 1}": pattern[i] for i in range(n)}
        flip = {
            f"atom{i + 1}": ("L" if pattern[i] == "R" else "R") for i in range(n)
        }
        for det, sign in (("D1", 1.0), ("D2", -1.0)):
            rep = reports[det]
            assert abs(rep.probability - 0.5) <= PROB_TOL
            amps = rep.post_state.amplitudes
            a_lead = amplitude(rep.post_state, lead)
            a_flip = amplitude(rep.post_state, flip)
            assert abs(a_lead - 1 / np.sqrt(2)) <= STATE_TOL
            assert abs(a_flip - sign / np.sqrt(2)) <= STATE_TOL
            assert np.sort(np.abs(amps))[:-2].max() <= STATE_TOL
            tgt = sch.targets[det]
            assert abs(fidelity(rep.corrected_state, tgt) - 1.0) <= STATE_TOL
    print("PASS criterion 3: GHZ atom probabilities, branch states, corrections")


def test_criterion_04_w_states():
    for n in (2, 4, 8):
        reports = run(build_w_pow2(n))
        assert len(reports) == n
        for rep in reports:
            assert abs(rep.probability - 1.0 / n) <= PROB_TOL
            fixed, _ = canonicalize_single_excitation(rep.post_state)
            tgt = w_target(n, register=rep.post_state.register)
            assert abs(fidelity(fixed, tgt) - 1.0) <= STATE_TOL
    print("PASS criterion 4: W distribution probabilities and canonical fidelity")


def test_criterion_05_w3_probabilistic():
    sch = build_w3_probabilistic()
    reports = by_id(run(sch))
    assert abs(reports["D5"].probability - 0.25) <= PROB_TOL
    assert reports["D5"].fidelity_vs_target is None
    for j in (1, 2, 3, 4):
        rep = reports[f"D{j}"]
        tgt = sch.targets[f"D{j}"]
        assert abs(fidelity(rep.corrected_state, tgt) - 1.0) <= STATE_TOL
    print("PASS criterion 5: lossy-port probability and conditional fidelity")


def test_criterion_06_w3_deterministic():
    sch = build_w3_deterministic()
    reports = run(sch)
    assert len(reports) == 3
    for rep in reports:
        assert abs(rep.probability - 1.0 / 3.0) <= PROB_TOL
        tgt = sch.targets[rep.detector_id]
        assert abs(fidelity(rep.corrected_state, tgt) - 1.0) <= STATE_TOL
    print("PASS criterion 6: deterministic three-atom W on every detector")


def test_criterion_07_cluster_chain():
    z = np.diag([1.0, -1.0]).astype(complex)
    for n in range(1, 7):
        sch = build_cluster_atoms(n)
        reports = by_id(run(sch))
        graph = Graph.path(n)
        for det in ("D1", "D2"):
            rep = reports[det]
            assert abs(rep.probability - 0.5) <= PROB_TOL
            expect = stabilizer_expectations(rep.corrected_state, graph)
            assert np.abs(expect - 1.0).max() <= STATE_TOL
        if n == 2:
            d1 = reports["D1"].post_state
            quoted = {
                ("L", "L"): 0.5,
                ("L", "R"): 0.5,
                ("R", "L"): 0.5,
                ("R", "R"): -0.5,
            }
            for (a1, a2), val in quoted.items():
                got = amplitude(d1, {"atom1": a1, "atom2": a2})
                assert abs(got - val) <= STATE_TOL
        # second outcome is exactly the first with a Z on the last atom
        zd1 = apply_unitary(reports["D1"].post_state, [f"atom{n}"], z)
        diff = np.abs(zd1.amplitudes - reports["D2"].post_state.amplitudes).max()
        assert diff <= STATE_TOL
    print("PASS criterion 7: cluster stabilizers, quoted amplitudes, Z relation")


def test_criterion_08_ghz_fields():
    for n in (2, 4, 6):
        sch = build_ghz_fields(n)
        reports = by_id(run(sch))
        pattern = "".join("1" if i % 4 in (0, 3) else "0" for i in range(n))
        lead = {f"field{i + 1}": pattern[i] for i in range(n)}
        flip = {f"field{i + 1}": ("0" if pattern[i] == "1" else "1") for i in range(n)}
        for det, sign in (("D1", 1.0), ("D2", -1.0)):
            rep = reports[det]
            assert abs(rep.probability - 0.5) <= PROB_TOL
            state = rep.post_state
            lead_idx = state.register.index_of_labels(
                [lead[lab] for lab in state.register.labels]
            )
            amps = strip_global_phase(state.amplitudes, lead_idx)
            a_lead = amps[lead_idx]
            flip_idx = state.register.index_of_labels(
                [flip[lab] for lab in state.register.labels]
            )
            assert abs(a_lead - 1 / np.sqrt(2)) <= STATE_TOL
            assert abs(amps[flip_idx] - sign / np.sqrt(2)) <= STATE_TOL
            assert np.sort(np.abs(amps))[:-2].max() <= STATE_TOL
            tgt = sch.targets[det]
            assert abs(fidelity(rep.corrected_state, tgt) - 1.0) <= STATE_TOL
    print("PASS criterion 8: field GHZ branches up to global phase, corrections")


def test_criterion_09_field_cz():
    sch = build_field_cz_pair()
    joint = schemes.propagate(sch)
    signs = {
        ("0", "0", "g"): 1, ("0", "1", "g"): 1, ("1", "0", "g"): 1, ("1", "1", "g"): -1,
        ("0", "0", "e"): 1, ("0", "1", "e"): 1, ("1", "0", "e"): -1, ("1", "1", "e"): 1,
    }
    anchor = joint.register.index_of_labels(["0", "0", "g"])
    amps = strip_global_phase(joint.amplitudes, anchor)
    unit = 1.0 / (2.0 * np.sqrt(2.0))
    for (f1, f2, atom), sgn in signs.items():
        idx = joint.register.index_of_labels([f1, f2, atom])
        assert abs(amps[idx] - sgn * unit) <= STATE_TOL
    reports = by_id(run(sch))
    for det in ("Dg", "De"):
        rep = reports[det]
        assert abs(rep.probability - 0.5) <= PROB_TOL
        tgt = sch.targets[det]
        assert abs(fidelity(rep.corrected_state, tgt) - 1.0) <= STATE_TOL
    print("PASS criterion 9: controlled-phase amplitudes and both outcomes")


def test_criterion_10_field_graphs():
    for kind in ("star", "linear", "ring"):
        for n in (3, 4, 5):
            sch = build_field_graph(kind=kind, n=n)
            reports = run(sch)
            target_graph = {
                "star": Graph.star,
                "linear": Graph.path,
                "ring": Graph.ring,
            }[kind](n)
            total = 0.0
            for rep in reports:
                total += rep.probability
                expect = stabilizer_expectations(rep.corrected_state, target_graph)
                assert np.abs(expect - 1.0).max() <= STATE_TOL, (
                    f"{kind} n={n} {rep.detector_id}"
                )
            assert abs(total - 1.0) <= PROB_TOL
    print("PASS criterion 10: graph stabilizers for every outcome combination")


def test_criterion_11_retry_walk():
    for p in (0.5, 0.8, 0.95):
        for i, n in enumerate((2, 4, 8)):
            params = RetryWalkParams(p_flip=p, n_cavities=n)
            res = retry_walk(params)
            assert res.conditional_fidelity == 1.0
            mc = retry_walk_mc(params, trajectories=1_000_000, seed=1000 + i)
            assert abs(res.success_prob - mc) < 0.01
    print("PASS criterion 11: walk statistics against one-million-shot sampling")


def test_criterion_12_randomized_state_properties():
    rng = np.random.default_rng(424242)
    kinds = [KIND_ATOM_LR, KIND_ATOM_GE, KIND_FIELD, KIND_POL]
    t0 = time.perf_counter()
    for _ in range(1000):
        subs = []
        for i in range(rng.integers(1, 4)):
            if rng.random() < 0.3:
                subs.append(Subsystem(f"s{i}", KIND_PATH, dim=int(rng.integers(2, 5))))
            else:
                subs.append(Subsystem(f"s{i}", kinds[rng.integers(len(kinds))]))
        reg = Register(subs)
        vec = rng.normal(size=reg.total_dim) + 1j * rng.normal(size=reg.total_dim)
        state = PureState(reg, vec / np.linalg.norm(vec))
        k = int(rng.integers(1, len(reg) + 1))
        targets = list(rng.choice(reg.labels, size=k, replace=False))
        joint = int(np.prod([reg.subsystem(t).dim for t in targets]))
        m = rng.normal(size=(joint, joint)) + 1j * rng.normal(size=(joint, joint))
        q, r = np.linalg.qr(m)
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        moved = apply_unitary(state, targets, u)
        assert abs(moved.norm - 1.0) <= 1e-9
        probe = targets[0]
        probs = [
            projection_probability(moved, probe, lab)
            for lab in reg.subsystem(probe).basis_labels
        ]
        assert abs(sum(probs) - 1.0) <= 1e-9
        back = apply_unitary(moved, targets, u.conj().T)
        assert np.abs(back.amplitudes - state.amplitudes).max() <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"PASS criterion 12: 1000 randomized state-layer trials in {elapsed:.1f} s")
