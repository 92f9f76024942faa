"""Detection in ``schemes.run``: the path-first buffer against the flat reference loop."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavnet import elements as el
from cavnet import schemes
from cavnet.errors import InvalidLabelError, LossyWiringError
from cavnet.qstate import (
    KIND_ATOM_LR,
    KIND_FIELD,
    KIND_PATH,
    KIND_POL,
    PureState,
    Register,
    Subsystem,
)
from cavnet.verify import Graph, LocalCorrection
from support import bare_scheme, reference_run

SQ2 = np.sqrt(0.5)


def hand_wired(detector_order):
    """(atom1, path[2], pol) through a one-cavity interferometer, detected in ``detector_order``.

    The first BS opens two arms, arm 1 passes the atom's cavity, and the
    second BS recombines them; ``detector_order`` lists which of the
    ``"atom1"`` and ``"path"`` groups comes first.  Outcomes whose atom
    reads R get an X on the polarization and a target.
    """
    register = Register(
        [Subsystem("atom1", KIND_ATOM_LR), Subsystem("path", KIND_PATH, 2), Subsystem("pol", KIND_POL)]
    )
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0  # |L, 0, L>
    groups = {
        "atom1": [el.Detector("AL", "atom1", "L"), el.Detector("AR", "atom1", "R")],
        "path": [el.Detector("D1", "path", 0), el.Detector("D2", "path", 1)],
    }
    detectors = [det for label in detector_order for det in groups[label]]
    ids = [combo_id for combo_id, _ in schemes._outcome_combos(detectors)]
    pol_l = PureState(Register([Subsystem("pol", KIND_POL)]), np.array([1.0, 0.0], dtype=complex))
    return bare_scheme(
        register,
        amps,
        [el.BS(0.5, (0, 1)), el.CavityAtomBlock("atom1", port=1), el.BS(0.5, (0, 1))],
        detectors,
        n=1,
        corrections={i: LocalCorrection((("pol", "X"),) if "AR" in i else ()) for i in ids},
        targets={i: pol_l if "AR" in i else None for i in ids},
    )


BUILDERS = {
    "ghz-atoms2": lambda: schemes.build_ghz_atoms(2),
    "ghz-atoms6": lambda: schemes.build_ghz_atoms(6),
    "w2": lambda: schemes.build_w_pow2(2),
    "w8": lambda: schemes.build_w_pow2(8),
    "w3-prob": schemes.build_w3_probabilistic,
    "w3-det": schemes.build_w3_deterministic,
    "cluster1": lambda: schemes.build_cluster_atoms(1),
    "cluster5": lambda: schemes.build_cluster_atoms(5),
    "ghz-fields2": lambda: schemes.build_ghz_fields(2),
    "ghz-fields6": lambda: schemes.build_ghz_fields(6),
    "field-cz": schemes.build_field_cz_pair,
    "star4": lambda: schemes.build_field_graph("star", 4),
    "linear4": lambda: schemes.build_field_graph("linear", 4),
    "ring3": lambda: schemes.build_field_graph("ring", 3),
    "custom5": lambda: schemes.build_field_graph(graph=Graph(5, [(0, 1), (1, 2), (2, 3), (0, 4)])),
    "path-then-atom": lambda: hand_wired(("path", "atom1")),
    "atom-then-path": lambda: hand_wired(("atom1", "path")),
    "w16": lambda: schemes.build_w_pow2(16),
    "ghz-fields18": lambda: schemes.build_ghz_fields(18),
}


def bits(x):
    return None if x is None else np.float64(x).tobytes()


@pytest.mark.parametrize("name", BUILDERS)
def test_run_matches_the_flat_reference_detection(name, monkeypatch):
    scheme = BUILDERS[name]()

    def refuse(*args, **kwargs):
        raise AssertionError("run made the register-order state")

    monkeypatch.setattr(schemes, "propagate", refuse)  # run detects on the path-first buffer only
    got = schemes.run(scheme)
    monkeypatch.undo()

    want = reference_run(scheme)
    assert [r.detector_id for r in got] == [r.detector_id for r in want]
    for a, b in zip(got, want):
        assert bits(a.probability) == bits(b.probability)
        assert bits(a.fidelity_vs_target) == bits(b.fidelity_vs_target)
        assert a.correction == b.correction
        for x, y in ((a.post_state, b.post_state), (a.corrected_state, b.corrected_state)):
            assert (x is None) == (y is None)
            if x is not None:
                assert x.register == y.register
                assert x.amplitudes.tobytes() == y.amplitudes.tobytes()


@st.composite
def wired_detections(draw):
    """A hand-wired scheme over 1-3 qubits and a path of 2-4 ports at any register position.

    The amplitudes are random, with one outcome of some subsystems left empty, so some
    posts are None; 0-3 splitters join random ports.  The path and all qubits but one
    or more are detected, every outcome of each, the groups in any order.
    """
    kinds = st.sampled_from((KIND_ATOM_LR, KIND_FIELD, KIND_POL))
    subs = [Subsystem(f"q{i}", draw(kinds)) for i in range(draw(st.integers(1, 3)))]
    dpath = draw(st.integers(2, 4))
    subs.insert(draw(st.integers(0, len(subs))), Subsystem("path", KIND_PATH, dpath))
    register = Register(subs)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.normal(size=register.dims) + 1j * rng.normal(size=register.dims)
    for pos, sub in enumerate(subs):
        if draw(st.booleans()):
            psi[(slice(None),) * pos + (draw(st.integers(0, sub.dim - 1)),)] = 0.0
    ports = st.lists(st.integers(0, dpath - 1), min_size=2, max_size=2, unique=True).map(tuple)
    items = draw(st.lists(st.builds(el.BS, st.floats(0.05, 0.95), ports), max_size=3))
    labels = [sub.label for sub in subs if sub.label != "path"]
    qubits = draw(st.lists(st.sampled_from(labels), max_size=len(labels) - 1, unique=True))
    detectors = [
        el.Detector(f"{label}={out}", label, out)
        for label in draw(st.permutations(["path", *qubits]))
        for out in register.subsystem(label).basis_labels
    ]
    return bare_scheme(register, psi.reshape(-1) / np.linalg.norm(psi), items, detectors)


@settings(max_examples=150, deadline=None)
@given(wired_detections())
def test_run_matches_the_flat_reference_on_hand_wired_schemes(scheme):
    # a group detected ahead of a path that is not first in the register sums in another order
    got, want = schemes.run(scheme), reference_run(scheme)
    assert [r.detector_id for r in got] == [r.detector_id for r in want]
    for a, b in zip(got, want):
        assert a.probability == pytest.approx(b.probability, rel=0, abs=1e-12)
        for x, y in ((a.post_state, b.post_state), (a.corrected_state, b.corrected_state)):
            assert (x is None) == (y is None)
            if x is not None:
                assert x.register == y.register
                np.testing.assert_allclose(x.amplitudes, y.amplitudes, rtol=0, atol=1e-12)


def test_the_hand_wired_schemes_reach_their_targets():
    for order in (("path", "atom1"), ("atom1", "path")):
        reports = schemes.run(hand_wired(order))
        assert len(reports) == 4
        assert sum(r.probability for r in reports) == pytest.approx(1.0, abs=1e-12)
        scored = [r.fidelity_vs_target for r in reports if r.fidelity_vs_target is not None]
        assert scored and all(f == pytest.approx(1.0, abs=1e-12) for f in scored)


def test_a_detection_error_is_raised_before_an_earlier_outcomes_correction_error():
    # D1 holds |L,0,L>, whose correction names no subsystem; D2 holds a flyer
    # still entangled with the atom: (|L,1,L> + |R,1,R>)/sqrt(2) scaled by 1/sqrt(2)
    register = Register(
        [Subsystem("atom1", KIND_ATOM_LR), Subsystem("path", KIND_PATH, 2), Subsystem("pol", KIND_POL)]
    )
    amps = np.zeros(8)
    amps[0] = SQ2
    amps[2] = amps[7] = 0.5
    scheme = bare_scheme(
        register,
        amps,
        detectors=[el.Detector("D1", "path", 0), el.Detector("D2", "path", 1)],
        corrections={"D1": LocalCorrection((("nosuch", "X"),)), "D2": LocalCorrection()},
        flying=("pol",),
    )
    with pytest.raises(LossyWiringError, match="still entangled at detection"):
        schemes.run(scheme)
    only_d1 = dataclasses.replace(scheme, initial=((register.labels, np.eye(8, dtype=complex)[0]),))
    with pytest.raises(InvalidLabelError, match="nosuch"):
        schemes.run(only_d1)
