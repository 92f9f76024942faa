"""Detection in ``schemes.run``: the path-first route against the flat reference loop."""

import dataclasses

import numpy as np
import pytest

from cavnet import elements as el
from cavnet import schemes
from cavnet.errors import InvalidLabelError, LossyWiringError
from cavnet.qstate import KIND_ATOM_LR, KIND_PATH, KIND_POL, PureState, Register, Subsystem
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
    flat_calls = []
    real = schemes.propagate
    monkeypatch.setattr(schemes, "propagate", lambda *args: flat_calls.append(1) or real(*args))
    got = schemes.run(scheme)
    monkeypatch.undo()
    # only a scheme whose first detector group is not the path takes the register-order state
    assert len(flat_calls) == (scheme.detectors[0].subsystem != schemes.PATH)

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
