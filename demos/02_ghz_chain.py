"""GHZ state over n stationary atoms from one photon and two detectors.

A polarized photon runs through a balanced interferometer with an atom
cavity in each arm, picking up which-arm correlations with every atom it
visits.  Erasing the path information at the closing splitter leaves the
atoms in a GHZ state, with the detector click telling us which sign we got.
"""

from cavnet import build_ghz_atoms, run

for n in (2, 4, 6):
    scheme = build_ghz_atoms(n)
    print(f"\n===== {n} atoms =====")
    print("elements:", ", ".join(type(e).__name__ for e in scheme.elements))
    for report in run(scheme):
        state = report.post_state
        print(f"\ndetector {report.detector_id}: p = {report.probability:.4f}")
        # list the surviving branches
        for idx, amp in enumerate(state.amplitudes):
            if abs(amp) > 1e-9:
                labels = "".join(state.register.labels_of_index(idx))
                print(f"  |{labels}>  amplitude {amp.real:+.4f}")
        ops = report.correction.describe()
        if ops:
            names = ", ".join(f"{d['op']} on {d['subsystem']}" for d in ops)
            print(f"  correction: {names}")
        else:
            print("  correction: none needed")
        print(f"  fidelity vs GHZ target after correction: {report.fidelity_vs_target:.12f}")
