"""Entangling cavity fields with one flying atom: GHZ, CZ, and graph states.

Here the roles are reversed: the qubits are photon-number states of fixed
cavities and the messenger is a ladder atom flying through them.  Three
builds, increasingly general: a GHZ state over n cavities, a controlled-Z
between two cavities, and arbitrary graph states from repeated dispersive
passes.
"""

from cavnet import (
    Graph,
    build_field_cz_pair,
    build_field_graph,
    build_ghz_fields,
    run,
    stabilizer_expectations,
)

print("===== GHZ over 4 cavities =====")
for report in run(build_ghz_fields(4)):
    print(f"  {report.detector_id}: p = {report.probability:.4f}, "
          f"corrected fidelity {report.fidelity_vs_target:.12f}")

print("\n===== controlled-Z between two cavities =====")
for report in run(build_field_cz_pair()):
    state = report.post_state
    branches = []
    for idx, amp in enumerate(state.amplitudes):
        if abs(amp) > 1e-9:
            labels = "".join(state.register.labels_of_index(idx))
            branches.append(f"{amp.real:+.2f}|{labels}>")
    print(f"  {report.detector_id}: p = {report.probability:.4f}   {' '.join(branches)}")

print("\n===== ring graph state over 4 cavities =====")
ring = Graph.ring(4)
scheme = build_field_graph(kind="ring", n=4)
worst = 1.0
for report in run(scheme):
    expectations = stabilizer_expectations(report.corrected_state, ring)
    worst = min(worst, expectations.min())
print(f"  {2 ** 4} detector patterns, worst corrected stabilizer: {worst:.12f}")

print("\n===== custom graph from an edge list =====")
graph = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
scheme = build_field_graph(graph=graph)
reports = run(scheme)
total = sum(r.probability for r in reports)
fidelities = [r.fidelity_vs_target for r in reports]
print(f"  {len(reports)} outcomes, total probability {total:.9f}, "
      f"min fidelity {min(fidelities):.12f}")
