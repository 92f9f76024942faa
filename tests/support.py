"""Helpers shared by the test modules: one oracle or constructor per behaviour.

``reference_apply`` is the correction oracle: every non-identity op of a
:class:`LocalCorrection` as one full-state ``apply_unitary`` product, in
order.  ``bare_scheme`` wires a :class:`Scheme` by hand from a register and
its amplitudes, with no corrections or targets unless given.
"""

import numpy as np

from cavnet.qstate import apply_unitary
from cavnet.schemes import Scheme

PAULI = {"X": [[0, 1], [1, 0]], "Z": [[1, 0], [0, -1]]}


def reference_apply(correction, state):
    """Every non-identity op as one ``apply_unitary`` call, in order."""
    for label, op in correction.ops:
        if op != "I":
            matrix = PAULI[op] if op in PAULI else np.diag([1.0, np.exp(1j * float(op[1]))])
            state = apply_unitary(state, [label], np.asarray(matrix, dtype=complex))
    return state


def bare_scheme(register, amplitudes, items=(), detectors=(), **fields):
    """A hand-wired scheme whose initial state is ``amplitudes`` over the whole register.

    It has no corrections, targets or flying subsystems; any other
    :class:`Scheme` field may be given by keyword.
    """
    values = dict(name="bare", n=0, initial_spec=(), corrections={}, targets={}, flying=())
    values.update(fields)
    return Scheme(
        register=register,
        initial=((register.labels, np.asarray(amplitudes, dtype=complex)),),
        elements=tuple(items),
        detectors=tuple(detectors),
        **values,
    )
