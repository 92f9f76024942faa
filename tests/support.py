"""Helpers shared by the test modules: one oracle or constructor per behaviour.

``reference_apply`` is the correction oracle: every non-identity op of a
:class:`LocalCorrection` as one full-state ``apply_unitary`` product, in
order.  ``reference_project_out`` is the projection oracle: the slab taken
with ``np.take``, its probability as ``np.sum(np.abs(slab) ** 2)``, and a
post register built fresh.  ``propagate_every_element`` is the
propagation oracle that leaves no element out: the initial state built in
register order and transposed path-first, and every element's guard (its
``sector_mass`` against the limit) and op applied in turn, a refusal
naming the scheme and the element.  ``reference_run`` is the detection
oracle: the flat loop over :func:`schemes.propagate`'s register-order
state, each outcome projected, its flyers stripped, corrected and scored
in turn, with its own flyer rule (``strip_flyer``).
``unchunked_retry_walk_mc`` is the Monte-Carlo walk oracle: every live
walker drawn for and moved in one buffer per step.
``unchunked_scan_affine`` is the RK4 scan oracle: every block multiplied
by the block-Toeplitz matrix in one product, and every block's carry in
one more.
``assert_bit_equal`` is the one bit-for-bit comparison of two
arrays: the same dtype, shape and bytes.  ``bare_scheme`` wires a
:class:`Scheme` by hand from a register and its amplitudes, declaring the
identity correction and no target for every outcome id unless given
others.  ``product_state`` builds a basis product state, and
``gaussian_input`` is the integrator's Gaussian drive as a function of
time.
"""

import numpy as np

from cavnet import elements as el
from cavnet import iomodel, qstate, schemes, verify
from cavnet.errors import InvalidConfigurationError, LossyWiringError
from cavnet.qstate import PROJECT_EPS, PureState, Register, apply_unitary
from cavnet.schemes import Scheme, _outcome_combos
from cavnet.verify import LocalCorrection

PAULI = {"X": [[0, 1], [1, 0]], "Z": [[1, 0], [0, -1]]}


def product_state(register, labels):
    """Basis product state |l_0 l_1 ...> from one label per subsystem."""
    amps = np.zeros(register.total_dim, dtype=complex)
    amps[register.index_of_labels(labels)] = 1.0
    return PureState(register, amps)


def gaussian_input(tau):
    """Unit-norm Gaussian pulse (tau*sqrt(pi))^(-1/2) exp(-t^2 / 2 tau^2), as integrated."""

    def f(t):
        return iomodel._gaussian_of_squares(np.asarray(t * t, dtype=float), tau)

    return f


def assert_bit_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def reference_apply(correction, state):
    """Every non-identity op as one ``apply_unitary`` call, in order."""
    for label, op in correction.ops:
        if op != "I":
            matrix = PAULI[op] if op in PAULI else np.diag([1.0, np.exp(1j * float(op[1]))])
            state = apply_unitary(state, [label], np.asarray(matrix, dtype=complex))
    return state


def reference_project_out(state, target, outcome):
    """``(probability, post state)`` of projecting ``target`` onto ``outcome``.

    The post amplitudes are the slab with its real and imaginary parts
    multiplied by ``1 / sqrt(prob)``; the post state is None at or below
    ``PROJECT_EPS``.
    """
    register = state.register
    pos = register.position(target)
    idx = register.subsystems[pos].index_of(outcome)
    slab = np.take(state.amplitudes.reshape(register.dims), idx, axis=pos).reshape(-1)
    prob = float(np.sum(np.abs(slab) ** 2))
    if prob <= PROJECT_EPS:
        return prob, None
    parts = slab.view(np.float64)
    parts *= 1.0 / np.sqrt(prob)
    slab.setflags(write=False)
    remaining = register.subsystems[:pos] + register.subsystems[pos + 1 :]
    return prob, PureState(Register(remaining), slab)


def sector_mass(tensor, register, axis_of, assignments):
    """Probability mass in the product sector fixed by ``assignments``."""
    return qstate._mass(tensor[schemes._sector_index(register, axis_of, assignments)])


def propagate_every_element(scheme):
    """Final register-order amplitudes of ``scheme`` with every element applied.

    The buffer is the uncut product of the initial factors
    (:func:`qstate._factor_product`) with the path axis moved to the front,
    as ``propagate``'s is; each guard is checked and each op
    applied through ``schemes._apply_op``, and no element is left out.
    """
    register = scheme.register
    order = sorted(range(len(register)), key=lambda pos: register.labels[pos] != schemes.PATH)
    axis = [order.index(pos) for pos in range(len(register))]

    def axis_of(label):
        return axis[register.position(label)]

    product = qstate._factor_product(register, schemes._factors(scheme))
    tensor = product.reshape(register.dims).transpose(order).copy()
    for index, item in enumerate(scheme.elements):
        if isinstance(item, el.Detector):
            continue
        guard = schemes._GUARDS.get(type(item))
        if guard is not None:
            sector, limit, message = guard(item)
            if sector_mass(tensor, register, axis_of, sector) > limit:
                where = f"scheme {scheme.name!r}, element {index} ({type(item).__name__})"
                raise InvalidConfigurationError(f"{where}: {message}")
        schemes._apply_op(tensor, axis_of, schemes._resolve(register, axis_of, item, {})[0])
    return tensor.transpose(axis).reshape(-1)


def strip_flyer(state, label):
    """``state`` with the flying ``label`` projected onto its most probable outcome and dropped.

    The outcome is the first of largest ``projection_probability``; a
    projection below ``1 - FLYER_PURITY_ATOL`` is refused.
    """
    outcomes = state.register.subsystem(label).basis_labels
    best = max(outcomes, key=lambda o: qstate.projection_probability(state, label, o))
    prob, post = qstate.project_out(state, label, best)
    if post is None or prob < 1.0 - schemes.FLYER_PURITY_ATOL:
        raise LossyWiringError(f"flyer {label!r} is entangled: outcome {best!r} has {prob}")
    return post


def reference_run(scheme):
    """:func:`schemes.run`'s reports from the register-order state, one outcome at a time.

    Every outcome is projected from ``propagate(scheme)``, its flyers
    stripped by :func:`strip_flyer`, and it is corrected and scored before
    the next is projected.
    """
    state = schemes.propagate(scheme)
    reports, total = [], 0.0
    for combo_id, combo in _outcome_combos(scheme.detectors):
        prob, st = 1.0, state
        for det in combo:
            p, st = qstate.project_out(st, det.subsystem, det.outcome)
            prob *= p
            if st is None:
                prob = 0.0
                break
        if st is not None:
            for label in scheme.flying:
                st = strip_flyer(st, label)
        correction, target = scheme.corrections[combo_id], scheme.targets[combo_id]
        corrected = None if st is None else correction.apply(st)
        fid = None if corrected is None or target is None else verify.fidelity(corrected, target)
        reports.append(schemes.OutcomeReport(combo_id, prob, st, corrected, correction, fid))
        total += prob
    assert abs(total - 1.0) <= schemes.PROB_SUM_ATOL
    return reports


def unchunked_retry_walk_mc(params, trajectories, seed):
    """:func:`schemes.retry_walk_mc`'s walk in full-size buffers, every live walker at once.

    The live walkers are the prefix ``pos[:live]`` in their original order,
    so the k-th uniform draw of a step goes to the same walker as in the
    chunked walk; the walk stops early by the same rule.
    """
    rng = np.random.default_rng(seed)
    n, p = params.n_cavities, params.p_flip
    pos = np.ones(trajectories, dtype=np.int16)
    draws = np.empty(trajectories)
    step = np.empty(trajectories, dtype=np.int8)
    keep = np.empty(trajectories, dtype=bool)
    live = trajectories
    for left in range(params.max_steps, 0, -1):
        if live == 0 or (left <= n and int(pos[:live].max()) + left <= n):
            break
        walkers, s, k = pos[:live], step[:live], keep[:live]
        np.less(rng.random(out=draws[:live]), p, out=s)
        s *= 2
        s -= 1
        walkers += s
        np.abs(walkers, out=walkers)
        np.less_equal(walkers, n, out=k)
        survivors = int(np.count_nonzero(k))
        if survivors < live:
            pos[:survivors] = walkers[k]
            live = survivors
    return (trajectories - live) / trajectories


def unchunked_scan_affine(e, u):
    """:func:`iomodel._scan_affine`'s states for the drive terms ``u``, each product made at once.

    Every block's product by the Toeplitz matrix is one product, and so is
    the carry, written into ``u``.  Its body otherwise, recursion included:
    the powers by doubling and the strided Toeplitz view.
    """
    b = iomodel.SCAN_BLOCK
    nb = len(u) // b
    d = np.zeros((b + 1, 3, 3))
    d[1] = e
    k = 1
    while k < b:
        d[k + 1 : 2 * k + 1] = d[1 : k + 1] + (d[k] + d[1 : k + 1] @ d[k])
        k *= 2
    powers = d + np.eye(3)
    table = np.zeros((2 * b - 1, 3, 3))
    table[b - 1 :] = powers[:b].transpose(0, 2, 1)
    s0, s1, s2 = table.strides
    lagged = np.lib.stride_tricks.as_strided(table[b - 1 :], (b, 3, b, 3), (-s0, s1, s0, s2))
    toeplitz = lagged.reshape(3 * b, 3 * b)

    y = np.empty((nb * b + 1, 3), dtype=u.dtype)
    y[0] = 0.0
    body = y[1:].reshape(nb, 3 * b)
    np.matmul(u.reshape(nb, 3 * b), toeplitz, out=body)
    if nb > 1:
        ends = np.zeros((-(-(nb - 1) // b) * b, 3), dtype=u.dtype)
        ends[: nb - 1] = body[:-1, -3:]
        starts = unchunked_scan_affine(d[b], ends)[1:nb]
        carry = u.reshape(nb, 3 * b)[1:]
        np.matmul(starts, powers[1:].transpose(2, 0, 1).reshape(3, 3 * b), out=carry)
        body[1:] += carry
    return y


def bare_scheme(register, amplitudes, items=(), detectors=(), **fields):
    """A hand-wired scheme whose initial state is ``amplitudes`` over the whole register.

    Every outcome id of its detectors gets the identity correction and a
    ``None`` target, and it has no flying subsystems; any :class:`Scheme`
    field may be given by keyword instead.
    """
    detectors = tuple(detectors)
    ids = [combo_id for combo_id, _ in _outcome_combos(detectors)]
    values = dict(
        name="bare",
        n=0,
        corrections=dict.fromkeys(ids, LocalCorrection()),
        targets=dict.fromkeys(ids),
        flying=(),
    )
    values.update(fields)
    return Scheme(
        register=register,
        initial=((register.labels, np.asarray(amplitudes, dtype=complex)),),
        elements=tuple(items),
        detectors=detectors,
        **values,
    )
