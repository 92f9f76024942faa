"""Pulse integrator: frozen references, an independent frequency-domain
oracle, unitarity, adiabatic formulas, and grid validation."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from cavnet import iomodel as io
from cavnet.errors import (
    AccuracyError,
    DegenerateCouplingError,
    NumericalBlowupError,
    ParameterError,
)
from cavnet.iomodel import (
    PulseParams,
    TimeGrid,
    adiabatic_output_coefficients,
    default_grid,
    flip_probability_sweep,
    format_float,
    integrate_pulse,
    slowest_decay_rate,
    sweep_csv_text,
)
from support import gaussian_input

# Flip probabilities frozen from a half-step-converged run; the integrator
# must stay on these to a millionth.
FROZEN_P_FLIP = {
    (5.0, 10.0): 0.981282973178589,
    (1.0, 2.0): 0.828755713359017,
    (1.0, 10.0): 0.985568939231313,
    (1.0, 40.0): 0.999046718650543,
    (0.5, 10.0): 0.995619765425014,
}


def matched(g, kappa=1.0, tau=1.0):
    return PulseParams(g_L=g, g_R=g, kappa=kappa, tau=tau)


# ---------------------------------------------------------------- parameters


def test_pulse_params_validation():
    with pytest.raises(ParameterError):
        PulseParams(g_L=1, g_R=1, kappa=0.0, tau=1)
    with pytest.raises(ParameterError):
        PulseParams(g_L=1, g_R=1, kappa=1, tau=-1)
    with pytest.raises(ParameterError):
        PulseParams(g_L=-1, g_R=1, kappa=1, tau=1)
    with pytest.raises(ParameterError):
        PulseParams(g_L=np.inf, g_R=1, kappa=1, tau=1)
    p = matched(2.0)
    assert p.g_total_sq == pytest.approx(8.0)


def test_time_grid_covers_requested_span():
    grid = TimeGrid(t_start=-1.0, t_end=1.0, step=0.3)
    times = grid.times()
    assert times[0] == -1.0
    assert times[-1] >= 1.0
    assert np.allclose(np.diff(times), 0.3)


@pytest.mark.parametrize("t_end", [1.0, 0.5])
def test_time_grid_refuses_an_empty_or_reversed_window(t_end):
    with pytest.raises(ParameterError, match="t_end must exceed t_start"):
        TimeGrid(t_start=1.0, t_end=t_end, step=0.1)


def test_slowest_decay_rate_regimes():
    kappa = 1.0
    assert slowest_decay_rate(PulseParams(0, 0, kappa, 1)) == pytest.approx(0.5)
    # underdamped: complex pair, real part kappa/4
    assert slowest_decay_rate(matched(1.0)) == pytest.approx(0.25)
    # overdamped: kappa/4 - sqrt(kappa^2/16 - g_total^2)
    expect = 0.25 - np.sqrt(0.0625 - 0.02)
    assert slowest_decay_rate(matched(0.1)) == pytest.approx(expect, rel=1e-12)


def test_a_decay_rate_that_rounds_to_zero_needs_an_endless_grid():
    # kappa/4 - sqrt(kappa^2/16 - g^2) is exactly 0.0 for g = 1e-12 kappa
    params = PulseParams(g_L=1e-12, g_R=1e-12, kappa=1.0, tau=1.0)
    assert slowest_decay_rate(params) == 0.0
    assert default_grid(params).t_end == np.inf
    with pytest.raises(ParameterError, match="inf RK4 steps, more than MAX_STEPS"):
        io.flip_probability_sweep([1e-12], [1.0])


def test_a_huge_step_count_is_printed_in_short_form():
    # g = 1e150 kappa needs about 7.35e153 steps; the exact integer has 154 digits
    with pytest.raises(ParameterError, match=r"needs 7\.35e\+153 RK4 steps, more than MAX_STEPS"):
        io.flip_probability_sweep([1e150], [1.0])


def test_default_grid_tracks_ringdown_and_coupling():
    slow = matched(0.1, tau=0.1)  # overdamped, long ring-down
    grid = default_grid(slow)
    assert grid.t_start == pytest.approx(-0.6)
    assert grid.t_end >= 10.0 / slowest_decay_rate(slow)
    fast = matched(5.0)  # step must resolve 1/g_total
    assert default_grid(fast).step <= 1.0 / (np.sqrt(50.0) * 100.0) + 1e-15


def test_gaussian_input_is_normalized():
    for tau in (0.3, 1.0, 7.0):
        f = gaussian_input(tau)
        t = np.linspace(-12 * tau, 12 * tau, 20001)
        assert np.trapezoid(f(t) ** 2, t) == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------- integrator


def test_frozen_flip_probabilities():
    for (g, kt), expect in FROZEN_P_FLIP.items():
        res = integrate_pulse(matched(g, tau=kt))
        assert res.P_flip == pytest.approx(expect, abs=1e-6)


def test_flux_conservation_across_regimes():
    for g, kt in ((0.0, 1.0), (0.1, 0.1), (1.0, 1.0), (5.0, 10.0), (2.0, 40.0)):
        res = integrate_pulse(matched(g, tau=kt))
        assert res.P_flip + res.P_noflip == pytest.approx(1.0, abs=1e-6)


def test_halving_the_step_is_converged():
    params = matched(5.0, tau=10.0)
    grid = default_grid(params)
    fine = TimeGrid(grid.t_start, grid.t_end, grid.step / 2)
    a = integrate_pulse(params, grid=grid)
    b = integrate_pulse(params, grid=fine)
    assert abs(a.P_flip - b.P_flip) < 1e-9


def scattering_probs(params, n=40001):
    """Frequency-domain oracle: no time stepping anywhere.

    The linear response gives closed-form scattering amplitudes; the flip
    and no-flip probabilities are Gaussian-weighted integrals of them.
    """
    gl, gr, k, tau = params.g_L, params.g_R, params.kappa, params.tau
    gbar2 = gl * gl + gr * gr
    w = np.linspace(-8.0 / tau, 8.0 / tau, n)
    s = -1j * w
    u = k / 2 + s
    denom = u * (u * s + gbar2)
    s_rl = k * gl * gr / denom
    s_ll = 1.0 - k * (u * s + gr * gr) / denom
    weight = (tau / np.sqrt(np.pi)) * np.exp(-((w * tau) ** 2))
    p_flip = float(np.trapezoid(np.abs(s_rl) ** 2 * weight, w))
    p_noflip = float(np.trapezoid(np.abs(s_ll) ** 2 * weight, w))
    return p_flip, p_noflip


def test_trajectory_matches_frequency_domain_oracle():
    cases = [
        (5.0, 5.0, 1.0, 10.0),
        (1.0, 1.0, 1.0, 2.0),
        (0.5, 0.5, 1.0, 10.0),
        (1.0, 2.0, 1.0, 3.0),
        (0.3, 0.9, 2.0, 5.0),
        (0.2, 0.2, 1.0, 0.5),
    ]
    for gl, gr, k, tau in cases:
        params = PulseParams(g_L=gl, g_R=gr, kappa=k, tau=tau)
        res = integrate_pulse(params)
        pf, pn = scattering_probs(params)
        assert res.P_flip == pytest.approx(pf, abs=1e-7)
        assert res.P_noflip == pytest.approx(pn, abs=1e-7)


def test_uncoupled_cavity_never_flips():
    res = integrate_pulse(matched(0.0, tau=2.0))
    assert res.P_flip == 0.0
    assert res.P_noflip == pytest.approx(1.0, abs=1e-9)


def propagator_oracle(params, grid, t_index):
    """Independent trajectory value: eigenmode quadrature of the driven system.

    y(t) = integral of exp(A (t - s)) b f(s) ds, evaluated by diagonalizing
    A and integrating each mode on a fine lattice.  Valid away from critical
    damping where A loses diagonalizability.
    """
    gl, gr, k = params.g_L, params.g_R, params.kappa
    a = np.array(
        [[-k / 2, 0, -gl], [0, -k / 2, -gr], [gl, gr, 0]], dtype=complex
    )
    b = np.array([-np.sqrt(k), 0.0, 0.0], dtype=complex)
    lam, v = np.linalg.eig(a)
    b_modes = np.linalg.solve(v, b)
    f = gaussian_input(params.tau)
    t_end = grid.times()[t_index]
    s = np.linspace(grid.t_start, t_end, 60001)
    vals = np.exp(np.outer(lam, t_end - s)) * f(s)[None, :]
    mode_integrals = np.trapezoid(vals, s, axis=1)
    return v @ (mode_integrals * b_modes)


def test_trajectory_matches_eigenmode_oracle():
    params = matched(1.0, tau=1.0)  # far from critical damping
    grid = default_grid(params)
    res = integrate_pulse(params, grid=grid)
    for frac in (0.4, 0.55, 0.7):
        idx = int(frac * grid.n_steps)
        y = propagator_oracle(params, grid, idx)
        assert res.c_L[idx] == pytest.approx(y[0], abs=1e-8)
        assert res.c_R[idx] == pytest.approx(y[1], abs=1e-8)
        assert res.c_e[idx] == pytest.approx(y[2], abs=1e-8)


def test_output_fields_obey_boundary_relations():
    params = matched(1.0, tau=2.0)
    res = integrate_pulse(params)
    k = params.kappa
    assert np.abs(res.f_L_out - (res.f_in + np.sqrt(k) * res.c_L)).max() < 1e-14
    assert np.abs(res.f_R_out - np.sqrt(k) * res.c_R).max() < 1e-14


# ------------------------------------------------------------------ custom grids


def test_custom_grid_step_guard():
    params = matched(1.0)
    with pytest.raises(AccuracyError):
        integrate_pulse(params, grid=TimeGrid(-6.0, 16.0, 0.1))


def test_custom_grid_window_guard():
    params = matched(1.0)
    with pytest.raises(AccuracyError):
        integrate_pulse(params, grid=TimeGrid(-3.0, 16.0, 0.005))
    with pytest.raises(AccuracyError):
        integrate_pulse(params, grid=TimeGrid(-6.0, 4.0, 0.005))


def test_unstable_step_blows_up_loudly():
    # the guard bounds the step by tau and 1/kappa only; a huge coupling
    # with a legal step must end in a diagnosed blow-up, not silent junk
    params = matched(1e4)
    grid = TimeGrid(-6.0, 46.0, 0.02)
    with pytest.raises(NumericalBlowupError):
        integrate_pulse(params, grid=grid)


def test_blowup_raises_without_runtime_warnings():
    # overflow inside the scan is reported once, by the finiteness check
    params = matched(1e4)
    grid = TimeGrid(-6.0, 46.0, 0.02)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalBlowupError):
            integrate_pulse(params, grid=grid)


def test_step_budget_rejects_before_sampling(monkeypatch):
    params = matched(1.0)
    grid = default_grid(params)
    monkeypatch.setattr(io, "MAX_STEPS", grid.n_steps - 1)
    samples = io._half_step_samples
    calls = []

    def refuse(tau, grid):
        raise AssertionError("sampled the drive over the step budget")

    monkeypatch.setattr(io, "_half_step_samples", refuse)
    with pytest.raises(ParameterError, match=str(grid.n_steps)):
        integrate_pulse(params, grid=grid)
    monkeypatch.setattr(io, "_half_step_samples", lambda *a: calls.append(a) or samples(*a))
    monkeypatch.setattr(io, "MAX_STEPS", grid.n_steps)
    assert integrate_pulse(params, grid=grid).P_flip > 0.0
    assert len(calls) == 1  # the probe sees the one sampling of an integration


def test_step_budget_rejects_infinite_step_count():
    with pytest.raises(ParameterError, match="MAX_STEPS"):
        integrate_pulse(matched(1.0), grid=TimeGrid(-6.0, 16.0, 1e-320))


def test_sweep_checks_every_grid_before_integrating(monkeypatch):
    small = default_grid(matched(1.0, tau=1.0)).n_steps
    monkeypatch.setattr(io, "MAX_STEPS", small)
    calls = []
    monkeypatch.setattr(io, "integrate_pulse", lambda *a: calls.append(a))
    with pytest.raises(ParameterError, match="MAX_STEPS"):
        flip_probability_sweep([1.0], [1.0, 40.0])
    assert calls == []


def count_trajectories(monkeypatch):
    """The list that records each call of ``iomodel._trajectory``, which still runs."""
    calls = []
    trajectory = io._trajectory
    monkeypatch.setattr(io, "_trajectory", lambda *a: calls.append(a) or trajectory(*a))
    return calls


def test_sweep_refuses_a_too_coarse_step_before_integrating(monkeypatch):
    # 0.003 resolves kappa tau = 40 at g = 5 but not kappa tau = 0.1, the last point
    calls = count_trajectories(monkeypatch)
    with pytest.raises(AccuracyError, match=r"exceeds min\(tau, 1/kappa\)/50 = 0\.002"):
        flip_probability_sweep([5.0], [40.0] * 6 + [0.1], step=0.003)
    assert calls == []


def test_sweep_step_total_is_checked_before_integrating(monkeypatch):
    steps = default_grid(matched(1.0, tau=1.0)).n_steps
    calls = count_trajectories(monkeypatch)
    monkeypatch.setattr(io, "MAX_SWEEP_STEPS", 3 * steps - 1)
    message = f"3 points needs {3 * steps} RK4 steps, more than MAX_SWEEP_STEPS"
    with pytest.raises(ParameterError, match=message):
        flip_probability_sweep([1.0], [1.0] * 3)
    assert calls == []
    monkeypatch.setattr(io, "MAX_SWEEP_STEPS", 3 * steps)
    assert len(flip_probability_sweep([1.0], [1.0] * 3)) == len(calls) == 3


@pytest.mark.parametrize(
    "taus,step,message",
    [
        ([1.0, 2.0, -1.0], None, "tau must be positive"),
        ([1.0, 2.0, float("inf")], None, "tau must be positive"),
        ([1.0, 2.0], float("nan"), "step must be positive"),
        ([1.0, 2.0], 0.0, "step must be positive"),
    ],
)
def test_sweep_with_an_invalid_last_point_integrates_nothing(taus, step, message, monkeypatch):
    def refuse(*args):
        raise AssertionError("a point was integrated")

    monkeypatch.setattr(io, "integrate_pulse", refuse)
    with pytest.raises(ParameterError, match=message):
        flip_probability_sweep([1.0, 2.0], taus, step=step)


def test_sweep_point_budget_rejects_before_any_grid(monkeypatch):
    monkeypatch.setattr(io, "MAX_SWEEP_POINTS", 3)
    grids = []
    monkeypatch.setattr(io, "default_grid", lambda *a: grids.append(a))
    with pytest.raises(ParameterError, match="MAX_SWEEP_POINTS"):
        flip_probability_sweep([1.0, 2.0], [1.0, 2.0])
    assert grids == []


def test_sweep_point_budget_accepts_exactly_the_budget(monkeypatch):
    monkeypatch.setattr(io, "MAX_SWEEP_POINTS", 2)
    assert len(flip_probability_sweep([1.0, 2.0], [1.0])) == 2


def reference_scan_affine(e, u):
    """``_scan_affine`` with its block-Toeplitz matrix built by fancy indexing on a lag table."""
    b = io.SCAN_BLOCK
    nb = len(u) // b
    d = np.zeros((b + 1, 3, 3))
    d[1] = e
    k = 1
    while k < b:
        d[k + 1 : 2 * k + 1] = d[1 : k + 1] + (d[k] + d[1 : k + 1] @ d[k])
        k *= 2
    powers = d + np.eye(3)
    lag = np.arange(b)[None, :] - np.arange(b)[:, None]
    lag[lag < 0] = b
    table = np.concatenate((powers[:b], np.zeros((1, 3, 3))))
    toeplitz = table[lag].transpose(0, 3, 1, 2).reshape(3 * b, 3 * b)
    y = np.empty((nb * b + 1, 3), dtype=u.dtype)
    y[0] = 0.0
    body = y[1:].reshape(nb, 3 * b)
    np.matmul(u.reshape(nb, 3 * b), toeplitz, out=body)
    if nb > 1:
        ends = np.zeros((-(-(nb - 1) // b) * b, 3), dtype=u.dtype)
        ends[: nb - 1] = body[:-1, -3:]
        starts = reference_scan_affine(d[b], ends)[1:nb]
        carry = u.reshape(nb, 3 * b)[1:]
        np.matmul(starts, powers[1:].transpose(2, 0, 1).reshape(3, 3 * b), out=carry)
        body[1:] += carry
    return y


def reference_pulse(params, grid):
    """Every ``PulseResult`` field in the expression forms the integrator first had.

    Full-size temporaries throughout: the lattice as one expression, the
    drive as ``peak * np.exp(-(t * t) / (2 tau^2))``, ``f_in`` a strided
    view of the samples, and each probability ``np.trapezoid`` of
    ``np.abs(f) ** 2``.
    """
    n, h, tau = grid.n_steps, grid.step, params.tau
    t = grid.t_start + 0.5 * h * np.arange(2 * n + 1)
    f_half = (tau * math.sqrt(math.pi)) ** -0.5 * np.exp(-(t * t) / (2.0 * tau * tau))
    m, v1, v2, v3 = io._rk4_tableau(params, h)
    u = np.zeros((-(-n // io.SCAN_BLOCK) * io.SCAN_BLOCK, 3))
    windows = np.lib.stride_tricks.sliding_window_view(f_half, 3)[::2]
    np.matmul(windows, np.array([v1, v2, v3]), out=u[:n])
    c_l, c_r, c_e = reference_scan_affine(m - np.eye(3), u)[: n + 1].T
    f_in = f_half[::2]
    sqrt_k = math.sqrt(params.kappa)
    f_l_out = f_in + sqrt_k * c_l
    f_r_out = sqrt_k * c_r
    return io.PulseResult(
        time_grid=grid.t_start + h * np.arange(n + 1),
        c_L=c_l,
        c_R=c_r,
        c_e=c_e,
        f_in=f_in,
        f_L_out=f_l_out,
        f_R_out=f_r_out,
        P_flip=float(np.trapezoid(np.abs(f_r_out) ** 2, dx=h)),
        P_noflip=float(np.trapezoid(np.abs(f_l_out) ** 2, dx=h)),
    )


def bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


@pytest.mark.parametrize(
    "params,grid",
    [
        # the golden sweep's corners: 5,496 to 367,696 steps
        (matched(0.5, tau=0.1), None),
        (matched(0.5, tau=40.0), None),
        (matched(5.0, tau=0.1), None),
        (matched(5.0, tau=40.0), None),
        # unequal couplings, another kappa, an empty cavity
        (PulseParams(1.0, 2.0, 1.0, 3.0), None),
        (PulseParams(0.3, 0.9, 2.0, 5.0), None),
        (PulseParams(0.0, 0.0, 1.0, 2.0), None),
        # custom grids: a step off the default and a window ending off the block size
        (PulseParams(1.0, 0.7, 1.0, 2.0), TimeGrid(-13.0, 40.3, 0.0037)),
        (PulseParams(1.0, 0.7, 1.0, 2.0), TimeGrid(-10.5, 30.0, 0.01)),
    ],
)
def test_every_pulse_result_field_keeps_its_bits(params, grid):
    grid = grid or default_grid(params)
    got, want = integrate_pulse(params, grid), reference_pulse(params, grid)
    for field in dataclasses.fields(io.PulseResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert np.shape(a) == np.shape(b), field.name
        assert np.array_equal(bits(a), bits(b)), field.name


@pytest.mark.parametrize("length", [2, 3, 4, 9, 10, 11, 21, 8_192, 8_193, 8_194, 20_000])
def test_the_chunked_trapezoid_is_np_trapezoid_bit_for_bit(length, monkeypatch):
    f = np.random.default_rng(length).normal(size=length)
    want = float(np.trapezoid(np.abs(f) ** 2, dx=0.013))
    assert bits(io._trapezoid_of_square(f, 0.013)) == bits(want)
    monkeypatch.setattr(io, "_SQUARE_CHUNK", 4)  # chunks of 4 pair sums, one square shared
    assert bits(io._trapezoid_of_square(f, 0.013)) == bits(want)


def test_the_largest_golden_point_peaks_under_64_bytes_per_step():
    # the samples are freed before the scan and no full-size square is built:
    # y (24 B/step), f_in, f_R_out and f_L_out (8 each) and one pair-sum array
    params = matched(5.0, tau=40.0)
    grid = default_grid(params)
    integrate_pulse(params, grid)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = integrate_pulse(params, grid)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert result.c_L.shape == (grid.n_steps + 1,)
    assert peak <= 64 * grid.n_steps


# ---------------------------------------------------------------- adiabatic


def test_adiabatic_coefficients_matched_and_conservation():
    r, t = adiabatic_output_coefficients(matched(3.0))
    assert r == 0.0
    assert t == 1.0
    rng = np.random.default_rng(77)
    for _ in range(200):
        gl, gr = rng.uniform(0.05, 5.0, size=2)
        r, t = adiabatic_output_coefficients(PulseParams(gl, gr, 1.0, 1.0))
        assert r * r + t * t == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(DegenerateCouplingError):
        adiabatic_output_coefficients(PulseParams(0.0, 0.0, 1.0, 1.0))


@given(
    g_L=st.floats(min_value=0.0, allow_infinity=False),
    g_R=st.floats(min_value=0.0, allow_infinity=False),
)
@example(g_L=1e200, g_R=1e200)  # g^2 overflows: refused
@example(g_L=1e-170, g_R=0.0)  # g^2 underflows to zero
@example(g_L=1e-160, g_R=2e-160)  # g^2 is subnormal
@example(g_L=0.0, g_R=1.3e154)  # g^2 is finite, 2 g^2 is not
def test_every_accepted_coupling_pair_gives_unit_norm_coefficients(g_L, g_R):
    assume(g_L > 0.0 or g_R > 0.0)
    try:
        params = PulseParams(g_L, g_R)
    except ParameterError as exc:
        assert f"g_L = {g_L}, g_R = {g_R}" in str(exc)
        return
    r, t = adiabatic_output_coefficients(params)
    assert np.isfinite([r, t]).all()
    assert r * r + t * t == pytest.approx(1.0, abs=1e-12)


def test_adiabatic_limit_of_the_trajectory():
    # slow pulse: output pulse areas approach the steady-state coefficients
    params = PulseParams(g_L=1.0, g_R=2.0, kappa=1.0, tau=50.0)
    r, t = adiabatic_output_coefficients(params)
    res = integrate_pulse(params)
    assert res.P_flip == pytest.approx(t * t, rel=5e-3)
    assert res.P_noflip == pytest.approx(r * r, rel=5e-3)


def test_empty_cavity_phase_is_minus_one():
    # a slow pulse off the empty cavity comes back with a pi phase: the
    # trajectory reproduces the sign flip at pulse center
    params = PulseParams(g_L=0.0, g_R=0.0, kappa=1.0, tau=50.0)
    grid = default_grid(params)
    res = integrate_pulse(params, grid=grid)
    center = int(round((0.0 - grid.t_start) / grid.step))
    ratio = res.f_L_out[center] / res.f_in[center]
    assert ratio == pytest.approx(-1.0, abs=5e-3)


# ---------------------------------------------------------------- sweep, csv


def test_sweep_orders_rows_g_major():
    rows = flip_probability_sweep([2.0, 1.0], [1.0, 2.0])
    assert [(r.g_over_kappa, r.kappa_tau) for r in rows] == [
        (2.0, 1.0),
        (2.0, 2.0),
        (1.0, 1.0),
        (1.0, 2.0),
    ]
    for row in rows:
        assert 0.0 <= row.P_flip <= 1.0
        assert row.P_flip + row.P_noflip == pytest.approx(1.0, abs=1e-6)


def test_sweep_validates_inputs():
    with pytest.raises(ParameterError):
        flip_probability_sweep([], [1.0])
    with pytest.raises(ParameterError):
        flip_probability_sweep([1.0], [])
    with pytest.raises(ParameterError):
        flip_probability_sweep([-1.0], [1.0])
    with pytest.raises(ParameterError):
        flip_probability_sweep([1.0], [0.0])


def test_csv_format():
    rows = flip_probability_sweep([1.0], [1.0, 2.0])
    text = sweep_csv_text(rows)
    lines = text.split("\n")
    assert lines[0] == "g_over_kappa,kappa_tau,P_flip"
    assert len(lines) == 4 and lines[-1] == ""
    first = lines[1].split(",")
    assert float(first[0]) == 1.0
    # 17 significant digits round-trip exactly
    assert float(first[2]) == rows[0].P_flip


def test_format_float_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
        assert float(format_float(x)) == x
    assert format_float(1.0) == "1.0"
    assert format_float(0.5) == "0.5"
