"""Single-block input-output dynamics of a pulsed cavity-atom system.

The model: a two-sided cavity supports two circularly polarized modes with
amplitudes c_L, c_R coupled to a three-level atom (excited amplitude c_e)
at rates g_L, g_R, with equal decay kappa through the mirrors.  A pulse
f_in drives the left mode,

    dc_L/dt = -(kappa/2) c_L - g_L c_e - sqrt(kappa) f_in(t)
    dc_R/dt = -(kappa/2) c_R - g_R c_e
    dc_e/dt =  g_L c_L + g_R c_R

and the boundary condition returns the outputs

    f_L_out = f_in + sqrt(kappa) c_L,      f_R_out = sqrt(kappa) c_R.

The flux identity d/dt(|c_L|^2+|c_R|^2+|c_e|^2) = |f_in|^2 - |f_L_out|^2
- |f_R_out|^2 holds exactly, so for a unit-norm input pulse the integrated
output powers P_noflip + P_flip account for all probability up to grid
truncation.

``integrate_pulse`` solves the system with a classical fixed-step RK4.
One RK4 step of this linear system is an affine map y <- M y + u_i, so the
recurrence is evaluated as a blocked scan: one matrix product per block of
64 steps, with the block-start states carried by M^64.  It takes the same
RK4 steps as a per-step loop and agrees with one to rounding (~1e-14).

``adiabatic_output_coefficients`` evaluates the long-pulse closed form;
``flip_probability_sweep`` maps P_flip over a (g, tau) grid with
g_L = g_R = g and exports CSV.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    AccuracyError,
    DegenerateCouplingError,
    NumericalBlowupError,
    ParameterError,
)

# Largest grid integrate_pulse accepts, more than 5x the largest grid in use
# (735,392 steps: g = 5 kappa, kappa tau = 40 at half the default step).
# An integration peaks at ~60 bytes per step (traced: 60.2 at 367,696 steps,
# 58.5 at 735,392), so this caps one call near 0.24 GB; larger grids raise
# ParameterError first.
MAX_STEPS = 4_000_000
# Most (g, tau) points flip_probability_sweep accepts, 125x the 80-point
# golden sweep; larger sweeps raise ParameterError before any grid is built.
MAX_SWEEP_POINTS = 10_000
# Most RK4 steps summed over a sweep's points, 11x the golden sweep's
# 3,449,430: about 2 s at 32-45 ns per step (2-vCPU Xeon), and it admits
# any one point that MAX_STEPS admits.
MAX_SWEEP_STEPS = 10 * MAX_STEPS
SCAN_BLOCK = 64  # RK4 steps per block of the scan in _scan_affine
_SQUARE_CHUNK = 8_192  # samples squared at a time by _trapezoid_of_square


@dataclass(frozen=True)
class PulseParams:
    """Couplings, decay rate, and Gaussian pulse width."""

    g_L: float
    g_R: float
    kappa: float = 1.0
    tau: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.kappa) and self.kappa > 0):
            raise ParameterError(f"kappa must be positive, got {self.kappa}")
        if not (math.isfinite(self.tau) and self.tau > 0):
            raise ParameterError(f"tau must be positive, got {self.tau}")
        for name, g in (("g_L", self.g_L), ("g_R", self.g_R)):
            if not (math.isfinite(g) and g >= 0):
                raise ParameterError(f"{name} must be nonnegative, got {g}")
        if not math.isfinite(self.g_total_sq):
            raise ParameterError(f"g_L^2 + g_R^2 overflows for g_L = {self.g_L}, g_R = {self.g_R}")

    @property
    def g_total_sq(self) -> float:
        return self.g_L * self.g_L + self.g_R * self.g_R


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid; t_end is extended to a whole step count."""

    t_start: float
    t_end: float
    step: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.step) and self.step > 0):
            raise ParameterError(f"step must be positive, got {self.step}")
        if not self.t_end > self.t_start:
            raise ParameterError("t_end must exceed t_start")

    @property
    def n_steps(self) -> int:
        span = self.t_end - self.t_start
        return max(1, int(math.ceil(span / self.step - 1e-12)))

    def times(self) -> np.ndarray:
        t = np.arange(self.n_steps + 1, dtype=float)
        t *= self.step
        t += self.t_start
        return t


@dataclass(frozen=True)
class PulseResult:
    """Trajectories, output pulses, and integrated probabilities."""

    time_grid: np.ndarray
    c_L: np.ndarray
    c_R: np.ndarray
    c_e: np.ndarray
    f_in: np.ndarray
    f_L_out: np.ndarray
    f_R_out: np.ndarray
    P_flip: float
    P_noflip: float


def _gaussian_of_squares(t_sq: np.ndarray, tau: float) -> np.ndarray:
    """The unit-norm Gaussian pulse at the times whose squares are ``t_sq``, in place.

    The pulse is peak * exp(-t^2 / 2 tau^2) with peak (tau*sqrt(pi))^(-1/2),
    its ufuncs applied in the order of peak * exp(-(t * t) / (2 tau^2)).
    """
    np.negative(t_sq, out=t_sq)
    t_sq /= 2.0 * tau * tau
    np.exp(t_sq, out=t_sq)
    t_sq *= (tau * math.sqrt(math.pi)) ** -0.5
    return t_sq


def _half_step_samples(tau: float, grid: TimeGrid) -> np.ndarray:
    """The Gaussian drive at the 2n+1 half-step times t_start + k h/2, in one buffer."""
    t = np.arange(2 * grid.n_steps + 1, dtype=float)
    t *= 0.5 * grid.step
    t += grid.t_start
    np.multiply(t, t, out=t)
    return _gaussian_of_squares(t, tau)


def slowest_decay_rate(params: PulseParams) -> float:
    """Slowest amplitude decay rate of the undriven cavity-atom system.

    The coupled modes have eigenvalues -kappa/4 +- sqrt(kappa^2/16 - g^2)
    with g^2 = g_L^2 + g_R^2 (the dark combination of c_L, c_R decays at
    kappa/2).  Underdamped systems ring down at kappa/4; overdamped ones
    are limited by the slow branch, which goes to zero as the couplings
    vanish -- except that when g_L and g_R are both exactly zero the atom
    decouples entirely and the cavity rate kappa/2 governs.  A nonzero
    coupling whose square underflows to 0.0 takes the overdamped branch,
    whose rate rounds to 0.0 as it does once g^2 is below ~1e-17 kappa^2.
    """
    if params.g_L == 0.0 and params.g_R == 0.0:
        return params.kappa / 2.0
    disc = params.kappa * params.kappa / 16.0 - params.g_total_sq
    if disc <= 0.0:
        return params.kappa / 4.0
    return params.kappa / 4.0 - math.sqrt(disc)


def default_grid(params: PulseParams) -> TimeGrid:
    """Integration window and step sized for the 1e-6 probability budget.

    The window starts at -6 tau (the pulse carries ~1e-17 of its energy
    before that) and runs past +6 tau by ten slowest-decay times, so the
    amplitude still stored in the system at the end contributes less than
    ~1e-8 probability.  The step resolves the fastest of the pulse width,
    the cavity decay, and the coupling oscillation with 100 points, which
    keeps the RK4 phase error orders of magnitude below the budget (the
    coupling timescale matters once g exceeds kappa: at g = 5 kappa a step
    of min(tau, 1/kappa)/100 alone leaves ~1e-5 errors in P_flip).
    """
    rate = slowest_decay_rate(params)  # 0.0 once g^2 / kappa^2 is below ~1e-17
    tail = max(10.0 / params.kappa, 10.0 / rate if rate > 0.0 else math.inf)
    scale = min(params.tau, 1.0 / params.kappa)
    gbar = math.sqrt(params.g_total_sq)
    if gbar > 0.0:
        scale = min(scale, 1.0 / gbar)
    return TimeGrid(
        t_start=-6.0 * params.tau,
        t_end=6.0 * params.tau + tail,
        step=scale / 100.0,
    )


def _rk4_tableau(params: PulseParams, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Precomputed affine RK4 update for the linear driven system.

    One classical RK4 step of y' = A y + b f(t) is exactly
    y_next = M y + v1 f(t) + v2 f(t + h/2) + v3 f(t + h) with
    M = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 and drive vectors below,
    which turns the whole integration into the affine recurrence that
    ``_scan_affine`` solves.
    """
    k, gl, gr = params.kappa, params.g_L, params.g_R
    a = np.array(
        [
            [-0.5 * k, 0.0, -gl],
            [0.0, -0.5 * k, -gr],
            [gl, gr, 0.0],
        ]
    )
    b = np.array([-math.sqrt(k), 0.0, 0.0])
    ab = a @ b
    a2b = a @ ab
    a3b = a @ a2b
    ha = h * a
    m = np.eye(3) + ha
    term = ha
    for order in (2.0, 3.0, 4.0):
        term = term @ ha / order
        m = m + term
    v1 = (h / 6.0) * (b + h * ab + (h * h / 2.0) * a2b + (h**3 / 4.0) * a3b)
    v2 = (h / 6.0) * (4.0 * b + 2.0 * h * ab + (h * h / 2.0) * a2b)
    v3 = (h / 6.0) * b
    return m, v1, v2, v3


def _trajectory(params: PulseParams, h: float, f_half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RK4 states y_0 = 0, ..., y_n as rows (c_L, c_R, c_e), then padding rows; and f_in.

    The drive terms u_i = v1 f_2i + v2 f_2i+1 + v3 f_2i+2 are one product
    over the length-3 windows of the 2n+1 half-step samples ``f_half``.
    ``f_in`` is a contiguous copy of the whole-step samples f_0, f_2, ...,
    f_2n.  The samples are let go before the scan, so they are freed then
    unless the caller holds them.
    """
    m, v1, v2, v3 = _rk4_tableau(params, h)
    n = (len(f_half) - 1) // 2
    u = np.zeros((-(-n // SCAN_BLOCK) * SCAN_BLOCK, 3))
    windows = np.lib.stride_tricks.sliding_window_view(f_half, 3)[::2]
    np.matmul(windows, np.array([v1, v2, v3]), out=u[:n])
    f_in = f_half[::2].copy()
    del f_half, windows
    return _scan_affine(m - np.eye(3), u), f_in


def _scan_affine(e: np.ndarray, u: np.ndarray) -> np.ndarray:
    """States y_0 = 0, y_{i+1} = m y_i + u_i with m = 1 + e, as a (len(u)+1, 3) array.

    ``len(u)`` is a multiple of SCAN_BLOCK = B.  Every block is solved from
    zero by one product with the block-Toeplitz matrix of m^0..m^(B-1).  The
    block starts obey the same recurrence with m^B, driven by the blocks'
    last local states (a recursive call), and m^(j+1) start is added to step
    j of each block by one more product, using ``u`` as scratch space (its
    contents are overwritten).  Powers are formed as m^j - 1, whose
    small entries would lose their low digits if rounded against the
    identity at every product; this keeps the scan as accurate as a per-step
    loop.
    """
    b = SCAN_BLOCK
    nb = len(u) // b
    # d[j] = m^j - 1 by doubling, B being a power of two:
    # m^(j+k) - 1 = d_j + d_k + d_j d_k
    d = np.zeros((b + 1, 3, 3))
    d[1] = e
    k = 1
    while k < b:
        d[k + 1 : 2 * k + 1] = d[1 : k + 1] + (d[k] + d[1 : k + 1] @ d[k])
        k *= 2
    powers = d + np.eye(3)
    # toeplitz[(k, c), (j, a)] = (m^(j-k))[a, c] for k <= j, zero for k > j: with the
    # transposed powers placed after b - 1 zero blocks, that is table[b - 1 - k + j, c, a]
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
        starts = _scan_affine(d[b], ends)[1:nb]
        carry = u.reshape(nb, 3 * b)[1:]  # u is spent: reuse it, not a new buffer
        np.matmul(starts, powers[1:].transpose(2, 0, 1).reshape(3, 3 * b), out=carry)
        body[1:] += carry
    return y


def _check_grid(params: PulseParams, grid: TimeGrid) -> None:
    """Refuse ``grid`` if it is too coarse or too narrow for ``params``, or over ``MAX_STEPS``.

    It must resolve the dynamics (step at most min(tau, 1/kappa)/50, else an
    accuracy error) and contain the pulse (t_start <= -5 tau, t_end >= +5
    tau, likewise); a grid of more than ``MAX_STEPS`` steps raises a
    parameter error.  :func:`default_grid`'s grids pass the first two.
    """
    limit = min(params.tau, 1.0 / params.kappa) / 50.0
    if grid.step > limit * (1.0 + 1e-12):
        raise AccuracyError(f"step {grid.step} exceeds min(tau, 1/kappa)/50 = {limit}")
    if grid.t_start > -5.0 * params.tau or grid.t_end < 5.0 * params.tau:
        raise AccuracyError(
            "grid must cover [-5 tau, +5 tau] to capture the pulse, got "
            f"[{grid.t_start}, {grid.t_end}] with tau = {params.tau}"
        )
    steps = (grid.t_end - grid.t_start) / grid.step
    if steps > MAX_STEPS:
        count = grid.n_steps if steps < 1e18 else f"{steps:.3g}"
        raise ParameterError(
            f"grid [{grid.t_start}, {grid.t_end}] with step {grid.step} needs "
            f"{count} RK4 steps, more than MAX_STEPS = {MAX_STEPS}"
        )


def _trapezoid_of_square(f: np.ndarray, h: float) -> float:
    """``np.trapezoid(np.abs(f) ** 2, dx=h)`` of a real ``f``, bit for bit.

    No full-size square is made: the pair sums f_(i+1)^2 + f_i^2 fill one
    array, squared a chunk at a time.  It is scaled by h and halved, and
    summed once, as np.trapezoid does, so the pairwise sum runs over the
    same values.
    """
    s = np.empty(len(f) - 1)
    for start in range(0, len(s), _SQUARE_CHUNK):
        part = f[start : start + _SQUARE_CHUNK + 1]
        square = part * part
        np.add(square[1:], square[:-1], out=s[start : start + _SQUARE_CHUNK])
    s *= h
    s /= 2.0
    return float(s.sum())


def integrate_pulse(params: PulseParams, grid: TimeGrid | None = None) -> PulseResult:
    """RK4 trajectory from empty initial conditions and integrated outputs.

    ``grid`` defaults to :func:`default_grid`.  A custom grid must resolve
    the dynamics and contain the pulse (:func:`_check_grid`); coarser or
    narrower grids reject with an accuracy error rather than silently
    losing probability.

    Grids over ``MAX_STEPS`` steps raise a parameter error before any
    sample is drawn.  The RK4 recurrence is solved by the blocked scan of
    ``_scan_affine``: the steps of a per-step loop in another summation
    order, so the amplitudes agree with such a loop to rounding (~1e-14).

    P_flip is the trapezoid integral of |f_R_out|^2 on the grid.  Because
    both output pulses vanish smoothly at the window ends, the trapezoid
    rule's Euler-Maclaurin boundary terms cancel and the quadrature error
    sits far below the integrator's.
    """
    if grid is None:
        grid = default_grid(params)
    _check_grid(params, grid)

    n = grid.n_steps
    h = grid.step
    with np.errstate(all="ignore"):  # a blow-up is reported by the check below
        # the samples go in unnamed, so _trajectory can free them before its scan
        y, f_in = _trajectory(params, h, _half_step_samples(params.tau, grid))
    y = y[: n + 1]
    if not np.isfinite(y).all():
        raise NumericalBlowupError(
            "non-finite amplitudes during integration; check parameters and step"
        )
    c_l, c_r, c_e = y.T

    sqrt_k = math.sqrt(params.kappa)
    f_r_out = sqrt_k * c_r
    p_flip = _trapezoid_of_square(f_r_out, h)
    f_l_out = sqrt_k * c_l
    f_l_out += f_in
    p_noflip = _trapezoid_of_square(f_l_out, h)
    return PulseResult(
        time_grid=grid.times(),
        c_L=c_l,
        c_R=c_r,
        c_e=c_e,
        f_in=f_in,
        f_L_out=f_l_out,
        f_R_out=f_r_out,
        P_flip=p_flip,
        P_noflip=p_noflip,
    )


def adiabatic_output_coefficients(params: PulseParams) -> tuple[float, float]:
    """Long-pulse reflection and conversion amplitudes (r_LL, t_LR).

    In the adiabatic limit the outputs follow the input shape with
    r_LL = 1 - 2 g_R^2/(g_L^2+g_R^2) and t_LR = 2 g_L g_R/(g_L^2+g_R^2);
    r^2 + t^2 = 1 identically.  Matched couplings give (0, 1): complete
    conversion, which is the polarization/atom flip the schemes rely on.
    """
    scale = max(params.g_L, params.g_R)
    if scale == 0.0:
        raise DegenerateCouplingError(
            "both couplings vanish; the pulse sees an empty cavity"
        )
    g_l, g_r = params.g_L / scale, params.g_R / scale  # so no square over- or underflows
    gsq = g_l * g_l + g_r * g_r
    r_ll = 1.0 - 2.0 * g_r * g_r / gsq
    t_lr = 2.0 * g_l * g_r / gsq
    return r_ll, t_lr


@dataclass(frozen=True)
class SweepPoint:
    """One flip-probability sample at g_L = g_R = g."""

    g_over_kappa: float
    kappa_tau: float
    P_flip: float
    P_noflip: float


def flip_probability_sweep(
    g_over_kappa: Sequence[float],
    kappa_tau: Sequence[float],
    step: float | None = None,
) -> list[SweepPoint]:
    """P_flip over the (g, tau) grid with matched couplings g_L = g_R = g.

    Rows follow the input ordering: all tau values for the first g, then
    the next g.  Time is measured in units of 1/kappa (kappa = 1).  An
    explicit ``step`` overrides the default step of every point; the
    default window is always used.  Sweeps over ``MAX_SWEEP_POINTS``
    points are refused before any grid is built, and every point's
    parameters and grid (``PulseParams``, ``TimeGrid`` and
    :func:`_check_grid`), and the sum of their steps against
    ``MAX_SWEEP_STEPS``, are checked before the first point is integrated.
    A point's refusal keeps its type, its text prefixed by the point's
    index in row order and its ``g`` and ``tau``.
    """
    gs = [float(g) for g in g_over_kappa]
    taus = [float(t) for t in kappa_tau]
    if not gs or not taus:
        raise ParameterError("need at least one g and one tau value")
    if len(gs) * len(taus) > MAX_SWEEP_POINTS:
        raise ParameterError(
            f"sweep of {len(gs)} g x {len(taus)} tau values exceeds "
            f"MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}"
        )
    for g in gs:  # PulseParams accepts g = 0, a sweep does not
        if not (math.isfinite(g) and g > 0):
            raise ParameterError(f"g values must be positive, got {g}")

    points = []
    for g in gs:
        for tau in taus:
            try:
                params = PulseParams(g_L=g, g_R=g, kappa=1.0, tau=tau)
                grid = default_grid(params)
                if step is not None:
                    grid = TimeGrid(grid.t_start, grid.t_end, step)
                _check_grid(params, grid)
            except ParameterError as exc:
                where = f"sweep point {len(points)} (g = {g}, tau = {tau}): "
                raise type(exc)(where + str(exc)) from None
            points.append((params, grid))
    total = sum(grid.n_steps for _, grid in points)
    if total > MAX_SWEEP_STEPS:
        raise ParameterError(
            f"sweep of {len(points)} points needs {total} RK4 steps, more than "
            f"MAX_SWEEP_STEPS = {MAX_SWEEP_STEPS}"
        )
    rows = []
    for params, grid in points:
        result = integrate_pulse(params, grid)
        rows.append(SweepPoint(params.g_L, params.tau, result.P_flip, result.P_noflip))
        del result  # else its trajectories stay alive through the next integration
    return rows


def format_float(x: float) -> str:
    """17 significant digits: doubles survive the text round trip."""
    text = format(float(x), ".17g")
    if "." not in text and "e" not in text and "n" not in text:
        text += ".0"
    return text


def sweep_csv_text(rows: Sequence[SweepPoint]) -> str:
    """CSV with columns (g_over_kappa, kappa_tau, P_flip), LF endings."""
    lines = ["g_over_kappa,kappa_tau,P_flip"]
    for row in rows:
        lines.append(
            ",".join(
                (
                    format_float(row.g_over_kappa),
                    format_float(row.kappa_tau),
                    format_float(row.P_flip),
                )
            )
        )
    return "\n".join(lines) + "\n"
