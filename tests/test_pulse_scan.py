"""The blocked RK4 scan of ``integrate_pulse`` against a per-step loop.

``loop_trajectory`` is the reference: the plain per-step RK4 loop over the
same affine tableau, in Python scalars.  The scan reorders the sums, so the
two agree to rounding, not bit for bit.  ``scan_trajectory`` runs the scan
on any drive, not only the Gaussian that ``_trajectory`` samples.  The
scan's Toeplitz and carry products, made in row chunks, are held bit for
bit to ``unchunked_scan_affine``, which makes each in one.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavnet import iomodel as io
from cavnet.iomodel import SCAN_BLOCK as B
from cavnet.iomodel import PulseParams, TimeGrid, integrate_pulse
from support import gaussian_input, unchunked_scan_affine

TRAJ_REL = 1e-12  # relative to the trajectory's peak amplitude
PROB_ABS = 1e-13
C = io._TOEPLITZ_ROWS


def loop_trajectory(params, h, f_half):
    """c_L, c_R, c_e after each of the n = (len(f_half) - 1) // 2 RK4 steps."""
    m, v1, v2, v3 = io._rk4_tableau(params, h)
    n = (len(f_half) - 1) // 2
    c_l = np.empty(n + 1)
    c_r = np.empty(n + 1)
    c_e = np.empty(n + 1)
    c_l[0] = c_r[0] = c_e[0] = 0.0
    m00, m01, m02, m10, m11, m12, m20, m21, m22 = (x.item() for x in m.ravel())
    p0, p1, p2 = (x.item() for x in v1)
    q0, q1, q2 = (x.item() for x in v2)
    r0, r1, r2 = (x.item() for x in v3)
    f_list = f_half.tolist()
    y0 = y1 = y2 = 0.0
    for i in range(n):
        fa = f_list[2 * i]
        fb = f_list[2 * i + 1]
        fc = f_list[2 * i + 2]
        z0 = m00 * y0 + m01 * y1 + m02 * y2 + p0 * fa + q0 * fb + r0 * fc
        z1 = m10 * y0 + m11 * y1 + m12 * y2 + p1 * fa + q1 * fb + r1 * fc
        z2 = m20 * y0 + m21 * y1 + m22 * y2 + p2 * fa + q2 * fb + r2 * fc
        y0, y1, y2 = z0, z1, z2
        c_l[i + 1] = y0
        c_r[i + 1] = y1
        c_e[i + 1] = y2
    return c_l, c_r, c_e


def scan_trajectory(params, h, f_half):
    """The scan's states for the drive samples ``f_half``, its terms written as ``_trajectory`` writes them."""
    m, v1, v2, v3 = io._rk4_tableau(params, h)
    n = (len(f_half) - 1) // 2
    y = np.zeros((-(-n // B) * B + 1, 3))
    windows = np.lib.stride_tricks.sliding_window_view(f_half, 3)[::2]
    np.matmul(windows, np.array([v1, v2, v3]), out=y[1 : n + 1])
    return io._scan_affine(m - np.eye(3), y)


def loop_pulse(params, grid):
    """Loop trajectory of the Gaussian drive; P_flip, P_noflip as integrate_pulse sums them."""
    half_times = grid.t_start + 0.5 * grid.step * np.arange(2 * grid.n_steps + 1)
    f_half = gaussian_input(params.tau)(half_times)
    c_l, c_r, c_e = loop_trajectory(params, grid.step, f_half)
    sqrt_k = math.sqrt(params.kappa)
    f_l_out = f_half[::2] + sqrt_k * c_l
    f_r_out = sqrt_k * c_r
    p_flip = float(np.trapezoid(np.abs(f_r_out) ** 2, dx=grid.step))
    p_noflip = float(np.trapezoid(np.abs(f_l_out) ** 2, dx=grid.step))
    return (c_l, c_r, c_e), p_flip, p_noflip


def assert_close_trajectory(got, ref):
    scale = max(np.abs(ref).max(), np.finfo(float).tiny)
    assert np.abs(got - ref).max() <= TRAJ_REL * scale


@st.composite
def pulse_params(draw):
    """Random couplings, or couplings within 1e-6 of critical damping."""
    kappa = draw(st.floats(0.5, 2.0))
    tau = draw(st.floats(0.2, 3.0))
    if draw(st.booleans()):
        g_sq = kappa * kappa / 16.0 * (1.0 + draw(st.floats(-1e-6, 1e-6)))
        angle = draw(st.floats(0.0, math.pi / 2))
        g = math.sqrt(g_sq)
        return PulseParams(g * math.cos(angle), g * math.sin(angle), kappa, tau)
    return PulseParams(draw(st.floats(0.0, 5.0)), draw(st.floats(0.0, 5.0)), kappa, tau)


def drive_samples(n, seed):
    return np.random.default_rng(seed).normal(size=2 * n + 1)


def stable_step(params):
    scale = min(params.tau, 1.0 / params.kappa)
    gbar = math.sqrt(params.g_total_sq)
    if gbar > 0.0:
        scale = min(scale, 1.0 / gbar)
    return scale / 60.0


@settings(max_examples=120, deadline=None)
@given(
    params=pulse_params(),
    n=st.one_of(
        st.sampled_from([1, B - 1, B, B + 1]),
        st.integers(2, 130).map(lambda k: k * B + 1),
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_scan_matches_loop_at_block_edges(params, n, seed):
    h = stable_step(params)
    f_half = drive_samples(n, seed)
    y = scan_trajectory(params, h, f_half)
    assert y.shape[0] >= n + 1 and y.shape[1] == 3
    for got, ref in zip(y[: n + 1].T, loop_trajectory(params, h, f_half)):
        assert_close_trajectory(got, ref)


def test_three_level_scan_matches_loop():
    # B^3 + 1 steps: the block-start recursion itself recurses once more
    params = PulseParams(1.0, 0.7, 1.0, 2.0)
    n = B**3 + 1
    h = stable_step(params)
    f_half = drive_samples(n, 5)
    y = scan_trajectory(params, h, f_half)
    for got, ref in zip(y[: n + 1].T, loop_trajectory(params, h, f_half)):
        assert_close_trajectory(got, ref)


@settings(max_examples=40, deadline=None)
@given(
    params=pulse_params(),
    extra=st.sampled_from([0, 1, B - 1]),
    blocks=st.integers(0, 3),
)
def test_integrate_pulse_matches_loop(params, extra, blocks):
    step = min(params.tau, 1.0 / params.kappa) / 50.0
    t_start = -6.0 * params.tau
    covering = math.ceil(12.0 * params.tau / step)
    n = (covering // B + 1 + blocks) * B + extra
    grid = TimeGrid(t_start, t_start + n * step, step)
    res = integrate_pulse(params, grid=grid)
    ref, p_flip, p_noflip = loop_pulse(params, grid)
    assert res.f_in.flags.c_contiguous
    for got, want in zip((res.c_L, res.c_R, res.c_e), ref):
        assert_close_trajectory(got, want)
    assert res.P_flip == pytest.approx(p_flip, abs=PROB_ABS)
    assert res.P_noflip == pytest.approx(p_noflip, abs=PROB_ABS)


@pytest.mark.parametrize("params", [PulseParams(5.0, 5.0, 1.0, 40.0), PulseParams(1.0, 0.3, 2.0, 1.5)])
@pytest.mark.parametrize("nb", [1, 2, C - 1, C, C + 1, C + 2, 2 * C + 1, 3 * C + 1])
def test_the_chunked_toeplitz_product_keeps_the_bits_of_one_product(params, nb):
    # a chunk of one row would be a matrix-vector product, which rounds otherwise
    m = io._rk4_tableau(params, stable_step(params))[0]
    u = np.random.default_rng(nb).normal(size=(nb * B, 3))
    got = io._scan_affine(m - np.eye(3), np.concatenate((np.zeros((1, 3)), u)))
    want = unchunked_scan_affine(m - np.eye(3), u.copy())
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_every_toeplitz_product_of_the_largest_golden_point_has_two_to_c_plus_one_rows(monkeypatch):
    # each scan level's chunks cover its nb blocks; only a scan of one block
    # (the bottom of the block-start recursion) is a product of one row
    matmul, products = np.matmul, []

    def spy(a, b, *args, out=None, **kwargs):
        if np.shape(b) == (3 * B, 3 * B):
            blocks = (len(out.base) - 1) // B  # out is a slice of the (nb B + 1, 3) states
            products.append((len(a), blocks))
        return matmul(a, b, *args, out=out, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    integrate_pulse(PulseParams(5.0, 5.0, 1.0, 40.0))
    monkeypatch.undo()
    levels = {blocks for _, blocks in products}
    assert max(levels) == 5_746
    for level in levels:
        assert sum(rows for rows, blocks in products if blocks == level) == level
    assert all(2 <= rows <= C + 1 or rows == blocks == 1 for rows, blocks in products)
