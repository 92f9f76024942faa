"""Optical element catalog: matrix conventions, unitarity, involutions."""

import numpy as np
import pytest

from cavnet import elements as el
from cavnet.errors import ParameterError

SQ2 = np.sqrt(0.5)

ALL_FIXED_UNITARIES = [
    el.cavity_atom_block_unitary(),
    el.pbs_unitary(),
    el.pr_unitary(),
    el.field_pi_block_unitary(),
    el.field_half_pi_block_unitary(),
    el.dispersive_block_unitary(),
    el.ramsey_unitary(),
    el.external_pi_unitary(),
]


def unitarity_defect(u):
    return np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()


def test_every_catalog_matrix_is_unitary():
    for u in ALL_FIXED_UNITARIES:
        assert unitarity_defect(u) < 1e-12
    for r in (0.1, 0.25, 0.5, 1 / 3, 0.9, 1e-9, 1 - 1e-9):
        assert unitarity_defect(el.bs_unitary(r)) < 1e-12


def test_bs_convention():
    u = el.bs_unitary(0.3)
    t, r = np.sqrt(0.7), np.sqrt(0.3)
    assert np.allclose(u, [[t, r], [r, -t]], atol=1e-15)
    # its own inverse: the -t phase placement makes it an involution
    assert np.abs(u @ u - np.eye(2)).max() < 1e-15


def test_bs_rejects_degenerate_reflectivity():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ParameterError):
            el.bs_unitary(bad)


def test_cavity_block_swaps_matched_and_flips_mismatched():
    u = el.cavity_atom_block_unitary()
    # basis (atom, pol): LL, LR, RL, RR
    ll, lr, rl, rr = np.eye(4)
    assert np.allclose(u @ ll, rr)
    assert np.allclose(u @ rr, ll)
    assert np.allclose(u @ lr, -lr)
    assert np.allclose(u @ rl, -rl)
    assert np.abs(u @ u - np.eye(4)).max() < 1e-15


def test_pbs_transmits_l_reflects_r():
    u = el.pbs_unitary()
    # basis (path, pol): aL, aR, bL, bR
    aL, aR, bL, bR = np.eye(4)
    assert np.allclose(u @ aL, aL)
    assert np.allclose(u @ bL, bL)
    assert np.allclose(u @ aR, bR)
    assert np.allclose(u @ bR, aR)


def test_pr_exchanges_polarizations():
    assert np.allclose(el.pr_unitary(), [[0, 1], [1, 0]])


def test_field_pi_block_exchanges_single_excitation():
    u = el.field_pi_block_unitary()
    # basis (atom, field): g0, g1, e0, e1
    g0, g1, e0, e1 = np.eye(4)
    assert np.allclose(u @ g1, e0)
    assert np.allclose(u @ e0, -g1)
    assert np.allclose(u @ g0, g0)
    assert np.allclose(u @ e1, e1)


def test_field_half_pi_block_squares_to_pi_block():
    half = el.field_half_pi_block_unitary()
    g1 = np.eye(4)[1]
    out = half @ g1
    assert out[1] == pytest.approx(SQ2)
    assert out[2] == pytest.approx(SQ2)
    # two half passes act like the full pi block on the rotated pair
    full = el.field_pi_block_unitary()
    assert np.allclose((half @ half)[:, 1], full[:, 1], atol=1e-15)
    assert np.allclose((half @ half)[:, 2], full[:, 2], atol=1e-15)


def test_dispersive_block_phases_only_double_excitation():
    assert np.allclose(el.dispersive_block_unitary(), np.diag([1, 1, 1, -1]))


def test_ramsey_and_external_pi():
    assert np.allclose(el.ramsey_unitary(), np.array([[1, 1], [1, -1]]) * SQ2)
    assert np.allclose(el.external_pi_unitary(), [[0, 1], [1, 0]])


def test_descriptors_are_frozen():
    bs = el.BS(reflectivity=0.5, ports=(0, 1))
    with pytest.raises(AttributeError):
        bs.reflectivity = 0.3
    det = el.Detector(id="D1", subsystem="path", outcome=0)
    assert (det.id, det.subsystem, det.outcome) == ("D1", "path", 0)
