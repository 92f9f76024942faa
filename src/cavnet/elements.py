"""Unitary building blocks for the network schemes.

Every function returns a small dense matrix over an explicitly documented
basis order; the wiring (which register subsystems a block acts on, and on
which interferometer arm) lives in :mod:`cavnet.schemes`.  Conventions are
load-bearing and pinned by tests:

* beam splitter: ``[[sqrt(1-R), sqrt(R)], [sqrt(R), -sqrt(1-R)]]`` on
  (top, bottom) amplitudes -- real, symmetric, self-inverse, with the pi
  phase on the bottom->bottom reflection;
* cavity-atom block (basis ``L*L, L*R, R*L, R*R`` for atom x polarization):
  matched atom/photon states swap with amplitude +1, mismatched ones
  reflect with amplitude -1, reproducing the adiabatic single-block
  scattering limit;
* ladder blocks (basis ``g0, g1, e0, e1`` for atom x field): the pi block
  exchanges ``g1 <-> e0`` with a -1 on the downward branch, the half-pi
  block is the corresponding 45-degree rotation, the dispersive block is
  ``diag(1, 1, 1, -1)``, the Ramsey zone is the Hadamard-like rotation on
  the bare atom, and the external pi pulse is a plain exchange.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

ELEMENT_UNITARY_ATOL = 1e-12
DOUBLE_EXCITATION_EPS = 1e-12

_SQRT_HALF = np.sqrt(0.5)


def bs_unitary(reflectivity: float) -> np.ndarray:
    """Beam-splitter matrix on (top, bottom) path amplitudes.

    Real symmetric convention [[t, r], [r, -t]]: the pi phase sits on the
    bottom-to-bottom reflection, and the matrix is its own inverse.  A
    reflectivity of exactly 0 or 1 is no splitter at all and is rejected.
    """
    if not 0.0 < reflectivity < 1.0:
        raise ParameterError(
            f"reflectivity must lie strictly inside (0, 1), got {reflectivity}"
        )
    t = np.sqrt(1.0 - reflectivity)
    r = np.sqrt(reflectivity)
    return np.array([[t, r], [r, -t]], dtype=complex)


def cavity_atom_block_unitary() -> np.ndarray:
    """Polarized-photon reflection off a single-sided cavity holding an L/R atom.

    Basis order (atom, polarization): ``LL, LR, RL, RR``.  A photon whose
    polarization addresses the populated transition swaps the atom and its
    own polarization (``|L,L> -> |R,R>`` and back, amplitude +1); the
    mismatched combinations see an empty cavity and reflect with -1.
    """
    u = np.zeros((4, 4), dtype=complex)
    u[3, 0] = 1.0   # L,L -> R,R
    u[0, 3] = 1.0   # R,R -> L,L
    u[1, 1] = -1.0  # L,R reflects
    u[2, 2] = -1.0  # R,L reflects
    return u


def pbs_unitary() -> np.ndarray:
    """Polarizing beam splitter on (path pair, polarization).

    Basis order (path in {a, b}, pol): ``aL, aR, bL, bR``.  L transmits
    (path kept), R reflects (paths swapped); no phases anywhere.
    """
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = 1.0  # aL stays
    u[2, 2] = 1.0  # bL stays
    u[3, 1] = 1.0  # aR -> bR
    u[1, 3] = 1.0  # bR -> aR
    return u


def pr_unitary() -> np.ndarray:
    """Polarization rotator: exchanges L and R with unit amplitude."""
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def field_pi_block_unitary() -> np.ndarray:
    """Resonant pi interaction between a flying ladder atom and a cavity field.

    Basis order (atom, field): ``g0, g1, e0, e1``.  ``|g,1> -> |e,0>`` and
    ``|e,0> -> -|g,1>``; ``|g,0>`` is untouched.  The doubly excited
    ``|e,1>`` column is formally the identity, but schemes refuse to apply
    the block when that sector is populated (see ``cavnet.schemes._GUARDS``,
    checked in ``_propagated``).
    """
    u = np.zeros((4, 4), dtype=complex)
    u[0, 0] = 1.0
    u[2, 1] = 1.0   # g1 -> e0
    u[1, 2] = -1.0  # e0 -> -g1
    u[3, 3] = 1.0
    return u


def field_half_pi_block_unitary() -> np.ndarray:
    """Half-area version of the pi block: a 45-degree g1/e0 rotation.

    ``|g,1> -> (|g,1> + |e,0>)/sqrt(2)``, ``|e,0> -> (-|g,1> + |e,0>)/sqrt(2)``.
    Applying it twice reproduces the pi block on those states.
    """
    u = np.eye(4, dtype=complex)
    u[1, 1] = _SQRT_HALF
    u[2, 1] = _SQRT_HALF
    u[1, 2] = -_SQRT_HALF
    u[2, 2] = _SQRT_HALF
    return u


def dispersive_block_unitary() -> np.ndarray:
    """Far-detuned pass: a pi phase only on the doubly excited |e,1>."""
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


def ramsey_unitary() -> np.ndarray:
    """Ramsey zone on a ladder atom: g -> (g+e)/sqrt(2), e -> (g-e)/sqrt(2)."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) * _SQRT_HALF


def external_pi_unitary() -> np.ndarray:
    """Classical pi pulse exchanging g and e with +1 amplitudes."""
    return np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


# --------------------------------------------------------------------------
# Element descriptors: the wiring vocabulary consumed by cavnet.schemes.


@dataclass(frozen=True)
class BS:
    """Beam splitter of given reflectivity between two path ports."""

    reflectivity: float
    ports: tuple[int, int]


@dataclass(frozen=True)
class PBS:
    """Polarizing beam splitter between two path ports (L transmits)."""

    ports: tuple[int, int]


@dataclass(frozen=True)
class PR:
    """Polarization rotator inserted in one interferometer arm."""

    port: int


@dataclass(frozen=True)
class PhaseShifter:
    """Fixed optical phase exp(i*phase) on one path port."""

    port: int
    phase: float


@dataclass(frozen=True)
class Reroute:
    """Moves all amplitude from one path port to an otherwise unused one.

    Models taking an arm out of the interferometer, e.g. parking it on a
    dedicated detector that replaces a cavity.
    """

    src: int
    dst: int


@dataclass(frozen=True)
class CavityAtomBlock:
    """Cavity holding an L/R atom, inserted in the arm ``port``."""

    atom: str
    port: int | None = None


@dataclass(frozen=True)
class FieldPiBlock:
    """Resonant pi pass of the flying ladder atom through a field cavity."""

    atom: str
    field: str
    port: int | None = None


@dataclass(frozen=True)
class FieldHalfPiBlock:
    """Resonant half-pi pass (entangling 45-degree rotation)."""

    atom: str
    field: str
    port: int | None = None


@dataclass(frozen=True)
class DispersiveBlock:
    """Far-detuned pass imprinting a conditional pi phase."""

    atom: str
    field: str
    port: int | None = None


@dataclass(frozen=True)
class RamseyZone:
    """Ramsey rotation of one ladder atom."""

    atom: str


@dataclass(frozen=True)
class ExternalPiPulse:
    """Classical pi pulse on one ladder atom."""

    atom: str


@dataclass(frozen=True)
class Detector:
    """Projective detection of one subsystem outcome, e.g. a path port.

    A detector is a terminal marker, not an operator: :func:`cavnet.schemes.run`
    enumerates outcome combinations over the declared detectors.
    """

    id: str
    subsystem: str
    outcome: str | int


Element = (
    BS
    | PBS
    | PR
    | PhaseShifter
    | Reroute
    | CavityAtomBlock
    | FieldPiBlock
    | FieldHalfPiBlock
    | DispersiveBlock
    | RamseyZone
    | ExternalPiPulse
    | Detector
)
