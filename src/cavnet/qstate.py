"""Dense pure-state engine for small registers of unlike subsystems.

A register is an ordered list of labelled subsystems: two-level atoms in
either the {L, R} ground-state basis or the {g, e} ladder basis, single-mode
fields in the {0, 1} photon-number basis, photon polarization in {L, R}, and
a spatial path of arbitrary small dimension.  Amplitudes are stored dense
over the mixed-radix product basis with the *first* subsystem most
significant, so ``index = (((d_0) * dim_1 + d_1) * dim_2 + ...)``.

States are immutable: every public operation here returns a fresh
``PureState`` and the underlying numpy buffers are write-protected.  Two
mutable buffers exist, each private to one function.
:func:`cavnet.schemes.propagate` copies the initial amplitudes once with
the ``path`` axis moved to the front (so a path slice is one contiguous
block), applies every element in place, and transposes the result back
into a fresh register-order array that a ``PureState`` adopts without
another copy.  :meth:`cavnet.verify.LocalCorrection.apply` applies its
``X`` and ``Z`` ops in place on one copy, frozen and adopted the same
way.  Norm is checked to 1e-9
whenever a ``PureState`` is made and never silently renormalized; global
phase is likewise never stripped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    InvalidLabelError,
    ParameterError,
    ShapeError,
)

NORM_ATOL = 1e-9
UNITARY_ATOL = 1e-9
PROJECT_EPS = 1e-12

KIND_ATOM_LR = "atom-LR"
KIND_ATOM_GE = "atom-ge"
KIND_FIELD = "field-01"
KIND_POL = "pol-LR"
KIND_PATH = "path"

_TWO_LEVEL_LABELS = {
    KIND_ATOM_LR: ("L", "R"),
    KIND_ATOM_GE: ("g", "e"),
    KIND_FIELD: ("0", "1"),
    KIND_POL: ("L", "R"),
}


@dataclass(frozen=True)
class Subsystem:
    """One labelled tensor factor of a register.

    ``dim`` is forced to 2 for every kind except ``path``, whose basis
    labels are the port indices ``"0" .. str(dim - 1)``.
    """

    label: str
    kind: str
    dim: int = 2

    def __post_init__(self) -> None:
        if self.kind == KIND_PATH:
            if self.dim < 2:
                raise ParameterError(f"path {self.label!r} needs dim >= 2, got {self.dim}")
        elif self.kind in _TWO_LEVEL_LABELS:
            if self.dim != 2:
                raise ShapeError(f"{self.kind} subsystem {self.label!r} must have dim 2")
        else:
            raise ParameterError(f"unknown subsystem kind {self.kind!r}")

    @property
    def basis_labels(self) -> tuple[str, ...]:
        if self.kind == KIND_PATH:
            return tuple(str(i) for i in range(self.dim))
        return _TWO_LEVEL_LABELS[self.kind]

    def index_of(self, outcome: str | int) -> int:
        """Map a basis label (or port number) to its basis index."""
        if self.kind == KIND_PATH:
            try:
                idx = int(outcome)
            except (TypeError, ValueError):
                raise InvalidLabelError(
                    f"path outcome {outcome!r} is not a port index"
                ) from None
            if not 0 <= idx < self.dim:
                raise InvalidLabelError(
                    f"port {idx} out of range for path {self.label!r} of dim {self.dim}"
                )
            return idx
        try:
            return self.basis_labels.index(str(outcome))
        except ValueError:
            raise InvalidLabelError(
                f"label {outcome!r} is not a basis label of {self.kind} {self.label!r}"
            ) from None


@dataclass(frozen=True)
class Register:
    """Ordered collection of subsystems defining the product basis.

    ``dims`` and ``total_dim`` are computed once, here; ``total_dim`` is an
    exact Python integer, however many subsystems there are.
    """

    subsystems: tuple[Subsystem, ...]
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_dim: int = field(init=False, repr=False, compare=False)
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)

    def __init__(self, subsystems: Iterable[Subsystem]):
        subs = tuple(subsystems)
        if not subs:
            raise ParameterError("register needs at least one subsystem")
        positions: dict[str, int] = {}
        for i, sub in enumerate(subs):
            if sub.label in positions:
                raise ParameterError(f"duplicate subsystem label {sub.label!r}")
            positions[sub.label] = i
        dims = tuple(sub.dim for sub in subs)
        object.__setattr__(self, "subsystems", subs)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "total_dim", math.prod(dims))
        object.__setattr__(self, "_positions", positions)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Register) and self.subsystems == other.subsystems

    def __hash__(self) -> int:
        return hash(self.subsystems)

    def __len__(self) -> int:
        return len(self.subsystems)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(sub.label for sub in self.subsystems)

    def position(self, label: str) -> int:
        try:
            return self._positions[label]
        except KeyError:
            raise InvalidLabelError(f"no subsystem labelled {label!r}") from None

    def subsystem(self, label: str) -> Subsystem:
        return self.subsystems[self.position(label)]

    def index_of_labels(self, outcomes: Sequence[str | int]) -> int:
        """Mixed-radix index of a product basis state, first subsystem most significant."""
        if len(outcomes) != len(self.subsystems):
            raise ShapeError(
                f"expected {len(self.subsystems)} outcome labels, got {len(outcomes)}"
            )
        index = 0
        for sub, outcome in zip(self.subsystems, outcomes):
            index = index * sub.dim + sub.index_of(outcome)
        return index

    def labels_of_index(self, index: int) -> tuple[str, ...]:
        """Inverse of :meth:`index_of_labels`."""
        if not 0 <= index < self.total_dim:
            raise ShapeError(f"basis index {index} out of range")
        digits: list[int] = []
        for dim in reversed(self.dims):
            digits.append(index % dim)
            index //= dim
        digits.reverse()
        return tuple(
            sub.basis_labels[d] for sub, d in zip(self.subsystems, digits)
        )

    def without(self, label: str) -> "Register":
        """Register with one subsystem removed, order preserved."""
        pos = self.position(label)
        remaining = self.subsystems[:pos] + self.subsystems[pos + 1 :]
        return Register(remaining)


@dataclass(frozen=True)
class PureState:
    """Normalized amplitude vector over a register's product basis.

    The amplitudes are copied into a read-only array, unless they already
    are a read-only array that owns its memory: such an array is adopted
    as it is, so a caller can hand over a fresh array it has frozen with
    ``setflags(write=False)`` without paying a second copy.
    """

    register: Register
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.register.total_dim,):
            raise ShapeError(
                f"amplitude vector has shape {amps.shape}, register dim is "
                f"{self.register.total_dim}"
            )
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > NORM_ATOL:
            raise ContractViolationError(f"state norm {norm!r} deviates from 1 beyond 1e-9")
        if amps.flags.writeable or amps.base is not None:
            amps = amps.copy()
            amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, outcomes: Sequence[str | int]) -> complex:
        """Amplitude of one product basis state given per-subsystem labels."""
        return complex(self.amplitudes[self.register.index_of_labels(outcomes)])

    def tensor_view(self) -> np.ndarray:
        """Read-only view shaped with one axis per subsystem."""
        return self.amplitudes.reshape(self.register.dims)


def product_state(register: Register, labels: Sequence[str | int]) -> PureState:
    """Basis product state |l_0 l_1 ...> from one label per subsystem."""
    amps = np.zeros(register.total_dim, dtype=complex)
    amps[register.index_of_labels(labels)] = 1.0
    return PureState(register, amps)


def from_factors(
    register: Register, factors: Sequence[tuple[Sequence[str], np.ndarray]]
) -> PureState:
    """Build a state as a tensor product of amplitude factors.

    Each factor covers one or more *consecutive* register subsystems (given
    by label) and supplies an amplitude vector over their joint basis; the
    factors must tile the register in order.  This is how schemes express
    initial conditions that are not plain product basis states, e.g. a
    ``(|0,g> + |1,e>)/sqrt(2)`` cavity-atom pair.
    """
    covered: list[str] = []
    vec = np.array([1.0 + 0.0j])
    for labels, block in factors:
        for lab in labels:
            pos = register.position(lab)
            if pos != len(covered):
                raise ShapeError(
                    "initial-state factors must tile the register in order; "
                    f"{lab!r} is out of place"
                )
            covered.append(lab)
        dim = int(np.prod([register.subsystem(lab).dim for lab in labels]))
        block = np.asarray(block, dtype=complex).reshape(-1)
        if block.shape != (dim,):
            raise ShapeError(
                f"factor over {tuple(labels)} has length {block.size}, expected {dim}"
            )
        product = np.empty(vec.size * dim, dtype=complex)
        np.multiply.outer(vec, block, out=product.reshape(vec.size, dim))
        vec = product
    if len(covered) != len(register):
        raise ShapeError("initial-state factors do not cover the whole register")
    vec.setflags(write=False)
    return PureState(register, vec)


def _block_product(view: np.ndarray, axes: list[int], block: np.ndarray) -> np.ndarray:
    """``block`` applied on the joint basis of ``axes`` of ``view``, as a new array.

    The one block kernel: :func:`apply_unitary` and the in-place element
    kernels of :mod:`cavnet.schemes` both apply their matrices through it.
    The target axes go to the front, one matrix product acts on the
    flattened rest, and the result is returned in ``view``'s axis order.
    """
    order = axes + [a for a in range(view.ndim) if a not in axes]
    moved = view.transpose(order)
    out = np.dot(block, moved.reshape(len(block), -1)).reshape(moved.shape)
    return out.transpose(np.argsort(order))


def apply_unitary(
    state: PureState, targets: Sequence[str], matrix: np.ndarray
) -> PureState:
    """Apply a unitary on the listed target subsystems (in the given order).

    The matrix acts on the joint basis of the targets, most significant
    first, and must be unitary to 1e-9.
    """
    register = state.register
    if len(set(targets)) != len(targets):
        raise ParameterError(f"target labels must be distinct, got {list(targets)}")
    positions = [register.position(lab) for lab in targets]
    joint = int(np.prod([register.subsystems[p].dim for p in positions]))
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (joint, joint):
        raise ShapeError(
            f"matrix shape {matrix.shape} does not match joint target dim {joint}"
        )
    defect = np.abs(matrix.conj().T @ matrix - np.eye(joint)).max()
    if defect > UNITARY_ATOL:
        raise ContractViolationError(
            f"matrix is not unitary (max defect {defect:.3e} > 1e-9)"
        )

    out = _block_product(state.tensor_view(), positions, matrix).flatten()
    out.setflags(write=False)
    return PureState(register, out)


def projection_probability(
    state: PureState, target: str, outcome: str | int
) -> float:
    """Probability of finding ``target`` in the basis state ``outcome``."""
    pos = state.register.position(target)
    idx = state.register.subsystems[pos].index_of(outcome)
    tensor = state.amplitudes.reshape(state.register.dims)
    slab = np.take(tensor, idx, axis=pos)
    return float(np.sum(np.abs(slab) ** 2))


def project(
    state: PureState, target: str, outcome: str | int
) -> tuple[float, PureState | None]:
    """Project one subsystem onto a basis outcome.

    Returns ``(probability, renormalized post state)``; the post state is
    ``None`` when the probability is below 1e-12.  The projected subsystem
    is kept in the register (pinned to the outcome).
    """
    register = state.register
    pos = register.position(target)
    idx = register.subsystems[pos].index_of(outcome)
    tensor = state.amplitudes.reshape(register.dims).copy()
    mask = np.zeros(register.subsystems[pos].dim, dtype=bool)
    mask[idx] = True
    shape = [1] * len(register)
    shape[pos] = register.subsystems[pos].dim
    tensor = tensor * mask.reshape(shape)
    prob = float(np.sum(np.abs(tensor) ** 2))
    if prob <= PROJECT_EPS:
        return prob, None
    post = PureState(register, tensor.reshape(-1) / np.sqrt(prob))
    return prob, post


def project_out(
    state: PureState, target: str, outcome: str | int
) -> tuple[float, PureState | None]:
    """Like :func:`project`, but drops the projected subsystem from the register."""
    register = state.register
    if len(register) == 1:
        raise ParameterError(
            "cannot drop the last subsystem; use project() to pin it instead"
        )
    pos = register.position(target)
    idx = register.subsystems[pos].index_of(outcome)
    tensor = state.amplitudes.reshape(register.dims)
    slab = np.take(tensor, idx, axis=pos)
    prob = float(np.sum(np.abs(slab) ** 2))
    if prob <= PROJECT_EPS:
        return prob, None
    amps = slab.reshape(-1) / np.sqrt(prob)
    amps.setflags(write=False)
    return prob, PureState(register.without(target), amps)


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>; both states must live on the same register."""
    if a.register != b.register:
        raise ShapeError("overlap requires both states on the same register")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
