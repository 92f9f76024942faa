"""Dense pure-state engine for small registers of unlike subsystems.

A register is an ordered list of labelled subsystems: two-level atoms in
either the {L, R} ground-state basis or the {g, e} ladder basis, single-mode
fields in the {0, 1} photon-number basis, photon polarization in {L, R}, and
a spatial path of arbitrary small dimension.  Amplitudes are stored dense
over the mixed-radix product basis with the *first* subsystem most
significant, so ``index = (((d_0) * dim_1 + d_1) * dim_2 + ...)``.

States are immutable: every public operation here returns a fresh
``PureState`` and the underlying numpy buffers are write-protected.  A
writable buffer is private to the function that fills it, which freezes it
for a ``PureState`` to adopt without another copy.  Elements and
corrections apply their blocks through ``_apply_block``.  A block that is
a signed permutation (one entry of +1 or -1 per row) moves slabs instead
of multiplying: the resonant pi, cavity-atom, dispersive,
polarization-rotator, PBS, reroute and external pi blocks, and the ``X``
and ``Z`` corrections.  Splitters, phase shifters, the Ramsey zone, the
half-pi block and phase corrections are matrix products.  Blocks are
checked here only: ``_Block`` refuses a matrix that is not unitary to its
caller's tolerance (1e-12 for elements, 1e-9 for corrections and
:func:`apply_unitary`), ``_check_fit`` one whose size is not the joint
dimension of its axes.  Zero-sign rule: every zero of an initial product
is ``+0.0``, and so is every zero a slab move writes (``src + 0.0`` or
``0.0 - src``); a ``+1`` fixed point is left as it is.
Norm is checked to 1e-9 whenever a ``PureState`` is made and never
silently renormalized; global phase is likewise never stripped.
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
# Largest register Register accepts: 4x the w-16 register (2,097,152), so one
# state vector is at most 128 MB and a refused size is refused before any
# amplitude is allocated.
MAX_TOTAL_DIM = 2**23

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
    exact Python integer, however many subsystems there are.  The dims are
    multiplied in order and a register over more than ``MAX_TOTAL_DIM``
    basis states raises a parameter error as soon as the running product
    passes it.  A register is immutable, so :meth:`without` keeps each
    register it returns and hands the same one back on the next call; that
    cache takes no part in ``==``, ``hash`` or ``repr``.
    """

    subsystems: tuple[Subsystem, ...]
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_dim: int = field(init=False, repr=False, compare=False)
    _positions: dict[str, int] = field(init=False, repr=False, compare=False)
    _dropped: dict[str, "Register"] = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "total_dim", _checked_total_dim(dims))
        object.__setattr__(self, "_positions", positions)
        object.__setattr__(self, "_dropped", {})

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
        """Register with one subsystem removed, order preserved.

        Built at the first call for ``label`` and kept on this register, so
        every later call returns that same object.
        """
        try:
            return self._dropped[label]
        except KeyError:
            pass
        pos = self.position(label)
        reduced = Register(self.subsystems[:pos] + self.subsystems[pos + 1 :])
        self._dropped[label] = reduced
        return reduced


def _checked_total_dim(dims: Sequence[int]) -> int:
    """Product of ``dims``, refused once the running product passes ``MAX_TOTAL_DIM``.

    The refusal names the dimension as a power of 2, the sum of the dims'
    log2: ``str()`` refuses ints over 4300 digits, and the product of a huge
    register is never formed.
    """
    total = 1
    for dim in dims:
        total *= dim
        if total > MAX_TOTAL_DIM:
            raise ParameterError(
                f"register dimension 2**{sum(map(math.log2, dims)):.2f} exceeds "
                f"MAX_TOTAL_DIM = {MAX_TOTAL_DIM}"
            )
    return total


def _norm(amps: np.ndarray) -> float:
    """Euclidean norm of a complex vector, as one ``vdot``."""
    return float(np.sqrt(np.vdot(amps, amps).real))


def _mass(amps: np.ndarray) -> float:
    """Sum of ``|a|**2`` over ``amps`` (any shape or strides), through one float temporary.

    The same ufuncs in the same order as ``np.sum(np.abs(amps) ** 2)``
    (numpy squares by multiplying), so the same bits.  ``*=`` squares an
    array in place and also takes the scalar a 0-d slab gives.
    """
    mag = np.abs(amps)
    mag *= mag
    return float(mag.sum())


def _check_norm(amps: np.ndarray) -> None:
    norm = _norm(amps)
    if not abs(norm - 1.0) <= NORM_ATOL:
        raise ContractViolationError(f"state norm {norm!r} deviates from 1 beyond 1e-9")


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
        _check_norm(amps)
        if amps.flags.writeable or amps.base is not None:
            amps = amps.copy()
            amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def norm(self) -> float:
        return _norm(self.amplitudes)

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


def _factor_product(
    register: Register, factors, cut: Sequence[slice] | None = None
) -> np.ndarray:
    """A tensor product of amplitude factors in register order, as a fresh writable array.

    Each factor covers one or more *consecutive* register subsystems (given
    by label) and supplies an amplitude vector over their joint basis; the
    factors must tile the register in order.  This is how schemes express
    initial conditions that are not plain product basis states, e.g. a
    ``(|0,g> + |1,e>)/sqrt(2)`` cavity-atom pair.  The factors multiply in
    register order, each from the right of the product so far; adding 0.0
    makes each zero +0.0, whatever the signs.

    ``cut``, one slice per subsystem in register order, bounds the entries
    that may be nonzero: each factor is cut to it first, and the result is
    the product of the cuts over the box they span, so every amplitude in
    it has the bits of the whole product.  Refused: factors that do not
    tile the register in order, a factor of the wrong length, and a norm
    that is not 1 within 1e-9.
    """
    covered: list[str] = []
    flat = np.ones(1, dtype=complex)  # owns the product so far
    for labels, block in factors:
        for lab in labels:
            pos = register.position(lab)
            if pos != len(covered):
                raise ShapeError(
                    "initial-state factors must tile the register in order; "
                    f"{lab!r} is out of place"
                )
            covered.append(lab)
        dims = [register.subsystem(lab).dim for lab in labels]
        block = np.asarray(block, dtype=complex).reshape(-1)
        if block.shape != (math.prod(dims),):
            raise ShapeError(
                f"factor over {tuple(labels)} has length {block.size}, expected {math.prod(dims)}"
            )
        if cut is not None:
            block = block.reshape(dims)[tuple(cut[register.position(lab)] for lab in labels)]
        block = block.reshape(-1)
        product = np.empty(flat.size * block.size, dtype=complex)
        np.multiply(flat[:, None], block[None, :], out=product.reshape(flat.size, block.size))
        flat = product
    if len(covered) != len(register):
        raise ShapeError("initial-state factors do not cover the whole register")
    np.add(flat, 0.0, out=flat)
    _check_norm(flat)
    return flat


def _block_product(view: np.ndarray, axes: list[int], block: np.ndarray) -> np.ndarray:
    """``block`` applied on the joint basis of ``axes`` of ``view``, as a new array.

    The dense kernel, used by :func:`apply_unitary` and by :func:`_apply_block`
    for every block that is not a signed permutation.  The target axes go to
    the front, one matrix product acts on the flattened rest, and the result
    is returned in ``view``'s axis order.  The rest is made contiguous, as
    ``np.dot`` rounds a strided operand in its own loop, not as BLAS does.
    """
    order = axes + [a for a in range(view.ndim) if a not in axes]
    moved = view.transpose(order)
    rest = np.ascontiguousarray(moved.reshape(len(block), -1))
    out = np.dot(block, rest).reshape(moved.shape)
    return out.transpose(np.argsort(order))


# Columns per chunk of _rows_product: a 2x2 splitter multiplies 256 KiB at a time.
_CHUNK_COLUMNS = 1 << 13


def _rows_product(
    rows: np.ndarray, matrix: np.ndarray, occupied: np.ndarray | None = None
) -> None:
    """``rows = matrix @ rows`` in place, by chunks of columns through one buffer.

    The bits are one product's: the chunks start at multiples of a power of
    two, so BLAS blocks their columns alike, and no chunk of a wider ``rows``
    has one column, which numpy would multiply as a matrix-vector product.
    ``occupied``, one flag per column, marks where ``rows`` may hold more
    than +0.0; a chunk of ``_CHUNK_COLUMNS`` columns none of which is
    marked is skipped (see :mod:`cavnet.schemes`, element application).  A
    last chunk of another width is always multiplied, as BLAS writes -0.0
    for some zeros in its tail columns.
    """
    cols = rows.shape[1]
    bounds = [*range(0, max(cols - 1, 1), _CHUNK_COLUMNS), cols]
    buffer = np.empty(len(rows) * min(cols, _CHUNK_COLUMNS + 1), dtype=complex)
    for start, stop in zip(bounds, bounds[1:]):
        if occupied is not None and stop - start == _CHUNK_COLUMNS:
            if not occupied[start:stop].any():
                continue
        part = rows[:, start:stop]
        out = buffer[: part.size].reshape(part.shape)
        np.dot(matrix, part, out=out)
        part[...] = out


def _slab_cycles(matrix: np.ndarray) -> tuple[tuple[tuple[int, int, bool], ...], ...] | None:
    """The slab moves that apply ``matrix``, or None unless it is a signed permutation.

    A signed permutation holds exactly one nonzero entry per row, +1 or -1,
    and no two in one column.  Row ``i`` with its entry ``s`` in column ``j``
    reads ``out_i = s * in_j``, a move ``(i, j, s == -1)``.  The moves are
    grouped into cycles, each listed so that its last move reads the slab its
    first move overwrote; fixed points with +1 are left out.
    """
    nonzero = matrix != 0
    if not (nonzero.sum(axis=1) == 1).all():
        return None
    src = nonzero.argmax(axis=1)
    signs = matrix[np.arange(len(matrix)), src]
    if not ((signs == 1) | (signs == -1)).all() or len(set(src.tolist())) != len(src):
        return None
    cycles = []
    seen: set[int] = set()
    for start in range(len(matrix)):
        cycle = []
        i = start
        while i not in seen:
            seen.add(i)
            cycle.append((i, int(src[i]), bool(signs[i] == -1)))
            i = int(src[i])
        if len(cycle) > 1 or (cycle and cycle[0][2]):
            cycles.append(tuple(cycle))
    return tuple(cycles)


class _Block:
    """A unitary matrix, checked and its signed-permutation structure found once, here.

    ``matrix`` is a read-only complex copy, refused unless unitary to ``atol`` (NaN is not).
    """

    __slots__ = ("matrix", "cycles")

    def __init__(self, matrix, atol: float) -> None:
        block = np.array(matrix, dtype=complex)
        defect = np.abs(block.conj().T @ block - np.eye(len(block))).max()
        if not defect <= atol:
            raise ContractViolationError(
                f"matrix is not unitary (max defect {defect:.3e} > {atol:g})"
            )
        block.setflags(write=False)
        self.matrix = block
        self.cycles = _slab_cycles(block)


def _slab(view: np.ndarray, axes: list[int], joint: int) -> np.ndarray:
    """The view of ``view`` at joint basis index ``joint`` of ``axes``."""
    index: list = [slice(None)] * view.ndim
    for axis in reversed(axes):  # the last target axis is the least significant
        joint, index[axis] = divmod(joint, view.shape[axis])
    return view[(*index, ...)]  # the Ellipsis keeps a one-element slab an array


def _check_fit(block: _Block, dims: Sequence[int]) -> None:
    """Refuse ``block`` unless its size is the joint dimension of target axes of ``dims``."""
    if len(block.matrix) != math.prod(dims):
        joint = math.prod(dims)
        raise ShapeError(f"block shape {block.matrix.shape} does not match joint target dim {joint}")


def _apply_block(
    view: np.ndarray, axes: list[int], block: _Block, occupied: np.ndarray | None = None
) -> None:
    """Apply ``block`` in place on the joint basis of ``axes`` of ``view``.

    A signed permutation moves slabs: a slab is ``view`` at one joint index
    of ``axes``, each cycle saves one slab in a temporary, a +1 move writes
    ``src + 0.0`` and a -1 move ``0.0 - src``, and a +1 fixed point is not
    touched, so every zero a move writes is +0.0 (see :mod:`cavnet.schemes`,
    element application).  A dense block on the leading axis, whose slabs
    are contiguous (a splitter on a path-first buffer), goes through
    :func:`_rows_product`, which skips the column chunks that ``occupied``
    leaves unmarked; any other goes through
    :func:`_block_product`.  A block whose size is not the joint dimension
    of ``axes`` is refused.
    """
    _check_fit(block, [view.shape[a] for a in axes])
    if block.cycles is None:
        if axes == [0] and view[0].flags.c_contiguous:
            _rows_product(view.reshape(len(view), -1), block.matrix, occupied)
        else:
            view[...] = _block_product(view, axes, block.matrix)
        return
    for cycle in block.cycles:
        slabs = {dst: _slab(view, axes, dst) for dst, _, _ in cycle}
        first = cycle[0][0]
        held = slabs[first] if len(cycle) == 1 else slabs[first].copy()
        for dst, src, negate in cycle:
            source = held if src == first else slabs[src]
            if negate:
                np.subtract(0.0, source, out=slabs[dst])
            else:
                np.add(source, 0.0, out=slabs[dst])


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
    block = _Block(matrix, UNITARY_ATOL)
    out = _block_product(state.tensor_view(), positions, block.matrix).flatten()
    out.setflags(write=False)
    return PureState(register, out)


def projection_probability(
    state: PureState, target: str, outcome: str | int
) -> float:
    """Probability of finding ``target`` in the basis state ``outcome``."""
    pos = state.register.position(target)
    idx = state.register.subsystems[pos].index_of(outcome)
    tensor = state.amplitudes.reshape(state.register.dims)
    return _mass(tensor[(slice(None),) * pos + (idx,)])


def project_out(
    state: PureState, target: str, outcome: str | int
) -> tuple[float, PureState | None]:
    """Project one subsystem onto a basis outcome and drop it from the register.

    Returns ``(probability, renormalized post state)``; the post state is
    ``None`` when the probability is at or below ``PROJECT_EPS`` (1e-12).

    The post register is ``register.without(target)``, which a register
    builds once and then keeps, so a chain of projections that drops the
    same subsystems in the same order builds no register after its first
    pass.  The slab is taken straight into the array the post state adopts,
    its probability summed by :func:`_mass`, and it is scaled there: its
    real and imaginary parts are multiplied by ``1 / sqrt(prob)``.  That is
    what numpy's complex-by-real division computes too, except that
    division turns some zeros to ``+0.0``.  The post state's norm is
    checked from ``prob`` and the scale, ``prob * scale**2`` within 1e-9
    of 1 (which a NaN or inf slab fails), so :class:`PureState` adopts the
    slab without reading it again.
    """
    register = state.register
    if len(register) == 1:
        raise ParameterError("cannot drop the last subsystem of a register")
    pos = register.position(target)
    idx = register.subsystems[pos].index_of(outcome)
    post = register.without(target)
    amps = np.empty(post.total_dim, dtype=complex)
    tensor = state.amplitudes.reshape(register.dims)
    # mode="clip" lets take write into ``out`` unbuffered; idx is already checked
    np.take(tensor, idx, axis=pos, out=amps.reshape(post.dims), mode="clip")
    prob = _mass(amps)
    if prob <= PROJECT_EPS:
        return prob, None
    scale = 1.0 / math.sqrt(prob)
    norm2 = prob * scale * scale
    if not abs(norm2 - 1.0) <= NORM_ATOL:
        raise ContractViolationError(f"post state norm**2 {norm2!r} deviates from 1 beyond 1e-9")
    parts = amps.view(np.float64)
    parts *= scale
    amps.setflags(write=False)
    return prob, _adopt(post, amps)  # its shape and norm are checked above


def _adopt(register: Register, amps: np.ndarray) -> PureState:
    """A :class:`PureState` of ``amps`` as they are, which the caller has frozen and checked."""
    state = object.__new__(PureState)
    object.__setattr__(state, "register", register)
    object.__setattr__(state, "amplitudes", amps)
    return state


def overlap(a: PureState, b: PureState) -> complex:
    """Inner product <a|b>; both states must live on the same register."""
    if a.register != b.register:
        raise ShapeError("overlap requires both states on the same register")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
