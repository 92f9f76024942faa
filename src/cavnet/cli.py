"""Command line front end: scheme runs, flip-probability sweeps, retry walk.

Output is deterministic byte for byte: floats are printed with 17
significant digits (lossless double round trip), JSON key order follows
construction order, and CSV uses LF endings.  Exit codes: 0 success,
2 usage or parameter error, 3 internal contract violation.
"""

from __future__ import annotations

import argparse
import ctypes
import errno
import json
import math
import os
import stat
import sys

import numpy as np

from . import iomodel, qstate, schemes
from .errors import CavnetError, ParameterError
from .iomodel import format_float
from .verify import GRAPH_FAMILIES, Graph

# run-scheme name -> (builder in cavnet.schemes, the flags it takes).  The
# builder is looked up when the command runs, so a wrapped builder is called.
_SCHEMES = {
    "ghz-atoms": ("build_ghz_atoms", ("n",)),
    "w": ("build_w_pow2", ("n",)),
    "w3-prob": ("build_w3_probabilistic", ()),
    "w3-det": ("build_w3_deterministic", ()),
    "cluster": ("build_cluster_atoms", ("n",)),
    "ghz-fields": ("build_ghz_fields", ("n",)),
    "field-cz": ("build_field_cz_pair", ()),
    "graph": ("build_field_graph", ("kind", "n", "graph")),
}
SCHEME_NAMES = tuple(_SCHEMES)


def dump_json(value, indent: int = 0) -> list[str]:
    """Render JSON with full-precision floats and stable ordering, as a list of text pieces.

    A 1-D complex array renders as its list of ``[re, im]`` pairs.  The
    document is ``"".join`` of the pieces; they are left unjoined, since a
    large report's text would otherwise exist twice, as pieces and as one
    string, and :func:`_emit` writes them a group at a time.  A value that
    cannot be rendered raises before any piece is returned.
    """
    pieces: list[str] = []
    _render(value, indent, pieces)
    return pieces


def _render(value, indent: int, out: list[str]) -> None:
    """Append the JSON text of ``value``, nested ``indent`` levels deep, to ``out``."""
    if value is None:
        out.append("null")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        x = float(value)
        if not math.isfinite(x):
            raise ParameterError(f"non-finite value {x} cannot be serialized")
        out.append(format_float(x))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, (dict, list, tuple)):
        if isinstance(value, dict):
            brackets, entries = "{}", ((f"{json.dumps(str(k))}: ", v) for k, v in value.items())
        else:
            brackets, entries = "[]", (("", item) for item in value)
        if not value:
            out.append(brackets)
            return
        inner = "  " * (indent + 1)
        sep = brackets[0] + "\n"
        for key, item in entries:
            out.append(f"{sep}{inner}{key}")
            _render(item, indent + 1, out)
            sep = ",\n"
        out.append(f"\n{'  ' * indent}{brackets[1]}")
    elif (
        isinstance(value, np.ndarray)
        and value.ndim == 1
        and np.issubdtype(value.dtype, np.complexfloating)
    ):
        _dump_amplitudes(value, indent, out)
    else:
        raise ParameterError(f"cannot serialize {type(value).__name__}")


def _dump_amplitudes(amps: np.ndarray, indent: int, out: list[str]) -> None:
    """Append the text :func:`dump_json` gives ``amps``'s ``[re, im]`` pairs to ``out``.

    Records are compared as 16-byte bit patterns, so -0.0 stays apart from
    0.0.  Only the first record of each run of equal records is sorted, to
    render each distinct record once.  Where the runs average ``_RUN_BLOCK``
    records or more, a run of ``k`` records is ``k // _RUN_BLOCK`` references
    to one string of ``_RUN_BLOCK`` records, then ``k % _RUN_BLOCK`` references
    to the record's string; elsewhere each record is a reference to its string.
    """
    if amps.size == 0:
        out.append("[]")
        return
    bits = np.ascontiguousarray(amps, dtype=np.complex128).view(np.uint64).reshape(-1, 2)
    starts = np.flatnonzero(_differs_from_previous(bits))
    runs = np.diff(starts, append=len(bits))
    heads = bits[starts]
    if not np.isfinite(heads.view(np.float64)).all():
        raise ParameterError("non-finite amplitude cannot be serialized")
    order = np.lexsort((heads[:, 1], heads[:, 0]))
    ranked = heads[order]
    fresh = _differs_from_previous(ranked)
    inverse = np.empty(len(ranked), dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    inner, leaf = "  " * (indent + 1), "  " * (indent + 2)
    # every record after the first carries the separator in front of it
    texts = [
        f",\n{inner}[\n{leaf}{format_float(re)},\n{leaf}{format_float(im)}\n{inner}]"
        for re, im in ranked[fresh].view(np.float64)
    ]
    runs[0] -= 1
    out.append("[\n" + texts[inverse[0]][2:])
    if len(bits) >= _RUN_BLOCK * len(runs):  # else the saved references would not pay
        blocks, rest = np.divmod(runs, _RUN_BLOCK)
        shared = np.unique(inverse[blocks > 0])
        texts += [texts[j] * _RUN_BLOCK for j in shared]
        # a run with no block repeats its slot, which may be any index, no time
        slot = len(texts) - len(shared) + np.searchsorted(shared, inverse)
        inverse = np.column_stack((slot, inverse)).ravel()
        runs = np.column_stack((blocks, rest)).ravel()
    out.extend(np.array(texts, dtype=object)[np.repeat(inverse, runs)].tolist())
    out.append(f"\n{'  ' * indent}]")


def _differs_from_previous(records: np.ndarray) -> np.ndarray:
    """Mask of the rows of a two-column array that differ from the row before (row 0 does)."""
    mask = np.empty(len(records), dtype=bool)
    mask[0] = True
    np.not_equal(records[1:, 0], records[:-1, 0], out=mask[1:])
    mask[1:] |= records[1:, 1] != records[:-1, 1]
    return mask


# Records per piece at most, and pieces per write: 8,192 records, under 0.8 MB in a report.
_RUN_BLOCK = 16
_EMIT_GROUP = 1 << 9


def _emit(out_path: str | None, pieces: list[str]) -> None:
    """Write the text ``pieces`` to stdout or to ``out_path``, in order.

    Called once all rendering is done, so a command that fails leaves
    stdout empty and an existing ``out_path`` as it was.  Each write is
    ``"".join`` of ``_EMIT_GROUP`` consecutive pieces: the whole document
    is never one string, and the text stream encodes one group at a time.
    """
    groups = (
        "".join(pieces[i : i + _EMIT_GROUP]) for i in range(0, len(pieces), _EMIT_GROUP)
    )
    if out_path is None:
        try:
            sys.stdout.writelines(groups)
            sys.stdout.flush()
        except OSError as exc:  # a closed pipe, a full disk; devnull keeps exit's flush quiet
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise ParameterError(f"cannot write stdout: {exc.strerror or exc}") from None
        return
    try:
        with open(out_path, "w", encoding="ascii", newline="") as fh:
            fh.writelines(groups)
    except OSError as exc:
        raise ParameterError(f"cannot write {out_path}: {exc.strerror or exc}") from None


def _emit_json(out_path: str | None, value) -> None:
    """Write ``value`` as :func:`dump_json` renders it, plus a newline, through :func:`_emit`."""
    pieces = dump_json(value)
    pieces.append("\n")
    _emit(out_path, pieces)


def _refuse_unwritable(out_path: str) -> None:
    """Refuse, before any work and as :func:`_emit` would, an ``--out`` that ``open`` would refuse.

    A directory is refused, and so is a path whose parent is missing or is
    not a directory, with the reason ``open`` would give.  A new file needs
    write and search permission on its parent and an existing one write
    permission on itself (``os.access``); without it the reason is EACCES.
    An empty path is refused naming the flag, since its message names no file.
    """
    if not out_path:
        raise ParameterError("--out got an empty path")
    if os.path.isdir(out_path):
        raise ParameterError(f"cannot write {out_path}: {os.strerror(errno.EISDIR)}")
    parent = os.path.dirname(out_path) or "."
    try:
        if not stat.S_ISDIR(os.stat(parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
    except OSError as exc:
        raise ParameterError(f"cannot write {out_path}: {exc.strerror}") from None
    if os.path.exists(out_path):
        writable = os.access(out_path, os.W_OK)
    else:
        writable = os.access(parent, os.W_OK | os.X_OK)
    if not writable:
        raise ParameterError(f"cannot write {out_path}: {os.strerror(errno.EACCES)}")


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok != ""]
    except ValueError:
        raise ParameterError(f"{flag} expects comma-separated numbers, got {raw!r}")
    if not values:
        raise ParameterError(f"{flag} got an empty list")
    return values


def _parse_tau_range(raw: str) -> list[float]:
    try:  # a field too many or too few is a ValueError of the unpacking
        start_text, stop_text, count_text = raw.split(":")
        start, stop, count = float(start_text), float(stop_text), int(count_text)
    except ValueError:
        raise ParameterError(f"--tau-range expects start:stop:count, got {raw!r}")
    if not (0 < start < math.inf and 0 < stop < math.inf) or count < 1:
        raise ParameterError("--tau-range needs finite positive start/stop and count >= 1")
    if count > iomodel.MAX_SWEEP_POINTS:
        raise ParameterError(
            f"--tau-range count {count} exceeds MAX_SWEEP_POINTS = {iomodel.MAX_SWEEP_POINTS}"
        )
    return [float(t) for t in np.geomspace(start, stop, count)]


def _load_graph(path: str) -> Graph:
    """The graph a JSON file ``{"vertices": int, "edges": [[u, v], ...]}`` describes.

    The vertex count and every endpoint must be a JSON integer (``type``
    ``int``, so not a bool): a float or anything else is refused, never
    converted.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read graph file: {exc.strerror or exc}")
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nested too deep
        raise ParameterError(f"graph file is not valid JSON: {exc}")
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise ParameterError(
            'graph file must be {"vertices": int, "edges": [[u,v], ...]}'
        )
    vertices = obj["vertices"]
    edges = obj["edges"]
    if type(vertices) is not int or not isinstance(edges, list):
        raise ParameterError("graph file fields have wrong types")
    for i, entry in enumerate(edges):
        if not (
            isinstance(entry, list) and len(entry) == 2 and all(type(x) is int for x in entry)
        ):
            raise ParameterError(f"edge entries must be [u, v] integer pairs, entry {i} is not")
    return Graph(vertices, map(tuple, edges))


def _build_scheme(args) -> schemes.Scheme:
    name, takes = _SCHEMES[args.scheme]
    for flag in ("n", "kind", "graph"):
        if getattr(args, flag) is not None and flag not in takes:
            raise ParameterError(f"scheme {args.scheme} does not take --{flag}")
    builder = getattr(schemes, name)
    if not takes:
        return builder()
    if args.n is None and args.graph is None:
        raise ParameterError(f"scheme {args.scheme} requires --n")
    try:
        if args.scheme == "graph":  # build_field_graph refuses both or neither
            graph = None if args.graph is None else _load_graph(args.graph)
            return builder(args.kind, args.n, graph)
        return builder(args.n)
    except ParameterError as exc:  # name the flags given, which the library does not know
        given = " ".join(f"--{f} {getattr(args, f)}" for f in takes if getattr(args, f) is not None)
        raise ParameterError(f"{given}: {exc}") from None


def cmd_run_scheme(args) -> int:
    scheme = _build_scheme(args)
    report = {
        "scheme": schemes.scheme_to_jsonable(scheme),
        "outcomes": schemes.reports_to_jsonable(schemes.run(scheme)),
    }
    _emit_json(args.out, report)
    return 0


def cmd_flip_sweep(args) -> int:
    gs = _parse_float_list(args.g, "--g")
    if (args.tau is None) == (args.tau_range is None):
        raise ParameterError("pass exactly one of --tau or --tau-range")
    taus = (
        _parse_float_list(args.tau, "--tau")
        if args.tau is not None
        else _parse_tau_range(args.tau_range)
    )
    rows = iomodel.flip_probability_sweep(gs, taus, step=args.step)
    _emit(args.out, [iomodel.sweep_csv_text(rows)])
    return 0


def cmd_retry_walk(args) -> int:
    if args.seed is not None and args.mc_trajectories is None:
        raise ParameterError("--seed applies only with --mc-trajectories")
    seed = 0 if args.seed is None else args.seed
    params = schemes.RetryWalkParams(
        p_flip=args.p, n_cavities=args.n, max_steps=args.max_steps
    )
    mc = None  # run first, so its budgets refuse before either walk runs
    if args.mc_trajectories is not None:
        mc = schemes.retry_walk_mc(params, args.mc_trajectories, seed)
    result = schemes.retry_walk(params)
    payload = {**vars(params), **vars(result)}
    if not math.isfinite(result.expected_steps):  # inf beyond the largest double; JSON has no inf
        payload["expected_steps"] = None
    if args.mc_trajectories is not None:
        payload.update(mc_trajectories=args.mc_trajectories, seed=seed, mc_success_prob=mc)
    _emit_json(args.out, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavnet",
        description="Simulate cavity-mediated entanglement-generation networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run-scheme", help="run a scheme, print outcome JSON")
    run_p.add_argument("scheme", choices=SCHEME_NAMES)
    run_p.add_argument("--n", type=int, default=None, help="register size")
    run_p.add_argument(
        "--kind",
        choices=tuple(GRAPH_FAMILIES),
        default=None,
        help="named graph family for the graph scheme",
    )
    run_p.add_argument(
        "--graph", default=None, metavar="FILE", help="JSON graph description"
    )
    run_p.add_argument("--out", default=None, help="write output to a file")
    run_p.set_defaults(func=cmd_run_scheme)

    sweep_p = sub.add_parser("flip-sweep", help="flip probability sweep to CSV")
    sweep_p.add_argument("--g", required=True, help="comma list of g/kappa values")
    sweep_p.add_argument("--tau", default=None, help="comma list of kappa*tau values")
    sweep_p.add_argument(
        "--tau-range",
        default=None,
        metavar="START:STOP:COUNT",
        help="log-spaced kappa*tau values",
    )
    sweep_p.add_argument(
        "--step", type=float, default=None, help="override the integrator step"
    )
    sweep_p.add_argument("--out", default=None, help="write CSV to a file")
    sweep_p.set_defaults(func=cmd_flip_sweep)

    walk_p = sub.add_parser("retry-walk", help="repeat-until-success walk statistics")
    walk_p.add_argument("--p", type=float, required=True, help="per-block flip probability")
    walk_p.add_argument("--n", type=int, required=True, help="number of chained cavities")
    walk_p.add_argument("--max-steps", type=int, default=10_000)
    walk_p.add_argument(
        "--mc-trajectories", type=int, default=None, help="Monte-Carlo cross-check size"
    )
    walk_p.add_argument("--seed", type=int, default=None, help="Monte-Carlo seed (default 0)")
    walk_p.add_argument("--out", default=None, help="write output to a file")
    walk_p.set_defaults(func=cmd_retry_walk)
    return parser


# glibc's mallopt parameters (malloc.h), and the bytes of one state vector of
# the largest register the budget admits.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_STATE_VECTOR_BYTES = qstate.MAX_TOTAL_DIM * np.dtype(complex).itemsize


def _keep_freed_memory() -> None:
    """Make glibc keep freed arrays mapped, for the next array to reuse.

    glibc's default thresholds move as arrays are freed: a freed multi-MB
    array goes back to the kernel, by ``munmap`` or by trimming the heap,
    and the next one is faulted in page by page.  Serving every block up to
    one state vector from the heap, and trimming only above two of them,
    keeps freed pages for reuse; a second call sets the same values.  The
    trim threshold is set only once ``mallopt`` has applied the mmap
    threshold (returned 1); without glibc's ``mallopt`` nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library, or not glibc's
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _STATE_VECTOR_BYTES) == 1:
        mallopt(_M_TRIM_THRESHOLD, 2 * _STATE_VECTOR_BYTES)


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.out is not None:
            _refuse_unwritable(args.out)
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CavnetError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
