"""Command line front end: scheme runs, flip-probability sweeps, retry walk.

Output is deterministic byte for byte: floats are printed with 17
significant digits (lossless double round trip), JSON key order follows
construction order, and CSV uses LF endings.  Exit codes: 0 success,
2 usage or parameter error, 3 internal contract violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import iomodel, schemes
from .errors import CavnetError, ParameterError
from .iomodel import format_float
from .verify import Graph

SCHEME_NAMES = (
    "ghz-atoms",
    "w",
    "w3-prob",
    "w3-det",
    "cluster",
    "ghz-fields",
    "field-cz",
    "graph",
)


def dump_json(value, indent: int = 0) -> str:
    """Render JSON with full-precision floats and stable ordering.

    A 1-D complex array renders as its list of ``[re, im]`` pairs.  The
    text is collected as pieces in one list and joined once.
    """
    pieces: list[str] = []
    _render(value, indent, pieces)
    return "".join(pieces)


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
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = "  " * (indent + 1)
        sep = "{\n"
        for key, item in value.items():
            out.append(f"{sep}{inner}{json.dumps(str(key))}: ")
            _render(item, indent + 1, out)
            sep = ",\n"
        out.append(f"\n{'  ' * indent}}}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = "  " * (indent + 1)
        sep = "[\n"
        for item in value:
            out.append(sep + inner)
            _render(item, indent + 1, out)
            sep = ",\n"
        out.append(f"\n{'  ' * indent}]")
    elif (
        isinstance(value, np.ndarray)
        and value.ndim == 1
        and np.issubdtype(value.dtype, np.complexfloating)
    ):
        out.append(_dump_amplitudes(value, indent))
    else:
        raise ParameterError(f"cannot serialize {type(value).__name__}")


def _dump_amplitudes(amps: np.ndarray, indent: int) -> str:
    """Render a complex vector exactly as :func:`dump_json` renders its ``[re, im]`` pairs.

    The 16-byte ``[re, im]`` records are sorted once by their bit patterns
    (so -0.0 stays apart from 0.0), each distinct record is rendered once,
    and the blocks are joined in vector order through the inverse index.
    """
    if amps.size == 0:
        return "[]"
    if not np.isfinite(amps).all():
        raise ParameterError("non-finite amplitude cannot be serialized")
    bits = np.ascontiguousarray(amps, dtype=np.complex128).view(np.uint64).reshape(-1, 2)
    order = np.lexsort((bits[:, 1], bits[:, 0]))
    ranked = bits[order]
    fresh = np.empty(len(ranked), dtype=bool)
    fresh[0] = True
    np.not_equal(ranked[1:, 0], ranked[:-1, 0], out=fresh[1:])
    fresh[1:] |= ranked[1:, 1] != ranked[:-1, 1]
    inverse = np.empty(len(ranked), dtype=np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    inner, leaf = "  " * (indent + 1), "  " * (indent + 2)
    blocks = np.array(
        [
            f"{inner}[\n{leaf}{format_float(re)},\n{leaf}{format_float(im)}\n{inner}]"
            for re, im in ranked[fresh].view(np.float64)
        ],
        dtype=object,
    )
    body = ",\n".join(blocks[inverse].tolist())
    return f"[\n{body}\n{'  ' * indent}]"


def _emit(out_path: str | None, *parts: str) -> None:
    """Write ``parts`` one after another to stdout or to ``out_path``."""
    if out_path is None:
        sys.stdout.writelines(parts)
    else:
        with open(out_path, "w", encoding="ascii", newline="") as fh:
            fh.writelines(parts)


def _parse_float_list(raw: str, flag: str) -> list[float]:
    try:
        values = [float(tok) for tok in raw.split(",") if tok != ""]
    except ValueError:
        raise ParameterError(f"{flag} expects comma-separated numbers, got {raw!r}")
    if not values:
        raise ParameterError(f"{flag} got an empty list")
    return values


def _parse_tau_range(raw: str) -> list[float]:
    parts = raw.split(":")
    if len(parts) != 3:
        raise ParameterError(f"--tau-range expects start:stop:count, got {raw!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ParameterError(f"--tau-range expects start:stop:count, got {raw!r}")
    if start <= 0 or stop <= 0 or count < 1:
        raise ParameterError("--tau-range needs positive start/stop and count >= 1")
    if count > iomodel.MAX_SWEEP_POINTS:
        raise ParameterError(
            f"--tau-range count {count} exceeds MAX_SWEEP_POINTS = {iomodel.MAX_SWEEP_POINTS}"
        )
    if count == 1:
        return [start]
    return [float(t) for t in np.geomspace(start, stop, count)]


def _load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read graph file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParameterError(f"graph file {path} is not valid JSON: {exc}")
    if not isinstance(obj, dict) or "vertices" not in obj or "edges" not in obj:
        raise ParameterError(
            'graph file must be {"vertices": int, "edges": [[u,v], ...]}'
        )
    vertices = obj["vertices"]
    edges = obj["edges"]
    if not isinstance(vertices, int) or not isinstance(edges, list):
        raise ParameterError("graph file fields have wrong types")
    pairs = []
    for entry in edges:
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ParameterError(f"edge entries must be [u, v] pairs, got {entry!r}")
        pairs.append((int(entry[0]), int(entry[1])))
    return Graph(vertices, pairs)


def _build_scheme(args) -> schemes.Scheme:
    name = args.scheme
    needs_n = {"ghz-atoms", "w", "cluster", "ghz-fields"}
    if name in needs_n:
        if args.n is None:
            raise ParameterError(f"scheme {name} requires --n")
        builder = {
            "ghz-atoms": schemes.build_ghz_atoms,
            "w": schemes.build_w_pow2,
            "cluster": schemes.build_cluster_atoms,
            "ghz-fields": schemes.build_ghz_fields,
        }[name]
        return builder(args.n)
    if name == "w3-prob":
        return schemes.build_w3_probabilistic()
    if name == "w3-det":
        return schemes.build_w3_deterministic()
    if name == "field-cz":
        return schemes.build_field_cz_pair()
    if name == "graph":
        if args.graph is not None:
            if args.kind is not None or args.n is not None:
                raise ParameterError("--graph excludes --kind/--n")
            return schemes.build_field_graph(graph=_load_graph(args.graph))
        if args.kind is None or args.n is None:
            raise ParameterError("scheme graph needs --kind and --n, or --graph FILE")
        return schemes.build_field_graph(kind=args.kind, n=args.n)
    raise ParameterError(f"unknown scheme {name!r}")


def cmd_run_scheme(args) -> int:
    scheme = _build_scheme(args)
    report = {
        "scheme": schemes.scheme_to_jsonable(scheme),
        "outcomes": schemes.reports_to_jsonable(schemes.run(scheme)),
    }
    _emit(args.out, dump_json(report), "\n")
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
    _emit(args.out, iomodel.sweep_csv_text(rows))
    return 0


def cmd_retry_walk(args) -> int:
    params = schemes.RetryWalkParams(
        p_flip=args.p, n_cavities=args.n, max_steps=args.max_steps
    )
    result = schemes.retry_walk(params)
    payload = {
        "p_flip": params.p_flip,
        "n_cavities": params.n_cavities,
        "max_steps": params.max_steps,
        "success_prob": result.success_prob,
        "expected_steps": result.expected_steps,
        "conditional_fidelity": result.conditional_fidelity,
    }
    if args.mc_trajectories is not None:
        payload["mc_trajectories"] = args.mc_trajectories
        payload["seed"] = args.seed
        payload["mc_success_prob"] = schemes.retry_walk_mc(
            params, args.mc_trajectories, args.seed
        )
    _emit(args.out, dump_json(payload), "\n")
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
        choices=("star", "linear", "ring"),
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
    walk_p.add_argument("--seed", type=int, default=0)
    walk_p.add_argument("--out", default=None, help="write output to a file")
    walk_p.set_defaults(func=cmd_retry_walk)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CavnetError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
