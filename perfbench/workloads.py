"""The benchmark's workloads: which CLI commands run, and how their output is checked.

Each workload is a list of ``cavnet`` commands run back to back by one
client (a closed loop).  Every command carries a check on its output, so a
wrong answer counts as a failed command, and the exact counts it yields.
Import this module only once ``src`` is on ``sys.path``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from cavnet import iomodel, schemes
from cavnet.verify import Graph

WORKLOADS = ("sweep", "dense", "herald")

GOLDEN_SWEEP = Path("tests") / "golden" / "flip_sweep.csv"
SWEEP_ATOL = 1e-6          # acceptance tolerance of the golden sweep
PROB_SUM_ATOL = 1e-9
FIDELITY_FLOOR = 1.0 - 1e-9
MC_SIGMAS = 5.0
SWEEP_RK4_STEPS = 3_449_430  # RK4 steps of the 80-point golden grid
GRAPH_PROJECT_OUT = 2_048    # 256 outcomes x 8 detector groups per 8-atom graph
SEED_GRAPH_VERTICES = 8
SEED_GRAPH_EDGES = 10


class CheckError(Exception):
    """A command's output is wrong."""


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``check`` validates the output bytes and returns the exact counts they
    imply; ``build`` rebuilds the scheme through the public builders
    (run-scheme only); ``project_out`` is the expected number of
    ``qstate.project_out`` calls, where it is fixed in advance.
    """

    name: str
    argv: tuple[str, ...]
    check: Callable[[bytes], dict]
    build: Callable[[], schemes.Scheme] | None = None
    project_out: int | None = None


def _csv_rows(text: str) -> tuple[str, list[tuple[float, ...]]]:
    lines = text.splitlines()
    return lines[0], [tuple(float(x) for x in line.split(",")) for line in lines[1:]]


def _sweep_check(golden_text: str) -> Callable[[bytes], dict]:
    header, golden = _csv_rows(golden_text)

    def check(out: bytes) -> dict:
        got_header, rows = _csv_rows(out.decode("ascii"))
        if got_header != header or len(rows) != len(golden):
            raise CheckError(f"sweep has {len(rows)} rows, golden file has {len(golden)}")
        for i, (row, ref) in enumerate(zip(rows, golden)):
            if len(row) != len(ref) or any(abs(a - b) > SWEEP_ATOL for a, b in zip(row, ref)):
                raise CheckError(f"sweep row {i} {row} differs from golden {ref} beyond 1e-6")
        steps = sum(
            iomodel.default_grid(iomodel.PulseParams(g, g, 1.0, tau)).n_steps
            for g, tau, _ in rows
        )
        if steps != SWEEP_RK4_STEPS:
            raise CheckError(f"sweep grid needs {steps} RK4 steps, expected {SWEEP_RK4_STEPS}")
        return {"rk4_steps": steps}

    return check


def _scheme_check(outcomes: int, targeted: int) -> Callable[[bytes], dict]:
    def check(out: bytes) -> dict:
        reports = json.loads(out)["outcomes"]
        if len(reports) != outcomes:
            raise CheckError(f"{len(reports)} outcomes, expected {outcomes}")
        total = math.fsum(rep["probability"] for rep in reports)
        if abs(total - 1.0) > PROB_SUM_ATOL:
            raise CheckError(f"outcome probabilities sum to {total!r}")
        fids = [rep["fidelity"] for rep in reports if rep["fidelity"] is not None]
        if len(fids) != targeted:
            raise CheckError(f"{len(fids)} outcomes reached a target, expected {targeted}")
        worst = min(fids, default=1.0)
        if worst < FIDELITY_FLOOR:
            raise CheckError(f"fidelity {worst!r} below 1 - 1e-9")
        return {"outcomes": len(reports)}

    return check


def _walk_check(out: bytes) -> dict:
    doc = json.loads(out)
    p, n, mc = doc["success_prob"], doc["mc_trajectories"], doc["mc_success_prob"]
    sigma = math.sqrt(p * (1.0 - p) / n)
    if abs(mc - p) > MC_SIGMAS * sigma:
        raise CheckError(f"Monte-Carlo {mc!r} is more than 5 sigma from {p!r}")
    return {}


def seed_graph(seed: int) -> Graph:
    """8 vertices and 10 distinct edges drawn from ``seed``."""
    pairs = list(itertools.combinations(range(SEED_GRAPH_VERTICES), 2))
    edges = sorted(random.Random(seed).sample(pairs, SEED_GRAPH_EDGES))
    return Graph(SEED_GRAPH_VERTICES, edges)


def _scheme(name: str, args: list[str], build, outcomes: int, targeted: int, **extra) -> Command:
    return Command(
        name, ("run-scheme", *args), _scheme_check(outcomes, targeted), build, **extra
    )


def commands(workload: str, seed: int, root: Path, work_dir: Path) -> list[Command]:
    """The commands of one workload; inputs that need files are written to ``work_dir``."""
    if workload == "sweep":
        golden = (root / GOLDEN_SWEEP).read_text(encoding="ascii")
        argv = ("flip-sweep", "--g", "0.5,1,2,5", "--tau-range", "0.1:40:20")
        return [Command("flip-sweep", argv, _sweep_check(golden))]
    if workload == "dense":
        return [
            _scheme("w16", ["w", "--n", "16"], lambda: schemes.build_w_pow2(16), 16, 16),
            _scheme(
                "ghz-fields18",
                ["ghz-fields", "--n", "18"],
                lambda: schemes.build_ghz_fields(18),
                2,
                2,
            ),
        ]
    if workload == "herald":
        graph = seed_graph(seed)
        graph_file = work_dir / "graph.json"
        graph_file.write_text(
            json.dumps({"vertices": graph.vertices, "edges": sorted(map(list, graph.edges))}),
            encoding="utf-8",
        )
        walk = ("retry-walk", "--p", "0.8", "--n", "4", "--mc-trajectories", "1000000")
        return [
            _scheme(
                "graph-seeded",
                ["graph", "--graph", str(graph_file)],
                lambda: schemes.build_field_graph(graph=graph),
                256,
                256,
                project_out=GRAPH_PROJECT_OUT,
            ),
            _scheme(
                "graph-ring8",
                ["graph", "--kind", "ring", "--n", "8"],
                lambda: schemes.build_field_graph(kind="ring", n=8),
                256,
                256,
                project_out=GRAPH_PROJECT_OUT,
            ),
            _scheme(
                "cluster16",
                ["cluster", "--n", "16"],
                lambda: schemes.build_cluster_atoms(16),
                2,
                2,
            ),
            Command("retry-walk", (*walk, "--seed", str(seed)), _walk_check),
            _scheme("w3-det", ["w3-det"], schemes.build_w3_deterministic, 3, 3),
            _scheme("w3-prob", ["w3-prob"], schemes.build_w3_probabilistic, 5, 4),
            _scheme("field-cz", ["field-cz"], schemes.build_field_cz_pair, 2, 2),
        ]
    raise ValueError(f"unknown workload {workload!r}")
