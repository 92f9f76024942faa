"""Run one workload in this process and write its measurements as JSON.

Usage (normally started by ``run.py``)::

    python3 perfbench/child.py --workload NAME --seed N --seconds S --trace 0|1 \\
        --work-dir DIR --result FILE [--spans FILE]

The process drives ``cavnet.cli.main`` in-process, each command writing
its output to a file in ``--work-dir``.  One untimed warm-up pass is
followed by timed passes for ``--seconds``.  With ``--trace 1`` one more
pass runs with every layer function wrapped, and each scheme's elements
are then replayed one at a time to time them by kind.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from cavnet import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Runner:
    """Runs a workload's commands back to back and checks what they write.

    Each pass's outputs are hashed in blocks and compared with the first
    pass.  The first pass's outputs are kept on disk and checked only by
    :meth:`check_outputs`, after the peak memory has been read, because
    parsing them would raise it.
    """

    def __init__(self, commands: list[workloads.Command], work_dir: Path) -> None:
        self.commands = commands
        self.outputs = [work_dir / f"{cmd.name}.out" for cmd in commands]
        self.firsts = [work_dir / f"{cmd.name}.first" for cmd in commands]
        self.digests: list[str | None] | None = None
        self.ok: list[list[bool]] = [[] for _ in commands]  # one entry per run of a command
        self.wrong: set[int] = set()  # commands whose first output failed its check
        self.counts: dict[str, int] = {}
        self.problems: list[str] = []

    def run_pass(self) -> float:
        """One pass over every command; returns its wall time in seconds."""
        gc.collect()
        codes = []
        clock = time.perf_counter
        start = clock()
        for cmd, out in zip(self.commands, self.outputs):
            try:
                code = cli.main([*cmd.argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = traceback.format_exc(limit=3)
            codes.append(code)
        wall = clock() - start
        self._settle(codes)
        return wall

    def _settle(self, codes: list) -> None:
        first = self.digests is None
        digests = []
        for out, keep, code in zip(self.outputs, self.firsts, codes):
            digest = _sha256(out) if code == 0 and out.is_file() else None
            if first and digest is not None:
                out.replace(keep)
            else:
                out.unlink(missing_ok=True)
            digests.append(digest)
        if first:
            self.digests = digests
        for cmd, code, digest, ref, ok in zip(
            self.commands, codes, digests, self.digests, self.ok
        ):
            if code != 0:
                self.problems.append(f"{cmd.name}: exit {code}")
            elif digest != ref:
                self.problems.append(f"{cmd.name}: output differs from the first pass")
            ok.append(code == 0 and digest is not None and digest == ref)

    def check_outputs(self) -> None:
        """Check each command's first output; a wrong one fails every run of the command."""
        for i, (cmd, keep) in enumerate(zip(self.commands, self.firsts)):
            if not keep.is_file():
                continue
            data = keep.read_bytes()
            keep.unlink()
            try:
                found = cmd.check(data)
            except (workloads.CheckError, ValueError, KeyError, TypeError) as exc:
                self.problems.append(f"{cmd.name}: wrong output: {exc}")
                self.wrong.add(i)
                continue
            self.counts[f"{cmd.name}.out_bytes"] = len(data)
            for key, value in found.items():
                self.counts[f"{cmd.name}.{key}"] = value

    @property
    def attempted(self) -> int:
        return sum(len(ok) for ok in self.ok)

    @property
    def failed(self) -> int:
        return sum(
            len(ok) if i in self.wrong else ok.count(False) for i, ok in enumerate(self.ok)
        )


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for fn in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_build = "unknown"
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": blas_threads(),
        "src_lines": src_lines,
    }


def traced_pass(runner: Runner, untraced_wall: float, spans_path: Path | None) -> dict:
    """One pass with every layer wrapped, then the element replay; returns per-layer metrics."""
    tracer, capture = Tracer(), layers.Capture()
    layers.install(tracer, capture)
    try:
        wall = runner.run_pass()
    finally:
        tracer.restore()
    spans = tracer.spans
    metrics = layers.span_metrics(spans, capture, wall, untraced_wall)

    def total(suffix: str) -> int:
        return sum(v for k, v in runner.counts.items() if k.endswith(suffix))

    metrics["cli.out_bytes"] = total(".out_bytes")
    for cmd, calls in zip(runner.commands, layers.project_out_per_command(spans)):
        runner.counts[f"{cmd.name}.project_out"] = calls
        if cmd.project_out is not None and calls != cmd.project_out:
            runner.problems.append(
                f"{cmd.name}: {calls} project_out calls, expected {cmd.project_out}"
            )
    for name, key, expected in (
        ("RK4 steps", "iomodel.rk4_steps", total(".rk4_steps")),
        ("outcomes", "schemes.outcomes", total(".outcomes")),
    ):
        if metrics[key] != expected:
            runner.problems.append(f"traced pass gave {metrics[key]} {name}, expected {expected}")
    element_metrics, problems = layers.replay_elements(capture.propagated)
    metrics.update(element_metrics)
    runner.problems.extend(f"element replay: {problem}" for problem in problems)
    if spans_path is not None:
        origin = spans[0][1] if spans else 0.0
        with open(spans_path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent]) + "\n")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args(argv)

    commands = workloads.commands(args.workload, args.seed, ROOT, args.work_dir)
    runner = Runner(commands, args.work_dir)
    first = runner.run_pass()
    timed: list[float] = []
    start = time.perf_counter()
    while not timed or time.perf_counter() - start < args.seconds:
        timed.append(runner.run_pass())
    wall = statistics.median(timed)
    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "first_pass_s": first,
        "pass_s": timed,
        "wall_s": wall,
        "environment": environment(),
    }
    runner.check_outputs()
    if args.trace:
        result["metrics"] = traced_pass(runner, wall, args.spans)
    result.update(
        counts=runner.counts,
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
    )
    args.result.write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
