"""cavnet benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep|dense|herald --seed N --seconds S --trace 0|1

The metric names and units come from ``BENCHMARK.json``.  With
``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced pass.  Lines before it give every metric with its unit, the
environment and any failed check.  The exit code is 0 only when every step
ran; a failed output check shows as ``"correct": false``.

Files go under ``.perfbench/`` in the checkout: ``results/`` keeps each
run's full record, ``spans/`` the spans of traced runs, and ``counts/`` the
exact counts seen per workload and seed, which later runs must repeat.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"
REQUIRED = ("BENCHMARK.json", "src/cavnet/cli.py", "tests/golden/flip_sweep.csv")
SETUP_LAUNCHES = 7
SETUP_CODE = "import time, cavnet.cli; cavnet.cli.build_parser(); print(time.monotonic())"
DEADLINE_S = 170.0


def child_env() -> dict[str, str]:
    """Environment of every process started: ``src`` importable, BLAS at most nproc threads."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def measure_setup(env: dict[str, str], deadline: float) -> float:
    """Median time for a fresh interpreter to import the CLI and build its parser.

    The launched interpreter prints the monotonic clock, which all processes
    share, once the parser is built; waiting for its exit is not timed.  One
    extra launch first lets Python write its bytecode cache.
    """
    times = []
    for _ in range(SETUP_LAUNCHES + 1):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=env,
            check=True,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
        times.append(float(done.stdout) - start)
    return statistics.median(times[1:])


def run_child(args, env: dict[str, str], work: Path, result: Path, spans: Path, deadline: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work),
        "--result", str(result),
    ]
    if args.trace:
        cmd += ["--spans", str(spans)]
    # The child's stdout goes to stderr so that the result stays the last line here.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"workload process exited with {code}")
    return json.loads(result.read_text(encoding="utf-8"))


def check_counts(path: Path, counts: dict[str, int]) -> list[str]:
    """Compare exact counts with an earlier run of the same workload and seed, then record them."""
    seen = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
    problems = [
        f"count {key} is {counts[key]}, an earlier run saw {seen[key]}"
        for key in sorted(counts.keys() & seen.keys())
        if counts[key] != seen[key]
    ]
    path.write_text(json.dumps({**seen, **counts}, indent=1, sort_keys=True), encoding="utf-8")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one cavnet benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a cavnet checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through the finally blocks that stop the child and remove files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}"
    for sub in ("results", "spans", "counts"):
        (OUT_DIR / sub).mkdir(parents=True, exist_ok=True)
    env = child_env()
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        setup_s = measure_setup(env, deadline)
        record = run_child(
            args, env, work, work / "result.json", OUT_DIR / "spans" / f"{tag}.jsonl", deadline
        )
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = record["problems"] + check_counts(
        OUT_DIR / "counts" / f"{tag}.json", record["counts"]
    )
    measured = {
        "wall_s": record["wall_s"],
        "peak_rss_mb": record["peak_rss_mb"],
        "setup_s": setup_s,
        **record.get("metrics", {}),
    }
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in measured]
    if absent:
        print(f"perfbench: no value for {', '.join(absent)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    correct = not problems and record["failed"] == 0
    record.update(setup_s=setup_s, problems=problems, correct=correct)
    (OUT_DIR / "results" / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )

    env_info = record["environment"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_info.items()))
    print(
        f"passes: warm-up {record['first_pass_s']:.3f} s, "
        f"{len(record['pass_s'])} timed for {args.seconds:g} s"
    )
    for name, item in metrics.items():
        print(f"  {name:40s} {item['value']:>16.6g} {item['unit']}")
    print(
        f"failed_ops: {record['failed'] / record['attempted']:g} "
        f"({record['failed']} of {record['attempted']} commands)"
    )
    for problem in problems:
        print(f"FAILED CHECK: {problem}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
