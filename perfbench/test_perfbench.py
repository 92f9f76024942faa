"""Tests of the benchmark itself: coverage of the workloads, output checks, tracing.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import inspect
import json
import shutil
import subprocess
import sys
import types
import typing
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cavnet import cli, elements, schemes  # noqa: E402
from tracer import Tracer, roots, self_times  # noqa: E402

# Small arguments for every builder that needs some; a new builder must be added here.
SMALL_BUILDS = {
    "build_ghz_atoms": {"n": 4},
    "build_w_pow2": {"n": 4},
    "build_cluster_atoms": {"n": 3},
    "build_ghz_fields": {"n": 4},
    "build_field_graph": {"kind": "ring", "n": 3},
}


def _kinds(scheme) -> set[str]:
    return {type(item).__name__ for item in scheme.elements}


def emitted_kinds() -> set[str]:
    """Element kinds that some public builder puts in a scheme."""
    return set().union(*(
        _kinds(builder(**SMALL_BUILDS.get(name, {})))
        for name, builder in vars(schemes).items()
        if name.startswith("build_") and inspect.isfunction(builder)
    ))


def workload_kinds(tmp_path: Path) -> dict[str, set[str]]:
    """Element kinds each run-scheme command of each workload applies."""
    out = {}
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, 1, ROOT, tmp_path):
            if cmd.build is not None:
                out[f"{workload}/{cmd.name}"] = _kinds(cmd.build())
    return out


def test_every_emitted_element_kind_runs_in_a_workload(tmp_path):
    covered = set().union(*workload_kinds(tmp_path).values())
    assert emitted_kinds() <= covered
    assert covered == set(layers.ELEMENT_KINDS)


def test_both_guards_run(tmp_path):
    kinds = workload_kinds(tmp_path)
    # Reroute carries the reroute-occupancy guard, FieldPiBlock the double-excitation guard.
    assert "Reroute" in kinds["herald/w3-prob"]
    assert "FieldPiBlock" in kinds["dense/ghz-fields18"]


def test_pbs_is_reported_uncovered():
    defined = {cls.__name__ for cls in typing.get_args(elements.Element)} - {"Detector"}
    assert defined - emitted_kinds() == {"PBS"}


def test_golden_sweep_passes_its_own_check_and_a_perturbed_row_fails():
    golden = (ROOT / workloads.GOLDEN_SWEEP).read_text(encoding="ascii")
    check = workloads._sweep_check(golden)
    assert check(golden.encode()) == {"rk4_steps": workloads.SWEEP_RK4_STEPS}
    lines = golden.splitlines()
    g, tau, p = lines[5].split(",")
    lines[5] = ",".join((g, tau, repr(float(p) + 2e-6)))
    with pytest.raises(workloads.CheckError):
        check(("\n".join(lines) + "\n").encode())


def _cli_bytes(tmp_path: Path, *argv: str) -> bytes:
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def test_scheme_check_counts_outcomes_and_targets(tmp_path):
    data = _cli_bytes(tmp_path, "run-scheme", "w3-prob")
    assert workloads._scheme_check(5, 4)(data) == {"outcomes": 5}
    for outcomes, targeted in ((4, 4), (5, 5)):
        with pytest.raises(workloads.CheckError):
            workloads._scheme_check(outcomes, targeted)(data)
    doc = json.loads(data)
    doc["outcomes"][0]["probability"] += 1e-6
    with pytest.raises(workloads.CheckError):
        workloads._scheme_check(5, 4)(json.dumps(doc).encode())


def test_walk_check_uses_five_sigma():
    doc = {"success_prob": 0.5, "mc_trajectories": 10_000}
    workloads._walk_check(json.dumps({**doc, "mc_success_prob": 0.52}).encode())
    with pytest.raises(workloads.CheckError):
        workloads._walk_check(json.dumps({**doc, "mc_success_prob": 0.53}).encode())


def test_seed_graph_is_drawn_from_the_seed():
    a, b = workloads.seed_graph(7), workloads.seed_graph(7)
    assert a == b and a.vertices == 8 and len(a.edges) == 10
    assert workloads.seed_graph(8) != a


def _fake_module():
    mod = types.ModuleType("fake")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod.leaf(x) + mod.leaf(x)

    def nested(depth):
        return 0 if depth == 0 else 1 + mod.nested(depth - 1)

    mod.leaf, mod.outer, mod.nested = leaf, outer, nested
    return mod


def test_tracer_self_time_restore_and_recursion():
    mod = _fake_module()
    originals = dict(vars(mod))
    seen = []
    tracer = Tracer()
    for name in ("leaf", "outer", "nested"):
        tracer.wrap(mod, name, name, hook=lambda a, k, r: seen.append(r))
    assert mod.outer(1) == 4
    assert mod.nested(5) == 5
    tracer.restore()
    assert vars(mod) == originals
    names = [s[0] for s in tracer.spans]
    assert names == ["outer", "leaf", "leaf", "nested"]  # recursion records one span
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, -1]
    assert roots(tracer.spans) == [0, 0, 0, 3]
    own = self_times(tracer.spans)
    outer, a, b = tracer.spans[:3]
    assert own[0] == pytest.approx((outer[2] - outer[1]) - (a[2] - a[1]) - (b[2] - b[1]))
    assert seen == [2, 2, 4, 5]


def test_traced_cli_output_is_identical_and_wrappers_are_restored(tmp_path):
    argv = ("run-scheme", "cluster", "--n", "3")
    plain = _cli_bytes(tmp_path, *argv)
    before = {name: dict(vars(mod)) for name, mod in layers.LAYERS.items()}
    apply_before = vars(schemes.LocalCorrection)["apply"]
    tracer, capture = Tracer(), layers.Capture()
    layers.install(tracer, capture)
    try:
        traced = _cli_bytes(tmp_path, *argv)
    finally:
        tracer.restore()
    assert traced == plain
    assert {name: dict(vars(mod)) for name, mod in layers.LAYERS.items()} == before
    assert vars(schemes.LocalCorrection)["apply"] is apply_before
    names = [s[0] for s in tracer.spans]
    assert names.count("cli.dump_json") == 1
    assert "qstate.apply_unitary" in names and "verify.LocalCorrection.apply" in names
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    m = layers.span_metrics(tracer.spans, capture, wall, wall)
    layer_self = sum(m[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert layer_self + m["trace.unattributed_s"] == pytest.approx(wall)
    assert m["schemes.outcomes"] == 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    produced = set(m) | set(layers.replay_elements([])[0]) | {"cli.out_bytes"}
    assert {metric["name"] for metric in spec["per_layer"]} == produced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_element_replay_matches_propagate():
    scheme = schemes.build_w3_probabilistic()
    final = schemes.propagate(scheme)
    metrics, problems = layers.replay_elements([(scheme, final)])
    assert problems == []
    assert metrics["elements.BS.calls"] == 8 and metrics["elements.Reroute.calls"] == 1
    broken = final.__class__(final.register, final.amplitudes[::-1].copy())
    assert layers.replay_elements([(scheme, broken)])[1] == [f"{scheme.name}: final state differs"]


def test_counts_must_repeat(tmp_path):
    path = tmp_path / "counts.json"
    assert run.check_counts(path, {"a": 1}) == []
    assert run.check_counts(path, {"a": 1, "b": 2}) == []
    assert len(run.check_counts(path, {"a": 3})) == 1


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_runner_counts_wrong_output_and_exit_codes_as_failed(tmp_path):
    import child

    def wrong(data):
        raise workloads.CheckError("always wrong")

    commands = [
        workloads.Command("good", ("run-scheme", "field-cz"), workloads._scheme_check(2, 2)),
        workloads.Command("wrong", ("run-scheme", "field-cz"), wrong),
        workloads.Command("exit2", ("run-scheme", "w", "--n", "3"), wrong),
    ]
    runner = child.Runner(commands, tmp_path)
    for _ in range(3):
        runner.run_pass()
    runner.check_outputs()
    assert runner.attempted == 9 and runner.failed == 6
    assert runner.counts == {"good.out_bytes": 1594, "good.outcomes": 2}
    assert sorted(p.split(":")[0] for p in runner.problems) == ["exit2"] * 3 + ["wrong"]
    assert list(tmp_path.iterdir()) == []
