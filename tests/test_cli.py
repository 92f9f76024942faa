"""Command line behavior: output shapes, determinism, exit codes."""

import ctypes
import dataclasses
import errno
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cavnet import iomodel, qstate, schemes, verify
from cavnet.cli import (
    _EMIT_GROUP,
    _RUN_BLOCK,
    SCHEME_NAMES,
    _dump_amplitudes,
    _emit,
    _parse_tau_range,
    build_parser,
    dump_json,
    main,
)
from cavnet.errors import ParameterError

# subprocesses import the package from the checkout, installed or not
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "cavnet", *args],
        capture_output=True,
        text=True,
        env=SRC_ENV,
        timeout=120,
    )


def test_run_scheme_ghz_json_shape():
    proc = run_cli("run-scheme", "ghz-atoms", "--n", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["scheme"]["name"] == "ghz-atoms"
    assert payload["scheme"]["n"] == 2
    outcomes = payload["outcomes"]
    assert [o["detector"] for o in outcomes] == ["D1", "D2"]
    for o in outcomes:
        assert o["probability"] == pytest.approx(0.5, abs=1e-12)
        assert o["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_run_scheme_output_is_byte_identical():
    a = run_cli("run-scheme", "w3-det")
    b = run_cli("run-scheme", "w3-det")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_run_scheme_graph_from_file(tmp_path):
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"vertices": 3, "edges": [[0, 1], [1, 2]]}))
    proc = run_cli("run-scheme", "graph", "--graph", str(spec))
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert sum(o["probability"] for o in payload["outcomes"]) == pytest.approx(1.0)


def test_run_scheme_usage_errors(tmp_path):
    assert run_cli("run-scheme", "ghz-atoms").returncode == 2  # missing --n
    assert run_cli("run-scheme", "ghz-atoms", "--n", "3").returncode == 2
    assert run_cli("run-scheme", "nosuch").returncode == 2
    proc = run_cli("run-scheme", "graph", "--kind", "ring", "--n", "3")
    assert proc.returncode == 0
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli("run-scheme", "graph", "--graph", str(bad)).returncode == 2
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps({"vertices": 2, "edges": [[0, 0]]}))
    assert run_cli("run-scheme", "graph", "--graph", str(loop)).returncode == 2
    both = tmp_path / "g.json"
    both.write_text(json.dumps({"vertices": 2, "edges": [[0, 1]]}))
    assert (
        run_cli(
            "run-scheme", "graph", "--graph", str(both), "--kind", "ring", "--n", "3"
        ).returncode
        == 2
    )


EDGE_ENTRY = "edge entries must be [u, v] integer pairs, entry 0 is not"
NOT_JSON = "graph file is not valid JSON: "
WRONG_TYPES = "graph file fields have wrong types"


@pytest.mark.parametrize(
    "content,message",
    [
        (b'{"vertices": 2, "edges": [[0, null]]}', EDGE_ENTRY),
        (b'{"vertices": 2, "edges": [[0, "a"]]}', EDGE_ENTRY),
        (b'{"vertices": 2, "edges": [[0, 1]], "name": "\xff"}', NOT_JSON),
        (b'{"vertices": 2, "edges": [[0, 1.5]]}', EDGE_ENTRY),
        (b'{"vertices": 2, "edges": [[0, true]]}', EDGE_ENTRY),
        (b'{"vertices": true, "edges": []}', WRONG_TYPES),
        (b'{"vertices": 2.0, "edges": []}', WRONG_TYPES),
        (b'{"vertices": 2, "edges": [[0, 1, 1]]}', EDGE_ENTRY),
        (b"[" * 100_000, NOT_JSON),
        (b'{"vertices": 2, "edges": [[0, 1]]', NOT_JSON),
        (b'{"vertices": 2}', 'graph file must be {"vertices": int, "edges": [[u,v], ...]}'),
        (b'{"vertices": 2, "edges": {"0": 1}}', WRONG_TYPES),
    ],
    ids=[
        "null-endpoint", "string-endpoint", "not-utf8", "float-endpoint",
        "bool-endpoint", "bool-vertices", "float-vertices", "triple", "deep-nesting",
        "unclosed", "no-edges", "edges-not-a-list",
    ],
)
def test_malformed_graph_files_exit_two_with_one_line(content, message, tmp_path, capsys):
    spec = tmp_path / "g.json"
    spec.write_bytes(content)
    assert main(["run-scheme", "graph", "--graph", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: --graph {spec}: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "name,reason", [("missing.json", "No such file or directory"), ("folder", "Is a directory")]
)
def test_an_unreadable_graph_file_exits_two_naming_the_reason(name, reason, tmp_path, capsys):
    (tmp_path / "folder").mkdir()
    spec = tmp_path / name
    assert main(["run-scheme", "graph", "--graph", str(spec)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --graph {spec}: cannot read graph file: {reason}\n"


OUT_COMMANDS = [
    ["run-scheme", "field-cz"],
    ["flip-sweep", "--g", "1", "--tau", "1"],
    ["retry-walk", "--p", "1", "--n", "2"],
]


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=[argv[0] for argv in OUT_COMMANDS])
@pytest.mark.parametrize(
    "target,reason",
    [
        ("missing/out.txt", "No such file or directory"),
        (".", "Is a directory"),
        ("plain.txt/out.txt", "Not a directory"),
    ],
)
def test_an_unwritable_out_path_exits_two_naming_it(argv, target, reason, tmp_path, capsys):
    (tmp_path / "plain.txt").write_text("")  # a regular file
    out = tmp_path / target
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {reason}\n"


def refuse_the_work(monkeypatch):
    """Make the work of every ``OUT_COMMANDS`` command raise, so a refusal must come first."""

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    for owner, name in [
        (schemes, "build_field_cz_pair"),
        (iomodel, "flip_probability_sweep"),
        (schemes, "retry_walk"),
        (schemes, "retry_walk_mc"),
    ]:
        monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=[argv[0] for argv in OUT_COMMANDS])
@pytest.mark.parametrize("target", ["missing/out.txt", ".", "plain.txt/out.txt"])
def test_an_unwritable_out_path_is_refused_before_any_work(argv, target, tmp_path, monkeypatch):
    (tmp_path / "plain.txt").write_text("")  # a regular file
    refuse_the_work(monkeypatch)
    assert main([*argv, "--out", str(tmp_path / target)]) == 2


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=[argv[0] for argv in OUT_COMMANDS])
@pytest.mark.parametrize("exists", [False, True])
def test_an_out_path_without_permission_is_refused_before_any_work(
    argv, exists, tmp_path, monkeypatch, capsys
):
    # root passes every permission check, so os.access reports the missing permission
    out = tmp_path / "out.txt"
    if exists:
        out.write_text("kept")
    denied = (str(out), os.W_OK) if exists else (str(tmp_path), os.W_OK | os.X_OK)
    access = os.access
    monkeypatch.setattr(
        os, "access", lambda path, mode: (str(path), mode) != denied and access(path, mode)
    )

    refuse_the_work(monkeypatch)
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: Permission denied\n"
    assert out.exists() == exists and (not exists or out.read_text() == "kept")


@pytest.mark.parametrize("argv", OUT_COMMANDS, ids=[argv[0] for argv in OUT_COMMANDS])
def test_an_empty_out_path_is_refused_naming_the_flag_before_any_work(argv, monkeypatch, capsys):
    refuse_the_work(monkeypatch)
    assert main([*argv, "--out", ""]) == 2
    assert capsys.readouterr() == ("", "error: --out got an empty path\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_an_out_path_that_fails_on_write_exits_two_and_prints_nothing(capsys):
    # /dev/full passes the check before any work; only the write itself fails
    assert main(["retry-walk", "--p", "1", "--n", "2", "--out", "/dev/full"]) == 2
    captured = capsys.readouterr()
    assert captured == ("", "error: cannot write /dev/full: No space left on device\n")


def test_an_out_path_with_permission_is_written(tmp_path, monkeypatch):
    # an existing file is written through its own permission, whatever its directory's
    out = tmp_path / "out.txt"
    out.write_text("old")
    access = os.access
    monkeypatch.setattr(
        os, "access", lambda path, mode: str(path) != str(tmp_path) and access(path, mode)
    )
    assert main(["retry-walk", "--p", "1", "--n", "2", "--out", str(out)]) == 0
    assert out.read_text() != "old"


def test_a_failing_command_leaves_an_existing_out_file_as_it_was(tmp_path, monkeypatch):
    out = tmp_path / "kept.txt"
    out.write_text("kept")

    def refuse():
        raise ParameterError("refused")

    monkeypatch.setattr(schemes, "build_field_cz_pair", refuse)
    assert main(["run-scheme", "field-cz", "--out", str(out)]) == 2
    assert out.read_text() == "kept"


def test_a_stdout_closed_after_one_byte_exits_two_without_traceback():
    with subprocess.Popen(
        [sys.executable, "-m", "cavnet", "run-scheme", "ghz-atoms", "--n", "12"],
        stdout=subprocess.PIPE,  # 413 KB of output, more than the pipe holds
        stderr=subprocess.PIPE,
        env=SRC_ENV,
    ) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2
    assert err == "error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_stdout_on_a_full_device_exits_two_without_traceback():
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "cavnet", "retry-walk", "--p", "1", "--n", "2"],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=SRC_ENV,
            timeout=120,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


class FailingStdout:
    """A stdout over ``fd`` whose ``writelines`` or ``flush`` raises ``error``."""

    def __init__(self, fd, failing, error):
        self.fd, self.failing, self.error = fd, failing, error

    def fileno(self):
        return self.fd

    def writelines(self, lines):
        list(lines)
        if self.failing == "writelines":
            raise self.error

    def flush(self):
        if self.failing == "flush":
            raise self.error


@pytest.mark.parametrize("code", [errno.EPIPE, errno.ENOSPC], ids=errno.errorcode.get)
@pytest.mark.parametrize("failing", ["writelines", "flush"])
def test_a_failing_stdout_exits_two_and_points_its_descriptor_at_devnull(
    failing, code, tmp_path, monkeypatch, capsys
):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    error = OSError(code, os.strerror(code))  # BrokenPipeError for EPIPE
    try:
        monkeypatch.setattr(sys, "stdout", FailingStdout(fd, failing, error))
        assert main(["retry-walk", "--p", "1", "--n", "2"]) == 2
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)
    assert capsys.readouterr().err == f"error: cannot write stdout: {os.strerror(code)}\n"


def report_of(scheme):
    return {
        "scheme": schemes.scheme_to_jsonable(scheme),
        "outcomes": schemes.reports_to_jsonable(schemes.run(scheme)),
    }


def cluster12_document():
    """The text pieces ``run-scheme cluster --n 12`` writes: 2 x 4,096 amplitude records."""
    return dump_json(report_of(schemes.build_cluster_atoms(12)))


def test_a_report_that_cannot_be_rendered_writes_nothing(tmp_path, monkeypatch, capsys):
    real = schemes.reports_to_jsonable

    def nan_probability(reports):
        rows = real(reports)
        rows[-1]["probability"] = math.nan  # after every amplitude record before it
        return rows

    assert len(cluster12_document()) > 3 * _EMIT_GROUP  # rendered, it would span several writes
    monkeypatch.setattr(schemes, "reports_to_jsonable", nan_probability)
    out = tmp_path / "kept.json"
    out.write_text("kept")
    argv = ["run-scheme", "cluster", "--n", "12"]
    assert main([*argv, "--out", str(out)]) == 2
    assert out.read_text() == "kept"
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite value nan cannot be serialized\n" * 2


def test_a_document_of_several_write_groups_is_written_as_its_joined_pieces(tmp_path, capsys):
    pieces = cluster12_document()
    assert len(pieces) > 3 * _EMIT_GROUP and len(pieces) % _EMIT_GROUP
    want = "".join(pieces) + "\n"
    argv = ["run-scheme", "cluster", "--n", "12"]
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    out = tmp_path / "doc.json"
    assert main([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == want.encode("ascii")
    pieces = [str(i) * (i % 5) for i in range(2 * _EMIT_GROUP + 1)]
    _emit(None, pieces)
    assert capsys.readouterr().out == "".join(pieces)


class WriteSizes:
    """A text stream that keeps only the length of each write."""

    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))

    def writelines(self, lines):
        for line in lines:
            self.write(line)

    def flush(self):
        pass


def test_every_write_of_a_dense_report_is_at_most_one_mib(monkeypatch):
    stream = WriteSizes()
    monkeypatch.setattr(sys, "stdout", stream)
    assert main(["run-scheme", "w", "--n", "16"]) == 0
    assert sum(stream.sizes) == 52_455_774 and max(stream.sizes) <= 1 << 20
    # the longest records there are, in long runs at a report's depth
    widest = complex(-1.2345678901234567e-308, -1.2345678901234567e-308)
    doc = {"outcomes": [{"corrected_state": np.full(1 << 16, widest)}]}
    stream.sizes.clear()
    _emit(None, dump_json(doc))
    assert sum(stream.sizes) > 90 << 16 and max(stream.sizes) <= 1 << 20


def test_the_pieces_of_a_w16_report_hold_at_most_two_mib():
    report = report_of(schemes.build_w_pow2(16))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pieces = dump_json(report)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len("".join(pieces)) == 52_455_773  # the document, less its final newline
    assert held <= 2 << 20  # one reference per record would be 8 MiB


@pytest.mark.parametrize(
    "argv,digest",
    [
        (("w", "--n", "16"), "98b0c8883019e2586f665ab88d26792d7aeaddc86cbfb116063c23d5c3e80d4d"),
        (
            ("ghz-fields", "--n", "18"),
            "18dfe74a71bce73f498a112e5a044b8bbf00ad1b8c882ce1713667bc349077e7",
        ),
        (
            ("cluster", "--n", "16"),
            "a4ab8cd37d92ff67401efc9d57638ba696ebd868edf87ad0b553220fc10946c7",
        ),
        (
            ("graph", "--kind", "ring", "--n", "8"),
            "6a46a090294193a6a20d6eb78bed15cd421e0fa606fa1b7bb13a152845d32dfe",
        ),
        (
            ("ghz-atoms", "--n", "18"),
            "2e98e66786ace6fe85e911acf63ebe1926272fedf9aca8f6c9e4810b97a2ee63",
        ),
        (("w3-det",), "56856fd66ca434c4e4a875f399c9360d4af8df49e8c3ed1d32c065c59e6addbe"),
        (("w3-prob",), "13f4510babe9538683b8234546e1339f5f44399c56fe06a761c9633b2bda85ef"),
        (("field-cz",), "580c8d8db65fe6fc0353c5b3b8f2ae3f09e05f9cb2cdba4c41abff4443d8cac3"),
    ],
)
def test_the_dense_reports_keep_their_bytes(argv, digest, tmp_path):
    out = tmp_path / "report.json"
    assert main(["run-scheme", *argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


SEED7_GRAPH = {
    "vertices": 8,
    "edges": [[0, 2], [0, 3], [0, 4], [0, 5], [1, 5], [1, 6], [1, 7], [2, 7], [3, 4], [3, 6]],
}
# sha256 of the output of each promised command the test above does not run;
# GRAPH stands for a file holding SEED7_GRAPH (perfbench's seed-7 graph).
PROMISED_BYTES = {
    "flip-sweep --g 0.5,1,2,5 --tau-range 0.1:40:20":
        "d44190824e02ce4a64e6cb5a42cbb1588caa26d1f5b08b2eebe97d7f2a404a9a",
    "flip-sweep --g 1 --tau 2,3":
        "157d6f9a6b840ebbc230a3a6db26453c8117711a3a7ea2d4cfe48cf25ad494c4",
    "retry-walk --p 0.8 --n 4 --mc-trajectories 100000 --seed 7":
        "b542e4c1a7dd0480a02f8d08180b3f0f1799c2a430c5922a887924eabab7281e",
    "retry-walk --p 0.01 --n 1000":
        "2eb3f39dacc019709c9f69d1ab1669654bdf610dc82e6b1d0d3ccb34f494ea02",
    "retry-walk --p 0.8 --n 4":
        "373692425b806360ece067466f136439249635796d1c89cf5bed9862db13a914",
    "run-scheme graph --graph GRAPH":
        "1fa16cc81a865885aabbaa445a4c8ba448d77ce8fad6fe3e63426988f844e687",
    "run-scheme ghz-atoms --n 4":
        "209c41dad1a3a59074dad335cab3f737bb169221d963c07f1de72d9107f400fb",
    "run-scheme w --n 8":
        "3ad323ba6495c76192100c63f04b2a1438627457ddabf27911e62ad8afc222db",
    "run-scheme cluster --n 5":
        "b93e5f6c4656309accf06b552dfc808160dba9785d9b5d9dc3c289556e3ef60f",
    "run-scheme ghz-fields --n 4":
        "9337b899fd408f022a096242afb9413b17a55b285be8f68961c6e12f140b2e42",
    "run-scheme graph --kind star --n 5":
        "64716aa8297c37f05664a4f8844c28ae548d3199700c491cb78204f09711ca30",
    "run-scheme graph --kind linear --n 4":
        "6d4b1f147bfc8d7f1bb5ea42da1431fa1d6a1b63422fd6e7716520f1d9742bf8",
    "run-scheme graph --kind ring --n 6":
        "88a010a932ea06af8269ff9908e796ba7e1a1b6695d5df6477f4d0656d0f9dc9",
}


@pytest.mark.parametrize("command,digest", PROMISED_BYTES.items(), ids=list(PROMISED_BYTES))
def test_the_promised_outputs_keep_their_bytes(command, digest, tmp_path):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps(SEED7_GRAPH))
    argv = [str(graph) if arg == "GRAPH" else arg for arg in command.split()]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "command,line",
    [
        ("run-scheme w3-det --n 5", "error: scheme w3-det does not take --n"),
        ("retry-walk --p 2 --n 4", "error: p_flip must lie in [0, 1], got 2.0"),
        (
            "flip-sweep --g 1 --tau 0",
            "error: sweep point 0 (g = 1.0, tau = 0.0): tau must be positive, got 0.0",
        ),
        ("flip-sweep --g 1,x --tau 1", "error: --g expects comma-separated numbers, got '1,x'"),
        ("flip-sweep --g , --tau 1", "error: --g got an empty list"),
        (
            "flip-sweep --g 1 --tau-range 1:2",
            "error: --tau-range expects start:stop:count, got '1:2'",
        ),
        (
            "flip-sweep --g 1 --tau-range 1:2:3:4",
            "error: --tau-range expects start:stop:count, got '1:2:3:4'",
        ),
        (
            "flip-sweep --g 1 --tau-range 1:2:3.0",
            "error: --tau-range expects start:stop:count, got '1:2:3.0'",
        ),
        (
            "flip-sweep --g 1 --tau-range 1:x:3",
            "error: --tau-range expects start:stop:count, got '1:x:3'",
        ),
    ],
)
def test_a_refusal_prints_its_one_promised_line(command, line, capsys):
    assert main(command.split()) == 2
    assert capsys.readouterr() == ("", line + "\n")


def test_run_scheme_w16_peak_memory_is_at_most_two_states(tmp_path):
    state_bytes = schemes.build_w_pow2(16).register.total_dim * 16  # 32 MiB of complex128
    tracemalloc.start()
    try:
        assert main(["run-scheme", "w", "--n", "16", "--out", str(tmp_path / "w16.json")]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * state_bytes


def test_flip_sweep_csv_and_out_file(tmp_path):
    proc = run_cli("flip-sweep", "--g", "1", "--tau", "1,2")
    assert proc.returncode == 0
    lines = proc.stdout.split("\n")
    assert lines[0] == "g_over_kappa,kappa_tau,P_flip"
    assert len(lines) == 4 and lines[-1] == ""
    out = tmp_path / "sweep.csv"
    proc2 = run_cli("flip-sweep", "--g", "1", "--tau", "1,2", "--out", str(out))
    assert proc2.returncode == 0
    assert out.read_text() == proc.stdout
    assert b"\r" not in out.read_bytes()


def test_flip_sweep_tau_range_is_log_spaced():
    proc = run_cli("flip-sweep", "--g", "1", "--tau-range", "1:4:3")
    assert proc.returncode == 0
    taus = [float(line.split(",")[1]) for line in proc.stdout.splitlines()[1:]]
    assert taus == pytest.approx([1.0, 2.0, 4.0])


def test_flip_sweep_usage_errors():
    assert run_cli("flip-sweep", "--g", "1").returncode == 2  # no tau at all
    assert (
        run_cli(
            "flip-sweep", "--g", "1", "--tau", "1", "--tau-range", "1:2:2"
        ).returncode
        == 2
    )
    assert run_cli("flip-sweep", "--g", "abc", "--tau", "1").returncode == 2
    assert run_cli("flip-sweep", "--g", "1", "--tau-range", "1:2").returncode == 2
    assert run_cli("flip-sweep", "--g", "-1", "--tau", "1").returncode == 2


def test_flip_sweep_blowup_exits_three():
    # legal step for the guard, hopeless for the coupling: a diagnosed
    # contract violation must map to exit code 3
    proc = run_cli("flip-sweep", "--g", "10000", "--tau", "1", "--step", "0.02")
    assert proc.returncode == 3
    assert "internal error" in proc.stderr


def test_flip_sweep_over_step_budget_exits_two(monkeypatch, capsys):
    steps = iomodel.default_grid(iomodel.PulseParams(1.0, 1.0, 1.0, 1.0)).n_steps
    monkeypatch.setattr(iomodel, "MAX_STEPS", 1000)
    assert main(["flip-sweep", "--g", "1", "--tau", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{steps} RK4 steps" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv,message",
    [
        # six good points first, then one the step does not resolve
        (["--tau", "40,40,40,40,40,40,0.1", "--step", "0.003"], "min(tau, 1/kappa)/50"),
        # 10,000 x 367,696 steps, each point within MAX_STEPS
        (["--tau-range", "40:40:10000"], "MAX_SWEEP_STEPS"),
    ],
)
def test_flip_sweep_refusals_come_before_any_integration(argv, message, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(iomodel, "_trajectory", lambda *a: calls.append(a))
    assert main(["flip-sweep", "--g", "5", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err and "Traceback" not in captured.err
    assert calls == []


def test_a_sweep_refusal_names_its_point(monkeypatch, capsys):
    proc = run_cli("flip-sweep", "--g", "5", "--tau", "40,40,40,40,40,40,0.1", "--step", "0.003")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == (
        "error: sweep point 6 (g = 5.0, tau = 0.1): "
        "step 0.003 exceeds min(tau, 1/kappa)/50 = 0.002\n"
    )
    # a grid over MAX_STEPS: points count in row order, every tau of the first g first
    steps = iomodel.default_grid(iomodel.PulseParams(1.0, 1.0, 1.0, 1.0)).n_steps
    monkeypatch.setattr(iomodel, "MAX_STEPS", steps)
    assert main(["flip-sweep", "--g", "1,2", "--tau", "1,40"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: sweep point 1 (g = 1.0, tau = 40.0): grid [")
    assert captured.err.endswith(f"RK4 steps, more than MAX_STEPS = {steps}\n")


def test_couplings_whose_squares_overflow_are_refused_naming_the_point(capsys):
    assert main(["flip-sweep", "--g", "1,1e200", "--tau", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: sweep point 1 (g = 1e+200, tau = 1.0): "
        "g_L^2 + g_R^2 overflows for g_L = 1e+200, g_R = 1e+200\n"
    )


@pytest.mark.parametrize("g", ["1e-12", "1e-160", "1e-170"])  # g^2 normal, subnormal, zero
def test_couplings_too_weak_to_decay_are_refused_even_when_their_squares_underflow(g, capsys):
    assert main(["flip-sweep", "--g", g, "--tau", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: sweep point 0 (g = {float(g)}, tau = 1.0): grid [-6.0, inf] with step 0.01 "
        "needs inf RK4 steps, more than MAX_STEPS = 4000000\n"
    )


def test_a_one_point_tau_range_is_its_start(capsys):
    assert _parse_tau_range("2.5:40:1") == [2.5]
    assert main(["flip-sweep", "--g", "1", "--tau-range", "2.5:40:1"]) == 0
    ranged = capsys.readouterr().out
    assert main(["flip-sweep", "--g", "1", "--tau", "2.5"]) == 0
    assert capsys.readouterr().out == ranged


@pytest.mark.parametrize("bounds", ["1:inf:2", "inf:40:2", "nan:2:2", "1:nan:3", "1:-inf:2"])
def test_a_non_finite_tau_range_bound_is_refused_naming_the_flag(bounds, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(iomodel, "_trajectory", lambda *a: calls.append(a))
    assert main(["flip-sweep", "--g", "1", "--tau-range", bounds]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    assert captured.err == "error: --tau-range needs finite positive start/stop and count >= 1\n"


def test_flip_sweep_point_count_over_budget_exits_two_at_once(capsys):
    assert main(["flip-sweep", "--g", "1", "--tau-range", "0.1:40:1000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1000000000" in captured.err and "MAX_SWEEP_POINTS" in captured.err
    assert "Traceback" not in captured.err


def test_tau_range_count_is_checked_before_spacing(monkeypatch):
    monkeypatch.setattr(iomodel, "MAX_SWEEP_POINTS", 3)
    assert _parse_tau_range("1:4:3") == pytest.approx([1.0, 2.0, 4.0])

    def no_spacing(*args, **kwargs):
        raise AssertionError("spaced an over-budget range")

    monkeypatch.setattr(np, "geomspace", no_spacing)
    with pytest.raises(ParameterError, match="MAX_SWEEP_POINTS"):
        _parse_tau_range("1:4:4")


def test_flip_sweep_point_budget_counts_the_whole_grid(monkeypatch, capsys):
    monkeypatch.setattr(iomodel, "MAX_SWEEP_POINTS", 3)
    assert main(["flip-sweep", "--g", "1", "--tau-range", "1:4:4"]) == 2
    assert main(["flip-sweep", "--g", "1,2", "--tau", "1,2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("MAX_SWEEP_POINTS") == 2
    assert main(["flip-sweep", "--g", "1", "--tau-range", "1:4:3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_retry_walk_json_and_mc():
    proc = run_cli(
        "retry-walk", "--p", "0.8", "--n", "4", "--mc-trajectories", "20000",
        "--seed", "7",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["p_flip"] == pytest.approx(0.8)
    assert payload["n_cavities"] == 4
    assert payload["conditional_fidelity"] == 1.0
    assert abs(payload["mc_success_prob"] - payload["success_prob"]) < 0.02
    rerun = run_cli(
        "retry-walk", "--p", "0.8", "--n", "4", "--mc-trajectories", "20000",
        "--seed", "7",
    )
    assert rerun.stdout == proc.stdout


def test_retry_walk_degenerate_p_exits_two():
    assert run_cli("retry-walk", "--p", "0", "--n", "4").returncode == 2
    assert run_cli("retry-walk", "--p", "1.5", "--n", "4").returncode == 2
    assert run_cli("retry-walk", "--p", "0.5", "--n", "0").returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("--p", "0.5", "--n", "4", "--mc-trajectories", "1000000000000000"),
        ("--p", "0.5", "--n", "100000000000"),
    ],
)
def test_retry_walk_over_budget_exits_two_at_once(argv, capsys):
    assert main(["retry-walk", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "MAX_MC_TRAJECTORIES" in captured.err or "MAX_WALK_CAVITIES" in captured.err


def test_main_callable_in_process(capsys):
    code = main(["retry-walk", "--p", "1", "--n", "3"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["expected_steps"] == 3.0


@pytest.mark.parametrize(
    "argv,line",
    [
        (["--p", "1e-17", "--n", "1"], '"expected_steps": 2e+17,'),
        # means beyond the largest double, which JSON cannot hold
        (["--p", "1e-320", "--n", "4"], '"expected_steps": null,'),
        (["--p", "0.01", "--n", "1000"], '"expected_steps": null,'),
    ],
    ids=["p-1e-17", "p-1e-320", "p-0.01-n-1000"],
)
def test_retry_walk_mean_is_exact_or_null_for_tiny_p(argv, line, capsys):
    assert main(["retry-walk", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"  {line}" in captured.out.splitlines()


def test_retry_walk_seed_needs_mc_trajectories(capsys):
    for seed in ("-3", "0"):
        assert main(["retry-walk", "--p", "0.5", "--n", "4", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed applies only with --mc-trajectories\n"
    walk = ["retry-walk", "--p", "0.5", "--n", "4", "--mc-trajectories", "50"]
    assert main(walk) == 0
    unseeded = capsys.readouterr().out
    assert json.loads(unseeded)["seed"] == 0
    assert main([*walk, "--seed", "0"]) == 0
    assert capsys.readouterr().out == unseeded


# glibc's M_MMAP_THRESHOLD and M_TRIM_THRESHOLD (malloc.h), set to the bytes of the
# largest state vector the budget admits (16 per complex amplitude) and twice that
MALLOPT_CALLS = [(-3, qstate.MAX_TOTAL_DIM * 16), (-1, 2 * qstate.MAX_TOTAL_DIM * 16)]


def fake_libc(result):
    """A C library whose ``mallopt`` records its calls and returns ``result``."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return result

    return types.SimpleNamespace(mallopt=mallopt), calls


def test_main_fixes_the_allocator_thresholds_before_each_command_runs(tmp_path, monkeypatch):
    libc, calls = fake_libc(1)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: libc)
    build, seen = schemes.build_w_pow2, []
    monkeypatch.setattr(schemes, "build_w_pow2", lambda n: seen.append(list(calls)) or build(n))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for out in outs:  # a second call sets the same values again
        assert main(["run-scheme", "w", "--n", "4", "--out", str(out)]) == 0
    assert seen == [MALLOPT_CALLS, MALLOPT_CALLS * 2]
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_glibc_accepts_both_thresholds():
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    assert [mallopt(param, value) for param, value in MALLOPT_CALLS] == [1, 1]


def test_importing_the_cli_leaves_the_allocator_alone():
    code = (
        "import ctypes, numpy\n"
        "calls = []\n"
        "ctypes.CDLL = lambda *args, **kwargs: calls.append(args)\n"
        "import cavnet.cli\n"
        "cavnet.cli.build_parser()\n"
        "print(calls)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=SRC_ENV, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("libc", ["missing", "without mallopt", "refusing"])
def test_without_glibcs_mallopt_a_run_is_unchanged(libc, tmp_path, monkeypatch, capsys):
    assert main(["run-scheme", "w", "--n", "4", "--out", str(tmp_path / "ref.json")]) == 0
    refusing, calls = fake_libc(0)
    cdll = {
        "missing": _no_c_library,
        "without mallopt": lambda name: types.SimpleNamespace(),  # not glibc
        "refusing": lambda name: refusing,
    }[libc]
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert main(["run-scheme", "w", "--n", "4", "--out", str(tmp_path / "out.json")]) == 0
    assert (tmp_path / "out.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
    assert capsys.readouterr().err == ""
    assert calls == (MALLOPT_CALLS[:1] if libc == "refusing" else [])


@pytest.mark.parametrize(
    "owner,budget,value,argv",
    [
        (schemes, "MAX_WALK_STEPS", 5, ["retry-walk", "--p", "1", "--n", "2", "--max-steps", "6"]),
        (qstate, "MAX_TOTAL_DIM", 2**5, ["run-scheme", "w", "--n", "4"]),  # dim 128
        (iomodel, "MAX_SWEEP_STEPS", 5, ["flip-sweep", "--g", "1", "--tau", "1"]),
        (
            schemes,
            "MAX_MC_WALKER_STEPS",
            11,
            ["retry-walk", "--p", "0.5", "--n", "2", "--max-steps", "6", "--mc-trajectories", "2"],
        ),
    ],
)
def test_small_budgets_exit_two_without_traceback(owner, budget, value, argv, monkeypatch, capsys):
    monkeypatch.setattr(owner, budget, value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and budget in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["ghz-atoms", "--n", "100000"],
        ["w", "--n", "1024"],
        ["cluster", "--n", "100000"],
        ["ghz-fields", "--n", "100000"],
        ["graph", "--kind", "ring", "--n", "100000"],
        ["graph", "--kind", "star", "--n", "100000"],
        ["graph", "--kind", "linear", "--n", "100000"],
        ["graph", "--graph", "{graph}"],
    ],
)
def test_oversized_n_is_refused_before_any_subsystem_or_graph(argv, tmp_path, monkeypatch, capsys):
    graph_file = tmp_path / "graph.json"
    graph_file.write_text('{"vertices": 100000, "edges": [[0, 1]]}')
    argv = [arg.format(graph=graph_file) for arg in argv]

    def refuse(*args, **kwargs):
        raise AssertionError("a subsystem or graph was built")

    refuse.path = refuse
    for owner in (schemes, verify):
        monkeypatch.setattr(owner, "Subsystem", refuse)
        monkeypatch.setattr(owner, "Graph", refuse)
    assert main(["run-scheme", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: {' '.join(argv[1:])}: register dimension 2**")
    assert "exceeds MAX_TOTAL_DIM" in captured.err


def test_an_undeclared_outcome_id_exits_three(monkeypatch, capsys):
    real = schemes.build_field_cz_pair

    def renamed():
        scheme = real()
        return dataclasses.replace(scheme, targets={"Dg": None, "dE": None})

    monkeypatch.setattr(schemes, "build_field_cz_pair", renamed)
    assert main(["run-scheme", "field-cz"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal error: scheme 'field-cz' declares no correction and target for outcome 'De'\n"
    )


def test_walker_step_budget_refuses_before_either_walk_runs(monkeypatch, capsys):
    # 10M walkers x 100,000 steps pass both per-factor budgets but would run for hours
    def refuse(*args):
        raise AssertionError("a walk ran")

    monkeypatch.setattr(schemes, "retry_walk", refuse)
    monkeypatch.setattr(np.random, "default_rng", refuse)
    argv = ["--p", "0.01", "--n", "1000", "--max-steps", "100000", "--mc-trajectories", "10000000"]
    assert main(["retry-walk", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: ") and "MAX_MC_WALKER_STEPS" in captured.err


# Budgets the fuzzed command lines run under: small enough that any accepted
# input finishes in milliseconds, and never the real limits.
FUZZ_BUDGETS = (
    (qstate, "MAX_TOTAL_DIM", 2**8),
    (schemes, "MAX_WALK_CAVITIES", 6),
    (schemes, "MAX_WALK_STEPS", 50),
    (schemes, "MAX_MC_TRAJECTORIES", 40),
    (schemes, "MAX_MC_WALKER_STEPS", 400),
    (iomodel, "MAX_STEPS", 20_000),
    (iomodel, "MAX_SWEEP_POINTS", 3),
    (iomodel, "MAX_SWEEP_STEPS", 40_000),
)
FUZZ_NUMBERS = (
    st.sampled_from(
        ["0", "1", "2", "3", "4", "8", "-1", "0.5", "1e-300", "1e300", "nan", "inf", "",
         "x", "1,2", "0.5,,2", "0.1:40:3", "1:2", "1:0:2", "10" * 30]
    )
    | st.integers(-10, 10**30).map(str)
    | st.floats().map(repr)
)
# flag -> values; {graph}, {out}, {missing} and {dir} stand for paths made per example
FUZZ_VALUES = {
    "--n": FUZZ_NUMBERS,
    "--kind": st.sampled_from(["star", "linear", "ring", "tree"]),
    "--graph": st.sampled_from(["{graph}", "{missing}", "{dir}"]),
    "--out": st.sampled_from(["{out}", "{missing}", "{dir}"]),
    "--g": FUZZ_NUMBERS,
    "--tau": FUZZ_NUMBERS,
    "--tau-range": FUZZ_NUMBERS,
    "--step": FUZZ_NUMBERS,
    "--p": FUZZ_NUMBERS,
    "--max-steps": FUZZ_NUMBERS,
    "--mc-trajectories": FUZZ_NUMBERS,
    "--seed": FUZZ_NUMBERS,
}
FUZZ_FLAGS = {
    "run-scheme": ["--n", "--kind", "--graph", "--out"],
    "flip-sweep": ["--g", "--tau", "--tau-range", "--step", "--out"],
    "retry-walk": ["--p", "--n", "--max-steps", "--mc-trajectories", "--seed", "--out"],
}


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    argv = [command]
    if command == "run-scheme":
        argv.append(draw(st.sampled_from([*SCHEME_NAMES, "nosuch"])))
    for flag in draw(st.lists(st.sampled_from(FUZZ_FLAGS[command]), max_size=5)):
        argv += [flag, draw(FUZZ_VALUES[flag])]
    return argv


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**30) | st.floats() | st.text(max_size=3),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)
graph_documents = st.fixed_dictionaries(
    {
        "vertices": st.integers(-1, 6) | json_values,
        "edges": st.lists(st.lists(st.integers(-1, 6) | json_values, max_size=3), max_size=6)
        | json_values,
    }
)
graph_files = (graph_documents | json_values).map(
    lambda doc: json.dumps(doc).encode()
) | st.binary(max_size=30)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=fuzz_argv(), graph_bytes=graph_files)
@example(argv=["retry-walk", "--p", "1e-5", "--n", "4", "--max-steps", "10"], graph_bytes=b"")
@example(argv=["retry-walk", "--p", "1e-17", "--n", "1", "--max-steps", "10"], graph_bytes=b"")
@example(
    argv=["retry-walk", "--p", "0.5", "--n", "4", "--max-steps", "9", "--mc-trajectories", "0"],
    graph_bytes=b"",
)
@example(argv=["run-scheme", "graph", "--kind", "ring", "--n", "2"], graph_bytes=b"")
@example(argv=["run-scheme", "graph"], graph_bytes=b"")
@example(argv=["run-scheme", "cluster", "--n", "7"], graph_bytes=b"")
@example(argv=["run-scheme", "graph", "--graph", "{graph}"], graph_bytes=b'{"vertices": 0, "edges": []}')
def test_fuzzed_command_lines_exit_0_2_or_3_without_traceback(
    argv, graph_bytes, tmp_path, monkeypatch, capsys
):
    for owner, budget, value in FUZZ_BUDGETS:
        monkeypatch.setattr(owner, budget, value)
    graph = tmp_path / "graph.json"
    graph.write_bytes(graph_bytes)
    paths = {
        "{graph}": str(graph),
        "{out}": str(tmp_path / "out.txt"),
        "{missing}": str(tmp_path / "missing" / "out.txt"),
        "{dir}": str(tmp_path),
    }
    argv = [paths.get(arg, arg) for arg in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refusing the command line
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 2, 3), (argv, captured.err)
    assert "Traceback" not in captured.err
    if code == 0:
        outs = [value for flag, value in zip(argv, argv[1:]) if flag == "--out"]
        text = Path(outs[-1]).read_text() if outs else captured.out
        check_fuzzed_output(argv[0], text)
    if code == 2:
        check_fuzzed_refusal(argv, captured.err)


# A retry walk run without --max-steps refuses its default step count under FUZZ_BUDGETS.
DEFAULT_MAX_STEPS = str(build_parser().parse_args(["retry-walk", "--p", "1", "--n", "1"]).max_steps)


def check_fuzzed_refusal(argv, err):
    """One ``error:`` line, naming a flag of the command or a value the command line gave.

    A flag is named as ``--g`` or ``g``, a value by a token of the message
    (numbers compare as floats), but a word value only in quotes: ``ring``
    in "a ring needs ..." is prose.
    """
    lines = [line for line in err.splitlines() if "error:" in line]
    assert len(lines) == 1, err
    message = lines[0].split("error:", 1)[1]
    tokens = {token.strip(",;:()[]") for token in message.split()}
    flags = {name for flag in FUZZ_FLAGS[argv[0]] for name in (flag, flag[2:])}
    values = {arg for arg in argv[1:] if arg} | {DEFAULT_MAX_STEPS}
    words = {value for value in values if value.isalpha() and as_float(value) is None}
    numbers = {as_float(value) for value in values} - {None}
    assert (
        flags & tokens
        or (values - words) & tokens
        or any(f"'{word}'" in message for word in words)
        or any(as_float(token) in numbers for token in tokens)
    ), (argv, message)


def as_float(text):
    try:
        return float(text)
    except ValueError:
        return None


def check_fuzzed_output(command, text):
    """The output parses as CSV or JSON, every number in it is finite, and a
    retry walk's mean is ``null`` or at least one step per cavity."""
    if command == "flip-sweep":
        header, *rows = text.splitlines()
        assert header == "g_over_kappa,kappa_tau,P_flip" and rows
        numbers = [float(cell) for row in rows for cell in row.split(",")]
    else:
        numbers = []

        def number(literal):  # every JSON number, NaN and Infinity included
            numbers.append(float(literal))
            return numbers[-1]

        doc = json.loads(text, parse_int=number, parse_float=number, parse_constant=number)
        if command == "retry-walk":
            mean = doc["expected_steps"]
            assert mean is None or mean >= doc["n_cavities"], mean
    assert all(math.isfinite(x) for x in numbers)


def test_dump_json_formatting():
    text = "".join(dump_json({"a": 1.0, "b": [0.5, None, True], "c": "x"}))
    assert '"a": 1.0' in text
    assert "null" in text and "true" in text
    parsed = json.loads(text)
    assert parsed == {"a": 1.0, "b": [0.5, None, True], "c": "x"}


# Edge values for the array renderer: signed zeros, subnormals, extremes.
SPECIAL_FLOATS = (
    0.0, -0.0, 5e-324, -5e-324,
    2.5e-310, 1e308, -1e308,
    1.7976931348623157e308,
)


@st.composite
def amplitude_vectors(draw):
    """Complex vectors drawn from a small pool of values, so many repeat.

    Each drawn pair repeats 1-3 or 50-300 times in a row, so long runs of
    one record occur anywhere, at either end and of ±0.0 too.
    """
    finite = st.floats(allow_nan=False, allow_infinity=False)
    value = st.sampled_from(SPECIAL_FLOATS) | finite
    pool = draw(st.lists(value, min_size=1, max_size=6))
    part = st.sampled_from(pool)
    repeat = st.integers(1, 3) | st.integers(50, 300)
    runs = draw(st.lists(st.tuples(part, part, repeat), max_size=12))
    return np.array([complex(re, im) for re, im, k in runs for _ in range(k)], dtype=complex)


@settings(max_examples=200, deadline=None)
@given(amplitude_vectors(), st.integers(0, 4))
# long runs of signed zeros, at either end and side by side
@example(np.zeros(300, dtype=complex), 0)
@example(np.array([complex(-0.0, 0.0)] * 200 + [0.5j] + [0j] * 200), 1)
@example(np.array([0.5 + 0j] + [complex(0.0, -0.0)] * 250), 2)
@example(np.array([complex(-0.0, 0.0)] * 120 + [0j] * 120 + [complex(-0.0, -0.0)] * 120), 3)
# runs about the block length of shared run pieces, at either end and side by side, in
# vectors whose runs average the block length or more, so they are rendered as blocks
@example(np.array([complex(-0.0, 0.0)] * (_RUN_BLOCK - 1) + [0j] * (2 * _RUN_BLOCK + 1)), 0)
@example(np.array([0j] * _RUN_BLOCK + [complex(-0.0, -0.0)] * (_RUN_BLOCK + 1)), 1)
@example(np.array([0j] * (_RUN_BLOCK + 1) + [complex(0.0, -0.0)] * (2 * _RUN_BLOCK)), 2)
@example(np.array([0.25 + 0j] + [complex(-0.0, 0.0)] * (5 * _RUN_BLOCK + 3) + [0j] * 2), 3)
@example(np.array([complex(-0.0, 0.0)] * (2 * _RUN_BLOCK) + [0j] * (5 * _RUN_BLOCK + 3)), 4)
@example(np.array([0j] * 2 * _RUN_BLOCK + [0.5j] * (_RUN_BLOCK - 1) + [-0.0] * 2 * _RUN_BLOCK), 1)
def test_dump_json_array_matches_pair_list(vec, indent):
    pairs = [[float(z.real), float(z.imag)] for z in vec]
    assert "".join(dump_json(vec, indent)) == "".join(dump_json(pairs, indent))
    doc, pair_doc = {"state": vec}, {"state": pairs}
    assert "".join(dump_json(doc, indent)) == "".join(dump_json(pair_doc, indent))


def test_a_run_of_equal_records_is_appended_as_references_to_shared_blocks():
    pieces = []
    _dump_amplitudes(np.array([0.5j] + [0.0] * 1000 + [0.25, 0.25]), 1, pieces)
    blocks, rest = divmod(1000, _RUN_BLOCK)
    # opening, the zero run's blocks and the rest of it, two 0.25 records, closing
    assert len(pieces) == 1 + blocks + rest + 2 + 1
    zero = pieces[1 + blocks]
    assert zero == ",\n    [\n      0.0,\n      0.0\n    ]"
    assert all(piece is pieces[1] for piece in pieces[1 : 1 + blocks])
    assert pieces[1] == zero * _RUN_BLOCK
    assert all(piece is zero for piece in pieces[1 + blocks : 1 + blocks + rest])
    assert pieces[-3] is pieces[-2] and pieces[-3] is not zero
    # runs that average fewer than _RUN_BLOCK records: one reference per record
    pieces = []
    _dump_amplitudes(np.array([0.5j] + [0.0] * 2 * _RUN_BLOCK + [0.25, 0.5, 0.25]), 1, pieces)
    assert len(pieces) == 2 * _RUN_BLOCK + 4 + 1
    assert all(piece is pieces[1] for piece in pieces[1 : 1 + 2 * _RUN_BLOCK])


def reference_dump_json(value, indent=0):
    """The nested renderer ``dump_json`` replaced: each container builds its own text."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if not math.isfinite(x):
            raise ParameterError(f"non-finite value {x} cannot be serialized")
        return iomodel.format_float(x)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f"{inner}{json.dumps(str(k))}: {reference_dump_json(v, indent + 1)}"
            for k, v in value.items()
        ]
        body = ",\n".join(rows)
        return f"{{\n{body}\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{inner}{reference_dump_json(v, indent + 1)}" for v in value]
        body = ",\n".join(rows)
        return f"[\n{body}\n{pad}]"
    if (
        isinstance(value, np.ndarray)
        and value.ndim == 1
        and np.issubdtype(value.dtype, np.complexfloating)
    ):
        pieces = []
        _dump_amplitudes(value, indent, pieces)
        return "".join(pieces)
    raise ParameterError(f"cannot serialize {type(value).__name__}")


json_floats = st.sampled_from(SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | json_floats
    | json_floats.map(np.float64)
    | st.text(max_size=8)
    | amplitude_vectors()
)
json_documents = st.recursive(
    json_leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(json_documents, st.integers(0, 4))
def test_dump_json_matches_nested_reference(doc, indent):
    assert "".join(dump_json(doc, indent)) == reference_dump_json(doc, indent)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_dump_json_rejects_non_finite(bad):
    with pytest.raises(ParameterError):
        dump_json([0.5, bad])
    with pytest.raises(ParameterError):
        dump_json(np.array([0.5j, complex(bad, 0.0)]))
    with pytest.raises(ParameterError):
        dump_json(np.array([complex(0.0, bad)]))


def test_dump_json_refuses_a_value_it_cannot_render():
    with pytest.raises(ParameterError, match="^cannot serialize object$"):
        dump_json({"a": 1.0, "b": object()})


def run_report(scheme):
    """Reference rendering: the report as plain Python values, amplitudes as pair lists."""
    outcomes = schemes.reports_to_jsonable(schemes.run(scheme))
    for row in outcomes:
        amps = row["corrected_state"]
        if amps is not None:
            row["corrected_state"] = np.column_stack((amps.real, amps.imag)).tolist()
    return {"scheme": schemes.scheme_to_jsonable(scheme), "outcomes": outcomes}


def test_run_report_is_json_serializable():
    payload = run_report(schemes.build_ghz_atoms(2))
    text = json.dumps(payload)
    back = json.loads(text)
    assert back["scheme"]["name"] == "ghz-atoms"
    assert back["scheme"]["n"] == 2
    assert len(back["outcomes"]) == 2
    types = [row["type"] for row in back["scheme"]["elements"]]
    assert types[0] == "BS"
    for row in back["outcomes"]:
        assert row["probability"] == pytest.approx(0.5, abs=1e-12)
        assert isinstance(row["corrected_state"], list)


RUN_SCHEME_CASES = [
    (("ghz-atoms", "--n", "4"), lambda: schemes.build_ghz_atoms(4)),
    (("w", "--n", "4"), lambda: schemes.build_w_pow2(4)),
    (("w", "--n", "8"), lambda: schemes.build_w_pow2(8)),
    (("w3-prob",), schemes.build_w3_probabilistic),
    (("w3-det",), schemes.build_w3_deterministic),
    (("cluster", "--n", "3"), lambda: schemes.build_cluster_atoms(3)),
    (("ghz-fields", "--n", "4"), lambda: schemes.build_ghz_fields(4)),
    (("ghz-fields", "--n", "10"), lambda: schemes.build_ghz_fields(10)),
    (("field-cz",), schemes.build_field_cz_pair),
    (("graph", "--kind", "ring", "--n", "3"), lambda: schemes.build_field_graph("ring", 3)),
    (("graph", "--kind", "star", "--n", "3"), lambda: schemes.build_field_graph("star", 3)),
]


def test_run_scheme_calls_the_builder_bound_in_schemes(monkeypatch):
    """Wrapping a builder in ``cavnet.schemes`` (as a tracer does) wraps the CLI's call."""
    calls = []
    real = schemes.build_field_cz_pair
    monkeypatch.setattr(schemes, "build_field_cz_pair", lambda: calls.append(1) or real())
    assert main(["run-scheme", "field-cz"]) == 0
    assert calls == [1]


@pytest.mark.parametrize(
    "argv,builder,flag",
    [
        (["w3-det", "--n", "5"], "build_w3_deterministic", "--n"),
        (["w3-prob", "--kind", "ring"], "build_w3_probabilistic", "--kind"),
        (["field-cz", "--graph", "g.json"], "build_field_cz_pair", "--graph"),
        (["w", "--n", "4", "--kind", "ring"], "build_w_pow2", "--kind"),
        (["ghz-atoms", "--n", "3", "--graph", "g.json"], "build_ghz_atoms", "--graph"),
        (["cluster", "--kind", "star", "--n", "3"], "build_cluster_atoms", "--kind"),
    ],
    ids=lambda value: " ".join(value) if isinstance(value, list) else value,
)
def test_a_flag_the_scheme_does_not_take_is_refused_before_it_is_built(
    argv, builder, flag, monkeypatch, capsys
):
    monkeypatch.setattr(schemes, builder, lambda *a: pytest.fail("built the scheme"))
    assert main(["run-scheme", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: scheme {argv[0]} does not take {flag}\n"


def test_run_scheme_cases_cover_every_scheme():
    assert {argv[0] for argv, _ in RUN_SCHEME_CASES} == set(SCHEME_NAMES)


@pytest.mark.parametrize(
    "argv,build", RUN_SCHEME_CASES, ids=["_".join(argv) for argv, _ in RUN_SCHEME_CASES]
)
def test_run_scheme_stdout_equals_run_report_rendering(argv, build, capsys):
    """The CLI renders amplitude arrays byte for byte like ``run_report``'s pair lists."""
    assert main(["run-scheme", *argv]) == 0
    assert capsys.readouterr().out == "".join(dump_json(run_report(build()))) + "\n"
