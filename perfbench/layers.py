"""Per-layer metrics: which functions are traced, and what is computed from the spans.

The layers are the six ``cavnet`` modules.  Every public function a module
defines is wrapped under ``<module>.<function>``.  Three more attributes
are wrapped because callers reach them without going through the defining
module: ``verify`` imports ``apply_unitary`` and ``overlap`` from
``qstate`` by value, and ``LocalCorrection.apply`` is a method.  ``cli``
also imports ``format_float`` by value; it is left unwrapped because it runs
once per JSON number, and its time stays inside ``cli.serialize``.
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import statistics
import time
from collections import Counter, defaultdict

import numpy as np

from cavnet import cli, elements, iomodel, qstate, schemes, verify
from tracer import Tracer, roots, self_times

LAYERS = {
    "iomodel": iomodel,
    "elements": elements,
    "qstate": qstate,
    "schemes": schemes,
    "verify": verify,
    "cli": cli,
}
# Element kinds some builder emits; PBS is defined but never emitted.
ELEMENT_KINDS = (
    "BS",
    "CavityAtomBlock",
    "DispersiveBlock",
    "ExternalPiPulse",
    "FieldHalfPiBlock",
    "FieldPiBlock",
    "PR",
    "PhaseShifter",
    "RamseyZone",
    "Reroute",
)
TARGETS = ("verify.ghz_target", "verify.w_target", "verify.graph_target")


class Capture:
    """What the hooks keep from a traced pass, for use after the wrappers are gone."""

    def __init__(self) -> None:
        self.pulses: list[tuple] = []          # (params, grid) per integrate_pulse call
        self.sweep_points: list = []
        self.state_bytes = 0                   # input bytes of every apply_unitary call
        self.outcomes = 0
        self.propagated: list[tuple] = []      # (scheme, final state) per full propagate

    def hooks(self) -> dict:
        def pulse(args, kwargs, result):
            params = args[0] if args else kwargs["params"]
            grid = args[1] if len(args) > 1 else kwargs.get("grid")
            self.pulses.append((params, grid))

        def sweep(args, kwargs, result):
            self.sweep_points.extend(result)

        def apply_unitary(args, kwargs, result):
            state = args[0] if args else kwargs["state"]
            self.state_bytes += state.amplitudes.nbytes

        def run(args, kwargs, result):
            self.outcomes += len(result)

        def propagate(args, kwargs, result):
            upto = args[1] if len(args) > 1 else kwargs.get("upto")
            if upto is None:
                self.propagated.append((args[0] if args else kwargs["scheme"], result))

        return {
            "iomodel.integrate_pulse": pulse,
            "iomodel.flip_probability_sweep": sweep,
            "qstate.apply_unitary": apply_unitary,
            "schemes.run": run,
            "schemes.propagate": propagate,
        }


def install(tracer: Tracer, capture: Capture) -> None:
    """Wrap every traced function; ``tracer.restore()`` undoes it."""
    hooks = capture.hooks()
    for layer, module in LAYERS.items():
        for attr, obj in sorted(vars(module).items()):
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                name = f"{layer}.{attr}"
                tracer.wrap(module, attr, name, hooks.get(name))
    for attr in ("apply_unitary", "overlap"):
        name = f"qstate.{attr}"
        tracer.wrap(verify, attr, name, hooks.get(name))
    tracer.wrap(verify.LocalCorrection, "apply", "verify.LocalCorrection.apply")


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def span_metrics(
    spans: list[list], capture: Capture, wall_s: float, untraced_wall_s: float
) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall_s``."""
    durations: dict[str, list[float]] = defaultdict(list)
    for name, start, end, _ in spans:
        durations[name].append(end - start)

    def total(*names: str) -> float:
        return math.fsum(d for n in names for d in durations.get(n, ()))

    def calls(*names: str) -> int:
        return sum(len(durations.get(n, ())) for n in names)

    steps = sum(
        (grid if grid is not None else iomodel.default_grid(params)).n_steps
        for params, grid in capture.pulses
    )
    pulse_s = total("iomodel.integrate_pulse")
    residual = max(
        (abs(1.0 - p.P_flip - p.P_noflip) for p in capture.sweep_points), default=0.0
    )
    builds = [n for n in durations if n.startswith("schemes.build_")]
    project_out = calls("qstate.project_out")

    m: dict[str, float] = {
        "iomodel.integrate_pulse.calls": calls("iomodel.integrate_pulse"),
        "iomodel.integrate_pulse.s": pulse_s,
        "iomodel.integrate_pulse.p90_s": _p90(durations.get("iomodel.integrate_pulse", [])),
        "iomodel.rk4_steps": steps,
        "iomodel.ns_per_step": pulse_s / steps * 1e9 if steps else 0.0,
        "iomodel.flux_residual_max": residual,
        "qstate.apply_unitary.calls": calls("qstate.apply_unitary"),
        "qstate.apply_unitary.s": total("qstate.apply_unitary"),
        "qstate.apply_unitary.state_mb": capture.state_bytes / 1e6,
        "qstate.project_out.calls": project_out,
        "qstate.project_out.s": total("qstate.project_out"),
        "qstate.projection_probability.calls": calls("qstate.projection_probability"),
        "qstate.projection_probability.s": total("qstate.projection_probability"),
        "qstate.from_factors.s": total("qstate.from_factors"),
        "schemes.build.s": total(*builds),
        "schemes.propagate.s": total("schemes.propagate"),
        "schemes.detect.s": total("schemes.run") - total("schemes.propagate"),
        "schemes.outcomes": capture.outcomes,
        "schemes.projections_per_outcome": (
            project_out / capture.outcomes if capture.outcomes else 0.0
        ),
        "schemes.reports_to_jsonable.s": total("schemes.reports_to_jsonable"),
        "schemes.retry_walk_mc.s": total("schemes.retry_walk_mc"),
        "verify.target.calls": calls(*TARGETS),
        "verify.target.s": total(*TARGETS),
        "verify.fidelity.s": total("verify.fidelity"),
        "verify.correction.s": total("verify.LocalCorrection.apply"),
        "cli.serialize.s": total("cli.dump_json"),
    }
    own = self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = math.fsum(
            s for s, span in zip(own, spans) if span[0].split(".", 1)[0] == layer
        )
    top = math.fsum(end - start for _, start, end, parent in spans if parent < 0)
    m["trace.unattributed_s"] = wall_s - top
    m["trace.overhead_ratio"] = wall_s / untraced_wall_s
    return m


def project_out_per_command(spans: list[list]) -> list[int]:
    """``qstate.project_out`` calls under each outermost span, in order."""
    top = roots(spans)
    counts = Counter(top[i] for i, span in enumerate(spans) if span[0] == "qstate.project_out")
    return [counts[i] for i, span in enumerate(spans) if span[3] < 0]


def replay_elements(captured: list[tuple]) -> tuple[dict[str, float], list[str]]:
    """Time each element by propagating it alone from the state before it.

    Each element runs through the public ``schemes.propagate`` on a copy of
    the scheme whose initial state is the state reached so far; the same
    call with no elements is timed and subtracted.  Returns the
    ``elements.<Kind>.calls``/``.s`` metrics and a list of problems: schemes
    whose replayed final state differs from the traced ``propagate`` result,
    and element kinds that have no metric.
    """
    calls: Counter = Counter()
    secs: dict[str, float] = defaultdict(float)
    problems: list[str] = []
    clock = time.perf_counter
    for scheme, final in captured:
        state = schemes.initial_state(scheme)
        labels = scheme.register.labels
        for item in scheme.elements:
            start = ((labels, state.amplitudes),)
            t0 = clock()
            after = schemes.propagate(
                dataclasses.replace(scheme, initial=start, elements=(item,))
            )
            t1 = clock()
            schemes.propagate(dataclasses.replace(scheme, initial=start, elements=()))
            t2 = clock()
            kind = type(item).__name__
            calls[kind] += 1
            secs[kind] += (t1 - t0) - (t2 - t1)
            state = after
        if not np.array_equal(state.amplitudes, final.amplitudes):
            problems.append(f"{scheme.name}: final state differs")
    metrics: dict[str, float] = {}
    for kind in ELEMENT_KINDS:
        metrics[f"elements.{kind}.calls"] = calls[kind]
        metrics[f"elements.{kind}.s"] = secs[kind]
    problems.extend(f"element kind {kind} has no metric" for kind in set(calls) - set(ELEMENT_KINDS))
    return metrics, problems
