"""Span tracing around crashsim's layer boundaries, installed from outside.

`Tracer.installed()` swaps each public layer function for a wrapper in every
loaded crashsim module that holds a reference to it, and restores the
originals on exit, so untraced runs execute the program untouched. A span
records its name, operation id, parent span, thread, wall start and end, and
the thread's CPU time: under the GIL the summed wall time of spans running
on pool threads overcounts the work, their CPU time does not.

crashsim's `_parallel.parallel_map` runs loss evaluations and model peaks on
pool threads, which do not inherit the caller's context; the tracer wraps it
in a `parallel.parallel_map` span and runs each item in a copy of the
submitting thread's context, so the items' spans keep their operation id and
have that span as their parent.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

# (operation id, innermost open span id) of the running code
_CURRENT = contextvars.ContextVar("perfbench_span", default=(None, None))

HORIZON = "max_time_reached"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    op: str | None
    thread: int
    start: float
    end: float
    cpu_s: float
    info: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def _trajectory_info(args, kwargs, result) -> dict:
    return {"samples": len(result), "termination": result.termination.value}


def _series_info(args, kwargs, result) -> dict:
    return {"samples": len(result)}


def _file_info(args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(args[0])}


# layer function -> what its span records beyond timing
LAYER_FUNCTIONS = {
    "crashsim.dynamics": {"simulate_contact": _trajectory_info},
    "crashsim.sensor": {"filtered_series": _series_info, "lowpass_filter": _series_info},
    "crashsim.identify": {"fit_damping": None, "mse_loss": None, "model_peak": None,
                          "estimate_stiffness": None},
    "crashsim.energy": {"energy_distribution_curve": None, "energy_partition": None,
                        "collision_threshold_altitude": None},
    "crashsim.io": {"write_json": _file_info, "write_peaks_csv": _file_info,
                    "write_statics_csv": _file_info, "write_trajectory_csv": _file_info,
                    "write_energy_csv": _file_info, "read_peaks_csv": None,
                    "read_statics_csv": None},
}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.threads_peak = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def operation(self, op_id: str):
        token = _CURRENT.set((op_id, None))
        try:
            yield
        finally:
            _CURRENT.reset(token)

    def _wrap(self, name: str, fn, info):
        def traced(*args, **kwargs):
            op_id, parent = _CURRENT.get()
            span_id = next(self._ids)
            token = _CURRENT.set((op_id, span_id))
            with self._lock:
                self.threads_peak = max(self.threads_peak, threading.active_count())
            cpu0 = time.thread_time()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                cpu = time.thread_time() - cpu0
                _CURRENT.reset(token)
            span = Span(span_id, parent, name, op_id, threading.get_ident(),
                        start, end, cpu)
            if info is not None:
                span.info = info(args, kwargs, result)
            self.spans.append(span)
            return result

        return traced

    @staticmethod
    def _propagating(parallel_map):
        def wrapped(fn, items):
            context = contextvars.copy_context()
            return parallel_map(lambda item: context.copy().run(fn, item), items)

        return wrapped

    @contextlib.contextmanager
    def installed(self):
        """Patch every reference to the layer functions in loaded crashsim
        modules; restore them on exit."""
        replacements = {}
        for module_name, functions in LAYER_FUNCTIONS.items():
            module = sys.modules[module_name]
            for fn_name, info in functions.items():
                original = getattr(module, fn_name)
                short = module_name.split(".", 1)[1]
                replacements[id(original)] = (
                    original, self._wrap(f"{short}.{fn_name}", original, info))
        pool = sys.modules.get("crashsim._parallel")
        if pool is not None and hasattr(pool, "parallel_map"):
            replacements[id(pool.parallel_map)] = (
                pool.parallel_map, self._wrap("parallel.parallel_map",
                                              self._propagating(pool.parallel_map), None))

        patched = []
        for module_name, module in list(sys.modules.items()):
            if module_name != "crashsim" and not module_name.startswith("crashsim."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _has_ancestor(span: Span, name: str, by_id: dict) -> bool:
    parent = by_id.get(span.parent)
    while parent is not None:
        if parent.name == name:
            return True
        parent = by_id.get(parent.parent)
    return False


def layer_metrics(spans: list[Span], op_walls: dict[str, float]) -> dict[str, float]:
    """Per-layer totals over the traced operations.

    `op_walls` maps each traced operation id to its wall time; the part of
    it that no top-level span covers is the CLI's own time.
    """
    by_id = {s.id: s for s in spans}

    def named(*names):
        return [s for s in spans if s.name in names]

    sims = named("dynamics.simulate_contact")
    sim_samples = sum(s.info["samples"] for s in sims)
    horizon = [s for s in sims if s.info["termination"] == HORIZON]
    filters = named("sensor.filtered_series", "sensor.lowpass_filter")
    filter_samples = sum(s.info["samples"] for s in filters)
    losses = named("identify.mse_loss")

    # a fit's grid phase is its first parallel_map, up to that map's end; the
    # rest of the fit is refinement (all of it, if the fit maps nothing)
    grid_s = refine_s = 0.0
    maps = named("parallel.parallel_map")
    for fit in named("identify.fit_damping"):
        grid = min((s for s in maps if s.parent == fit.id), key=lambda s: s.start,
                   default=None)
        grid_end = fit.start if grid is None else grid.end
        grid_s += grid_end - fit.start
        refine_s += fit.end - grid_end

    writes = [s for s in spans if s.name.startswith("io.write_")]
    top_level = {}
    for s in spans:
        if s.parent is None:
            top_level[s.op] = top_level.get(s.op, 0.0) + s.wall_s

    def ratio(num, den):
        return num / den if den else 0.0

    dynamics_busy = sum(s.cpu_s for s in sims)
    sensor_busy = sum(s.cpu_s for s in filters)
    return {
        "dynamics.calls": len(sims),
        "dynamics.busy_s": dynamics_busy,
        "dynamics.samples": sim_samples,
        "dynamics.us_per_sample": 1e6 * ratio(dynamics_busy, sim_samples),
        "dynamics.horizon_share": ratio(len(horizon), len(sims)),
        "dynamics.horizon_sample_share": ratio(sum(s.info["samples"] for s in horizon),
                                               sim_samples),
        "sensor.calls": len(filters),
        "sensor.busy_s": sensor_busy,
        "sensor.us_per_sample": 1e6 * ratio(sensor_busy, filter_samples),
        "identify.fit_s": sum(s.wall_s for s in named("identify.fit_damping")),
        "identify.loss_evals": len(losses),
        "identify.sims_per_eval": ratio(
            sum(1 for s in sims if _has_ancestor(s, "identify.mse_loss", by_id)),
            len(losses)),
        "identify.grid_s": grid_s,
        "identify.refine_s": refine_s,
        "energy.partition_s": sum(s.wall_s for s in named("energy.energy_distribution_curve")),
        "energy.threshold_s": sum(s.wall_s for s in named("energy.collision_threshold_altitude")),
        "energy.threshold_sims": sum(
            1 for s in sims if _has_ancestor(s, "energy.collision_threshold_altitude", by_id)),
        "io.write_s": sum(s.wall_s for s in writes),
        "io.bytes_written": sum(s.info["bytes"] for s in writes),
        "io.read_s": sum(s.wall_s for s in spans if s.name.startswith("io.read_")),
        "cli.self_s": sum(wall - top_level.get(op, 0.0) for op, wall in op_walls.items()),
    }


def termination_mix(spans: list[Span]) -> dict[str, int]:
    mix: dict[str, int] = {}
    for s in spans:
        if s.name == "dynamics.simulate_contact":
            mix[s.info["termination"]] = mix.get(s.info["termination"], 0) + 1
    return dict(sorted(mix.items()))
