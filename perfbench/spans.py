"""Span tracing of mipdiff's layers, installed from outside the package.

Each public function of a layer module (the names in its ``__all__``, plus
``cli.main`` and ``cli.write_manifest``) is wrapped in a recorder, and the
wrapper is bound wherever any mipdiff module holds that function, so calls
between layers (``diffusion`` into ``fields``) become child spans too.
Spans stay in memory until the run ends.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "fileio", "fields", "diffusion", "projection", "phased_array",
          "metrics", "phantom")
EXTRA_NAMES = {"cli": ("main", "write_manifest")}


def _path_arg(fn):
    """Observer giving the size in bytes of the file a fileio call named."""
    signature = inspect.signature(fn)

    def observe(args, kwargs, result):
        return os.path.getsize(signature.bind(*args, **kwargs).arguments["path"])

    return observe


# Counts recorded at the span boundary, after the span's end time is taken.
OBSERVERS = {
    "fields.derivatives": lambda fn: lambda args, kwargs, result: result.ux.size,
    "diffusion.run_filter": lambda fn: lambda args, kwargs, result: (
        result[1].iterations, result[1].converged),
    "fileio.read_volume": _path_arg,
    "fileio.write_volume": _path_arg,
    "fileio.export_pgm": _path_arg,
    "cli.main": lambda fn: lambda args, kwargs, result: str(args[0][0]),
}


class Tracer:
    """Records spans ``[name, start_ns, end_ns, parent, job, error, info]``.

    ``parent`` is the index of the enclosing span or -1. Wrappers are bound
    only between ``install`` and ``uninstall``, so untraced jobs run the
    program untouched.
    """

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patches = []  # (module, attribute, original, wrapper)
        layers = {layer: importlib.import_module(f"mipdiff.{layer}") for layer in LAYERS}
        modules = [m for n, m in sys.modules.items()
                   if n == "mipdiff" or n.startswith("mipdiff.")]
        for layer, mod in layers.items():
            names = dict.fromkeys((*getattr(mod, "__all__", ()), *EXTRA_NAMES.get(layer, ())))
            for name in names:
                fn = getattr(mod, name, None)
                if not inspect.isfunction(fn):
                    continue
                qualname = f"{layer}.{name}"
                observer = OBSERVERS.get(qualname)
                wrapper = self._wrap(qualname, fn, observer(fn) if observer else None)
                for m in modules:
                    for attr, value in vars(m).items():
                        if value is fn:
                            self._patches.append((m, attr, fn, wrapper))

    def _wrap(self, name, fn, observe):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.job, False, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                rec[6] = observe(args, kwargs, result)
            return result

        return traced

    def install(self, job) -> None:
        self.job = job
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)
        self.job = None

    def write(self, path) -> None:
        """Write the spans as JSON lines, one span per line."""
        keys = ("name", "start_ns", "end_ns", "parent", "job", "error", "info")
        with open(path, "w", encoding="ascii") as f:
            for rec in self.spans:
                f.write(json.dumps(dict(zip(keys, rec))) + "\n")


# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = [
    ("fields.self_s", "s/job", "lower"),
    ("fields.hessian_eigen.self_s", "s/job", "lower"),
    ("fields.derivatives.self_s", "s/job", "lower"),
    ("fields.derivatives.calls", "calls/job", "lower"),
    ("fields.directional_second_derivative.self_s", "s/job", "lower"),
    ("fields.diffusion_basis.self_s", "s/job", "lower"),
    ("fields.structureness.self_s", "s/job", "lower"),
    ("fields.as_field.calls", "calls/job", "lower"),
    ("fields.as_field.self_s", "s/job", "lower"),
    ("fields.as_volume.self_s", "s/job", "lower"),
    ("fields.mpix", "Mpx/job", "lower"),
    ("fields.ns_per_px", "ns/px", "lower"),
    ("diffusion.self_s", "s/job", "lower"),
    ("diffusion.run_filter.calls", "calls/job", "lower"),
    ("diffusion.run_filter.iterations", "iter/job", "lower"),
    ("diffusion.run_filter.converged_frac", "frac", "higher"),
    ("diffusion.run_filter.ms_p50", "ms", "lower"),
    ("diffusion.run_filter.ms_tail", "ms", "lower"),
    ("diffusion.adaptive_update.calls", "calls/job", "lower"),
    ("diffusion.adaptive_update.ms_p50", "ms", "lower"),
    ("diffusion.adaptive_mu.self_s", "s/job", "lower"),
    ("diffusion.histogram_bounds.self_s", "s/job", "lower"),
    ("diffusion.histogram_bounds.calls", "calls/job", "lower"),
    ("diffusion.hysteresis_filter.total_s", "s/job", "lower"),
    ("diffusion.pm_step.self_s", "s/job", "lower"),
    ("diffusion.orthogonal_step.self_s", "s/job", "lower"),
    ("diffusion.directional_ad_step.self_s", "s/job", "lower"),
    ("projection.self_s", "s/job", "lower"),
    ("projection.project.self_s", "s/job", "lower"),
    ("projection.project_min_argmin.self_s", "s/job", "lower"),
    ("projection.phase_mask.self_s", "s/job", "lower"),
    ("projection.swi_pipeline.total_s", "s/job", "lower"),
    ("phased_array.self_s", "s/job", "lower"),
    ("phased_array.pc_pipeline.total_s", "s/job", "lower"),
    ("phased_array.pa_combine.self_s", "s/job", "lower"),
    ("phased_array.filter_synthesized_scale.self_s", "s/job", "lower"),
    ("phased_array.combine_flow.self_s", "s/job", "lower"),
    ("fileio.self_s", "s/job", "lower"),
    ("fileio.read_volume.self_s", "s/job", "lower"),
    ("fileio.write_volume.self_s", "s/job", "lower"),
    ("fileio.export_pgm.self_s", "s/job", "lower"),
    ("fileio.read_mib", "MiB/job", "lower"),
    ("fileio.write_mib", "MiB/job", "lower"),
    ("cli.self_s", "s/job", "lower"),
    ("cli.write_manifest.total_s", "s/job", "lower"),
    ("metrics.self_s", "s/job", "lower"),
    ("metrics.contrast_per_pixel.self_s", "s/job", "lower"),
    ("phantom.self_s", "s/job", "lower"),
    ("phantom.generate.self_s", "s/job", "lower"),
    ("phantom.generate_flow.self_s", "s/job", "lower"),
    *[(f"{layer}.errors", "count", "lower") for layer in LAYERS],
    ("trace.overhead_frac", "frac", "lower"),
]


def tail(values):
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile); with ten samples or fewer, the maximum at
    percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0, 100.0
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def layer_metrics(spans, traced_jobs: int, overhead_frac: float):
    """Per-layer metrics of the traced jobs, plus notes printed beside them.

    Times and counts are per traced job; a function the workload never
    calls reads 0.
    """
    child = [0] * len(spans)
    for _, start, end, parent, _, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    total_ns = defaultdict(int)
    durations = defaultdict(list)
    infos = defaultdict(list)
    errors = defaultdict(int)
    routes = defaultdict(list)
    for i, (name, start, end, _, _, error, info) in enumerate(spans):
        layer = name.split(".", 1)[0]
        calls[name] += 1
        self_ns[name] += end - start - child[i]
        self_ns[layer] += end - start - child[i]
        total_ns[name] += end - start
        durations[name].append((end - start) / 1e6)
        if info is not None:
            infos[name].append(info)
            if name == "cli.main":
                routes[info].append((end - start) / 1e9)
        errors[layer] += error

    per_job = 1.0 / max(traced_jobs, 1)
    runs = infos["diffusion.run_filter"]
    pixels = sum(infos["fields.derivatives"])
    ms_tail, tail_pct = tail(durations["diffusion.run_filter"])
    values = {
        "fields.mpix": pixels / 1e6 * per_job,
        "fields.ns_per_px": self_ns["fields"] / pixels if pixels else 0.0,
        "diffusion.run_filter.iterations": sum(it for it, _ in runs) * per_job,
        "diffusion.run_filter.converged_frac": (
            sum(1 for _, ok in runs if ok) / len(runs) if runs else 0.0),
        "diffusion.run_filter.ms_p50": statistics.median(durations["diffusion.run_filter"] or [0.0]),
        "diffusion.run_filter.ms_tail": ms_tail,
        "diffusion.adaptive_update.ms_p50": statistics.median(
            durations["diffusion.adaptive_update"] or [0.0]),
        "fileio.read_mib": sum(infos["fileio.read_volume"]) / 2**20 * per_job,
        "fileio.write_mib": (sum(infos["fileio.write_volume"])
                             + sum(infos["fileio.export_pgm"])) / 2**20 * per_job,
        "trace.overhead_frac": overhead_frac,
    }
    for layer in LAYERS:
        values[f"{layer}.errors"] = errors[layer]
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".self_s"):
            value = self_ns[name[: -len(".self_s")]] / 1e9 * per_job
        elif name.endswith(".total_s"):
            value = total_ns[name[: -len(".total_s")]] / 1e9 * per_job
        else:  # .calls
            value = calls[name[: -len(".calls")]] * per_job
        metrics[name] = {"value": value, "unit": unit}

    notes = {
        "diffusion.run_filter.ms_tail": f"p{tail_pct:.1f} of "
                                        f"{len(durations['diffusion.run_filter'])} calls",
        "routes_s_p50": {r: statistics.median(v) for r, v in sorted(routes.items())},
    }
    return metrics, notes
