"""Command-line front end.

Every subcommand reads options from flags, an optional ``key = value``
config file (``#`` starts a comment), and built-in defaults, in that
precedence order, then writes a manifest listing every effective parameter
next to its primary output. Manifests are themselves valid config files, so
any run can be reproduced with ``--config <manifest>``.

Exit codes: 0 success, 1 I/O failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .diffusion import (
    AdaptiveParams,
    HysteresisParams,
    PMParams,
    _directional_ad_stack,
    _filter_stack,
    _orthogonal_stack,
    _pm_stack,
    _stacks,
    _weights_finite,
    default_delta,
    hysteresis_filter,
    run_filter,
)
from .fileio import (VolumeIOError, VolumeWriter, _commit, _read_slices, _write_text,
                     export_pgm, write_volume)
from .metrics import Roi, contrast_per_pixel, contrast_ratio, psnr_vs_input, psnr_vs_reference
from .phantom import (
    ChannelSpec,
    PhantomSpec,
    TubeSpec,
    _flow,
    _metadata,
    _passes,
)
from .phased_array import _check_sigma, _pc_stream, combine_flow, pa_combine
from .projection import PhaseMaskParams, project_slices, swi_pipeline

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """Invalid option value, unknown key, or missing requirement."""


@dataclass(frozen=True)
class Opt:
    name: str
    kind: str  # int | float | str | bool | floats
    default: object = None
    required: bool = False
    help: str = ""
    choices: tuple | None = None


def _to_bool(raw) -> bool:
    if isinstance(raw, bool):
        return raw
    low = str(raw).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def _convert(opt: Opt, raw):
    if raw is None:
        return None
    try:
        if opt.kind == "int":
            value = int(str(raw))
        elif opt.kind == "float":
            value = float(str(raw))
        elif opt.kind == "bool":
            value = _to_bool(raw)
        elif opt.kind == "floats":
            value = tuple(float(t) for t in str(raw).split(",") if t.strip())
        else:
            value = str(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"option '{opt.name}': cannot parse {raw!r}") from exc
    if opt.choices is not None and value not in opt.choices:
        raise ConfigError(
            f"option '{opt.name}': {value!r} not one of {sorted(opt.choices)}"
        )
    return value


def parse_config(path) -> dict:
    """Read a ``key = value`` file; '#' comments and blank lines are skipped."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = body.partition("=")
        values[key.strip()] = raw.strip()
    return values


def _resolve(opts: list[Opt], cli_values: dict, config_path) -> dict:
    table = {o.name: o for o in opts}
    merged: dict[str, object] = {}
    if config_path:
        file_values = parse_config(config_path)
        for key, raw in file_values.items():
            if key == "config":
                raise ConfigError("option 'config' cannot be set from a config file")
            if key not in table:
                raise ConfigError(f"unknown config key '{key}'")
            merged[key] = _convert(table[key], raw)
    for key, raw in cli_values.items():
        if raw is None:
            continue
        merged[key] = _convert(table[key], raw)
    for opt in opts:
        if opt.name not in merged:
            if opt.required:
                raise ConfigError(f"option '{opt.name}' is required")
            merged[opt.name] = opt.default
        value = merged[opt.name]  # must read back from the manifest as it is
        if isinstance(value, str) and ("#" in value or value != value.strip()
                                       or len(value.splitlines()) > 1):
            raise ConfigError(f"option '{opt.name}': {value!r} holds '#' or a line break,"
                              " or starts or ends with whitespace")
    return merged


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _slices(path, inputs: list):
    """The shape (nz, ny, nx) of the MIPVOL file at ``path``, read from its
    header now, and a generator of its slices (``iter_slices(path)``) that
    appends ``(path, sha256)`` to ``inputs`` once the last slice is read."""
    h = hashlib.sha256()
    reader = _read_slices(path, h)
    shape = next(reader)

    def slices():
        yield from reader
        inputs.append((path, h.hexdigest()))

    return shape, slices()


def _project_each(slices, shape, fns, kind: str) -> np.ndarray:
    """Row j is the ``kind`` projection of ``fns[j](stack)`` over the
    ``slices`` of a volume of ``shape``, which ``diffusion._stacks`` copies
    into float64 stacks: each stack's results fill one reused block of
    (len(fns), ny, nx) rows per slice, and one ``project_slices`` folds
    them slice by slice, in order."""
    block = None

    def rows():
        nonlocal block
        for stack in _stacks(slices):
            if block is None:  # the first stack is the largest
                block = np.empty((len(stack), len(fns), *shape[1:]))
            res = block[: len(stack)]
            for j, fn in enumerate(fns):
                res[:, j] = fn(stack)
            yield from res

    return project_slices(rows(), kind)


def _image(path, inputs: list) -> np.ndarray:
    """The one slice of the MIPVOL file at ``path`` as a float64 image,
    converted once."""
    shape, slices = _slices(path, inputs)
    if shape[0] != 1:
        raise ConfigError(f"expected a single-slice volume, got depth {shape[0]}")
    (img,) = slices  # reads to the end, so the digest covers the whole file
    return np.array(img, dtype=np.float64)


def write_manifest(path, command: str, values: dict, inputs: list) -> None:
    """Record every effective option plus the ``(path, sha256)`` pairs of
    ``inputs``, config-file style. Each digest was taken when the command
    read its file, so no input is read again here."""
    _write_text(path, [
        f"# mipdiff {__version__} manifest",
        f"# subcommand: {command}",
        *(f"# input sha256 {digest} {p}" for p, digest in inputs),
        *(f"{key} = {_fmt_value(value)}" for key, value in values.items() if value is not None),
    ])


def _fmt_metric(v: float) -> str:
    if math.isinf(v):
        return "identical" if v > 0 else "-inf"
    return np.format_float_positional(v, trim="-")


def write_metrics_csv(path, rows) -> None:
    """Rows of (method, psnr_input, psnr_ref, cr, cpp)."""
    lines = [",".join([method, *map(_fmt_metric, figures)]) for method, *figures in rows]
    _write_text(path, ["method,psnr_input,psnr_ref,cr,cpp", *lines])


def _metrics_row(method: str, base, ref, test, roi: Roi | None = None) -> tuple:
    """One ``write_metrics_csv`` row scoring ``test`` against the input
    ``base`` and the reference ``ref``; where ``ref`` is ``base``, the one
    PSNR serves both, as ``psnr_vs_reference`` is ``psnr_vs_input``."""
    psnr = psnr_vs_input(base, test, roi)
    return (
        method,
        psnr,
        psnr if ref is base else psnr_vs_reference(ref, test, roi),
        contrast_ratio(test, roi),
        contrast_per_pixel(test),
    )


def _write_image(v: dict, command: str, img, path, baseline=None) -> str:
    """Write ``img`` to ``path``, the optional ``--pgm`` preview and the
    optional one-row ``--metrics-csv`` scoring ``img`` against
    ``baseline()``, called only for it, as both input and reference; return
    the manifest path ``<path>.manifest.txt``."""
    write_volume(img, path)
    if v["pgm"]:
        export_pgm(img, v["pgm"])
    if v.get("metrics_csv"):
        base = baseline()
        write_metrics_csv(v["metrics_csv"], [_metrics_row(command, base, base, img)])
    return f"{path}.manifest.txt"


def _parse_roi(raw) -> Roi | None:
    if not raw:
        return None
    parts = [p.strip() for p in str(raw).split(",")]
    if len(parts) != 4:
        raise ConfigError(f"roi must be 'x0,y0,width,height', got {raw!r}")
    try:
        x0, y0, w, h = (int(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"roi has non-integer entries: {raw!r}") from exc
    return Roi(x0, y0, w, h)


def _params(cls, v: dict, **given):
    """``cls`` with each field taken from ``given``, or else from the option
    of the same name in ``v``."""
    return cls(**{f.name: given[f.name] if f.name in given else v[f.name]
                  for f in fields(cls)})


def cmd_phantom(v: dict, inputs: list) -> str:
    tube_y = v["tube_y"] if v["tube_y"] is not None else (v["height"] - 1) / 2.0
    tube_z = v["tube_z"] if v["tube_z"] is not None else (v["depth"] - 1) / 2.0
    if v["channels"] < 0:
        raise ConfigError(f"channels must be >= 0, got {v['channels']}")
    if v["channel_sigmas"] and not v["channels"]:
        raise ConfigError("channel_sigmas needs channels >= 1")
    sigmas = v["channel_sigmas"] or (v["noise_sigma"],) * v["channels"]
    if len(sigmas) != v["channels"]:
        raise ConfigError(f"got {len(sigmas)} channel_sigmas for {v['channels']} channels")
    tube = _params(TubeSpec, v, points=((0.0, tube_y, tube_z), (v["width"] - 1.0, tube_y, tube_z)))
    # the spec checks --noise-sigma before the channel sigmas it defaults
    spec = _params(PhantomSpec, v, tubes=(tube,), channels=None)
    if sigmas:
        spec = replace(spec, channels=ChannelSpec(sigmas=sigmas))
    if v["flow"] and not sigmas:
        raise ConfigError("flow output needs channels >= 1")
    out_dir = Path(v["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / v["stem"]
    shape = (spec.depth, spec.height, spec.width)
    passes = _passes(spec)
    tops = (-np.inf, -np.inf)  # max projections of clean and mask, for --flow
    outs = [VolumeWriter(f"{stem}_{name}.vol", shape) for name in ("clean", "noisy", "mask")]
    with outs[0], outs[1], outs[2]:
        for clean, noisy, mask in next(passes):
            for out, sl in zip(outs, (clean, noisy, mask)):
                out.write(sl)
            if v["flow"]:
                tops = np.maximum(tops[0], clean), np.maximum(tops[1], mask)
    if v["flow"]:
        # each image is written as it is made; the channel passes are not run
        for name, img in _flow(spec, *tops):
            write_volume(img, f"{stem}_{name}.vol")
    else:
        for k, slices in enumerate(passes, start=1):
            with VolumeWriter(f"{stem}_c{k}.vol", shape) as out:
                for sl in slices:
                    out.write(sl)
    if sigmas:
        _write_text(f"{stem}_sigma.txt", [repr(float(s)) for s in sigmas])
    _write_text(f"{stem}_meta.txt", [f"{k} = {_fmt_value(x)}" for k, x in _metadata(spec).items()])
    return f"{stem}_manifest.txt"


def cmd_filter(v: dict, inputs: list) -> str:
    params = _params(AdaptiveParams, v)
    shape, slices = _slices(v["input"], inputs)
    stem = Path(v["output"]).with_suffix("")
    with VolumeWriter(v["output"], shape) as out:
        k = 0
        for stack in _stacks(slices):
            filtered, traces = _filter_stack(stack, params)
            for sl, trace in zip(filtered, traces):
                out.write(sl)
                if v["trace"]:
                    rows = [f"{i},{np.format_float_positional(r, trim='-')}"
                            for i, r in enumerate(trace.relative_changes, start=1)]
                    _write_text(f"{stem}_trace_s{k}.csv", ["iteration,relative_change", *rows])
                k += 1
    return f"{v['output']}.manifest.txt"


def cmd_project(v: dict, inputs: list) -> str:
    img = project_slices(_slices(v["input"], inputs)[1], v["kind"])
    return _write_image(v, "project", img, v["output"])


def cmd_swi(v: dict, inputs: list) -> str:
    shape, mags = _slices(v["magnitude"], inputs)
    phase_shape, phases = _slices(v["phase"], inputs)
    if shape != phase_shape:
        raise ConfigError(f"magnitude {shape} and phase {phase_shape} differ")
    params = _params(AdaptiveParams, v, mode="mip_min")
    mask_params = PhaseMaskParams(exponent=v["mask_exponent"])
    # the unfiltered min projection, for --metrics-csv: the reader's float32
    # slices are folded in float32, which is exact, and widened once
    plain = np.full(shape[1:], np.inf, dtype=np.float32)

    def folded(slices):
        for sl in slices:
            np.minimum(plain, sl, out=plain)
            yield sl

    result = swi_pipeline(folded(mags), phases, params, mask_params,
                          mask_before_projection=v["mask_before_projection"])
    return _write_image(v, "swi", result, v["output"], lambda: plain.astype(np.float64))


def cmd_mip(v: dict, inputs: list) -> str:
    projected = project_slices(_slices(v["input"], inputs)[1], "max")
    params = _params(AdaptiveParams, v, mode="mip")
    if v["hysteresis"]:
        result, _, _ = hysteresis_filter(projected, params, _params(HysteresisParams, v))
    else:
        result, _ = run_filter(projected, params)
    return _write_image(v, "mip", result, v["output"], lambda: projected)


def _read_sigma_file(path, channels: int, inputs: list):
    """The sigmas listed in ``path``, appending ``(path, sha256)`` of the
    parsed bytes to ``inputs``."""
    data = Path(path).read_bytes()
    inputs.append((path, hashlib.sha256(data).hexdigest()))
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"--sigma-file {path}: not UTF-8 text "
                          f"(byte {exc.start}: {exc.reason})") from exc
    try:
        sigmas = [float(t) for t in text.split()]
    except ValueError as exc:
        raise ConfigError(f"sigma file {path}: non-numeric entry") from exc
    if len(sigmas) != channels:
        raise ConfigError(
            f"sigma file {path} lists {len(sigmas)} values for {channels} channels"
        )
    if not all(0 < s < math.inf for s in sigmas):
        raise ConfigError(f"--sigma-file {path}: sigma values must be finite and positive")
    return sigmas


def cmd_pc(v: dict, inputs: list) -> str:
    if v["channels"] < 1:
        raise ConfigError(f"channels must be >= 1, got {v['channels']}")
    # each coil's x, y and z images are merged as they are read; only the merge is kept
    stem = v["input_stem"]
    merged = [combine_flow(*([_image(f"{stem}_c{k}_{axis}.vol", inputs)] for axis in "xyz"),
                           v["flow_mode"])[0]
              for k in range(1, v["channels"] + 1)]
    sigma = _read_sigma_file(v["sigma_file"], v["channels"], inputs) if v["sigma_file"] else None
    if sigma is not None:
        try:
            _check_sigma(merged, sigma)
        except ValueError as exc:
            raise ConfigError(f"--sigma-file {v['sigma_file']}: {exc}") from exc
    params = _params(AdaptiveParams, v, mode="mip")
    # each channel is written as it is made; inside main's commit, a later
    # failure still leaves none of them
    stream = _pc_stream(merged, pa_combine(merged, sigma), params, sigma)
    for k in range(1, len(merged) + 1):
        write_volume(next(stream), f"{v['out_stem']}_c{k}.vol")
    # the baseline is recomputed, 4-5 ms for four 512² coils; kept from
    # _pc_stream through the channels' runs, it raised the traced peak 29.06 -> 31.06 MiB
    return _write_image(v, "pc", next(stream), f"{v['out_stem']}_combined.vol",
                        lambda: pa_combine(merged, sigma))


def cmd_metrics(v: dict, inputs: list) -> str:
    if "," in v["method"] or '"' in v["method"]:
        raise ConfigError(f"option 'method': {v['method']!r} holds a comma or a double quote")
    base = _image(v["input"], inputs)
    test = _image(v["test"], inputs)
    ref = base if v["reference"] is None else _image(v["reference"], inputs)
    roi = _parse_roi(v["roi"])
    write_metrics_csv(v["output"], [_metrics_row(v["method"], base, ref, test, roi)])
    return f"{v['output']}.manifest.txt"


def cmd_compare(v: dict, inputs: list) -> str:
    shape, slices = _slices(v["input"], inputs)
    if v["reference"] is not None:
        ref_shape, ref_slices = _slices(v["reference"], inputs)
        if ref_shape != shape:
            raise ConfigError(f"reference shape {ref_shape} differs from input {shape}")
    # the default delta needs the input's whole range before any slice is
    # filtered, so its slices are kept, as float32 as they were read; the
    # reader has checked them all by then
    noisy = [sl.copy() for sl in slices]
    kind = v["kind"]
    base_proj = project_slices(noisy, kind)
    ref_proj = base_proj if v["reference"] is None else project_slices(ref_slices, kind)
    roi = _parse_roi(v["roi"])
    if roi is not None:
        roi.crop(base_proj)  # refuse a window that does not fit before filtering
    lo, hi = float(min(map(np.min, noisy))), float(max(map(np.max, noisy)))
    delta = v["delta"]
    if delta is None:
        delta = default_delta([[lo, hi]])
    pm_params = _params(PMParams, v, delta=delta)
    # every difference and gradient norm of the input lies within its span
    if not _weights_finite(pm_params, hi - lo):
        raise ConfigError(f"--delta {delta!r} is too small for the input's range "
                          f"{hi - lo!r}: the PM weights overflow")
    adaptive = _params(AdaptiveParams, v, mode="mip_min" if kind == "min" else "mip")
    methods = {
        "pm": lambda st: _pm_stack(st, pm_params),
        "orthogonal": lambda st: _orthogonal_stack(st, pm_params),
        "directional": lambda st: _directional_ad_stack(st, pm_params, v["grad_threshold"]),
        "proposed": lambda st: _filter_stack(st, adaptive)[0],
    }
    folded = _project_each(noisy, shape, list(methods.values()), kind)
    rows = [_metrics_row(name, base_proj, ref_proj, img, roi)
            for name, img in zip(methods, folded)]
    write_metrics_csv(v["output"], rows)
    return f"{v['output']}.manifest.txt"


def cmd_alpha_sweep(v: dict, inputs: list) -> str:
    shape, slices = _slices(v["input"], inputs)
    if not v["alphas"]:
        raise ConfigError("alphas must list at least one value")
    kind = "min" if v["mode"] == "mip_min" else "max"
    alphas = sorted(v["alphas"])
    gains = [_params(AdaptiveParams, v, alpha=alpha) for alpha in alphas]
    # row 0 folds the input slices, row k their filtered results at the k-th gain
    filters = [lambda st, params=params: _filter_stack(st, params)[0] for params in gains]
    folded = _project_each(slices, shape, [np.asarray, *filters], kind)
    rows = [f"{_fmt_value(float(alpha))},{_fmt_metric(psnr_vs_input(folded[0], img))}"
            for alpha, img in zip(alphas, folded[1:])]
    _write_text(v["output"], ["alpha,psnr_input", *rows])
    return f"{v['output']}.manifest.txt"


_FILTER_OPTS = [
    Opt("alpha", "float", AdaptiveParams.alpha, help="adaptive gain (0 = identity)"),
    Opt("step", "float", AdaptiveParams.step, help="explicit update step size"),
    Opt("tolerance", "float", AdaptiveParams.tolerance, help="relative L2 stopping change"),
    Opt("max_iterations", "int", AdaptiveParams.max_iterations, help="iteration cap"),
    Opt("tail_prob", "float", AdaptiveParams.tail_prob,
        help="total tail mass excluded by mip-mode bounds"),
]
_MODE_OPT = Opt("mode", "str", AdaptiveParams.mode, choices=("mip", "mip_min"))
# the optional outputs of swi, mip and pc, last in each, as manifests list them
_OUTPUT_OPTS = [Opt("pgm", "str", None), Opt("metrics_csv", "str", None)]

# name -> (handler, options); each handler fills the inputs list it is given
# and returns its manifest path; main writes the manifest and commits it last.
COMMANDS: dict[str, tuple] = {
    "phantom": (cmd_phantom, [
        Opt("out_dir", "str", required=True, help="directory for outputs"),
        Opt("stem", "str", "phantom", help="file-name stem"),
        Opt("width", "int", PhantomSpec.width),
        Opt("height", "int", PhantomSpec.height),
        Opt("depth", "int", PhantomSpec.depth),
        Opt("tube_y", "float", None, help="tube row (default: image centre)"),
        Opt("tube_z", "float", None, help="tube slice (default: mid depth)"),
        Opt("radius", "float", TubeSpec.radius, help="tube radius in pixels"),
        Opt("contrast", "float", TubeSpec.contrast, help="signed tube contrast"),
        Opt("baseline_amplitude", "float", PhantomSpec.baseline_amplitude,
            help="smooth baseline modulation"),
        Opt("noise_sigma", "float", PhantomSpec.noise_sigma, help="white-noise sigma"),
        Opt("seed", "int", PhantomSpec.seed, help="generator seed"),
        Opt("channels", "int", 0, help="coil channel count (0 = none)"),
        Opt("channel_sigmas", "floats", (), help="per-channel noise sigmas"),
        Opt("flow", "bool", False, help="emit per-channel X/Y/Z flow projections"),
    ]),
    "filter": (cmd_filter, [
        Opt("input", "str", required=True, help="input MIPVOL path"),
        Opt("output", "str", required=True, help="filtered MIPVOL path"),
        _MODE_OPT,
        *_FILTER_OPTS,
        Opt("trace", "bool", False, help="write per-slice iteration traces"),
    ]),
    "project": (cmd_project, [
        Opt("input", "str", required=True),
        Opt("output", "str", required=True),
        Opt("kind", "str", "min", choices=("min", "max")),
        Opt("pgm", "str", None, help="optional PGM preview path"),
    ]),
    "swi": (cmd_swi, [
        Opt("magnitude", "str", required=True, help="magnitude MIPVOL path"),
        Opt("phase", "str", required=True, help="phase MIPVOL path (radians)"),
        Opt("output", "str", required=True, help="enhanced projection MIPVOL path"),
        *_FILTER_OPTS,
        Opt("mask_exponent", "int", PhaseMaskParams.exponent,
            help="negative-phase mask exponent"),
        Opt("mask_before_projection", "bool", False, help="weight slices before projecting"),
        *_OUTPUT_OPTS,
    ]),
    "mip": (cmd_mip, [
        Opt("input", "str", required=True),
        Opt("output", "str", required=True),
        *_FILTER_OPTS,
        Opt("hysteresis", "bool", False, help="combine a low- and high-gain pass"),
        Opt("alpha_low", "float", HysteresisParams.alpha_low),
        Opt("alpha_high", "float", HysteresisParams.alpha_high),
        Opt("c_threshold", "float", HysteresisParams.c_threshold,
            help="structureness cut (default: 90th percentile)"),
        *_OUTPUT_OPTS,
    ]),
    "pc": (cmd_pc, [
        Opt("input_stem", "str", required=True, help="stem of <stem>_c<k>_{x,y,z}.vol files"),
        Opt("channels", "int", required=True),
        Opt("out_stem", "str", required=True),
        Opt("sigma_file", "str", None, help="per-channel sigma list, one value per line"),
        Opt("flow_mode", "str", "sum", choices=("sum", "magnitude")),
        *_FILTER_OPTS,
        *_OUTPUT_OPTS,
    ]),
    "metrics": (cmd_metrics, [
        Opt("input", "str", required=True, help="baseline image (1-slice MIPVOL)"),
        Opt("test", "str", required=True, help="image under evaluation"),
        Opt("reference", "str", None, help="ground-truth image (default: input)"),
        Opt("roi", "str", None, help="x0,y0,width,height"),
        Opt("output", "str", required=True, help="metrics CSV path"),
        Opt("method", "str", "image", help="row label"),
    ]),
    "compare": (cmd_compare, [
        Opt("input", "str", required=True, help="noisy volume"),
        Opt("reference", "str", None, help="clean volume (default: input)"),
        Opt("output", "str", required=True, help="metrics CSV path"),
        Opt("roi", "str", None),
        Opt("kind", "str", "min", choices=("min", "max")),
        Opt("delta", "float", None, help="contrast scale (default: 10%% of the input's range)"),
        Opt("dt", "float", PMParams.dt),
        Opt("iterations", "int", PMParams.iterations,
            help="steps for the scalar-diffusivity filters"),
        Opt("diffusivity_kind", "str", PMParams.diffusivity_kind,
            choices=("rational", "exponential")),
        Opt("grad_threshold", "float", None, help="edge switch (default: 90th percentile)"),
        *_FILTER_OPTS,
    ]),
    "alpha-sweep": (cmd_alpha_sweep, [
        Opt("input", "str", required=True),
        Opt("output", "str", required=True, help="alpha,psnr_input CSV path"),
        Opt("alphas", "floats", (1.0, 2.0, 4.0, 8.0, 16.0)),
        _MODE_OPT,
        *_FILTER_OPTS[1:],  # all but alpha, which --alphas sweeps
    ]),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipdiff",
        description="directional diffusion filtering for intensity-projected volumes",
    )
    parser.add_argument("--version", action="version", version=f"mipdiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, opts) in COMMANDS.items():
        p = sub.add_parser(command)
        p.add_argument("--config", help="key = value file of option values")
        for opt in opts:
            flag = "--" + opt.name.replace("_", "-")
            if opt.kind == "bool":
                p.add_argument(flag, dest=opt.name, action="store_const", const="true",
                               default=None, help=opt.help)
            else:
                p.add_argument(flag, dest=opt.name, default=None, help=opt.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    handler, opts = COMMANDS[command]
    cli_values = {o.name: getattr(args, o.name) for o in opts}
    try:
        values = _resolve(opts, cli_values, args.config)
        inputs = []
        with _commit():
            write_manifest(handler(values, inputs), command, values, inputs)
    except ConfigError as exc:
        print(f"mipdiff {command}: config error: {exc}", file=sys.stderr)
        return 2
    except (VolumeIOError, OSError) as exc:
        print(f"mipdiff {command}: i/o error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"mipdiff {command}: config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
