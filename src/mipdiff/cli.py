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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .diffusion import (
    DEFAULT_ALPHA,
    AdaptiveParams,
    HysteresisParams,
    PMParams,
    default_delta,
    hysteresis_filter,
    run_directional_ad,
    run_filter,
    run_orthogonal,
    run_pm,
)
from .fileio import (
    VolumeIOError,
    export_pgm,
    field_from_volume,
    iter_slices,
    read_volume,
    write_volume,
)
from .metrics import Roi, contrast_per_pixel, contrast_ratio, psnr_vs_input, psnr_vs_reference
from .phantom import ChannelSpec, PhantomSpec, TubeSpec, generate, generate_flow
from .phased_array import combine_flow, pa_combine, pc_pipeline
from .projection import PhaseMaskParams, project, project_slices, swi_pipeline

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
    return merged


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _fmt_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(repr(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _read(path, inputs: list) -> np.ndarray:
    """``read_volume(path)``, appending ``(path, sha256)`` to ``inputs`` with
    the digest taken in the same pass."""
    h = hashlib.sha256()
    vol = read_volume(path, h)
    inputs.append((path, h.hexdigest()))
    return vol


def _slices(path, inputs: list):
    """``iter_slices(path)``, appending ``(path, sha256)`` to ``inputs`` once
    the last slice is read."""
    h = hashlib.sha256()
    yield from iter_slices(path, h)
    inputs.append((path, h.hexdigest()))


def write_manifest(path, command: str, values: dict, inputs: list) -> None:
    """Record every effective option plus the ``(path, sha256)`` pairs of
    ``inputs``, config-file style. Each digest was taken when the command
    read its file, so no input is read again here."""
    lines = [
        f"# mipdiff {__version__} manifest",
        f"# subcommand: {command}",
    ]
    for p, digest in inputs:
        lines.append(f"# input sha256 {digest} {p}")
    for key, value in values.items():
        if key == "config" or value is None:
            continue
        lines.append(f"{key} = {_fmt_value(value)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _fmt_metric(v: float) -> str:
    if math.isinf(v):
        return "identical" if v > 0 else "-inf"
    return np.format_float_positional(v, trim="-")


def write_metrics_csv(path, rows) -> None:
    """Rows of (method, psnr_input, psnr_ref, cr, cpp)."""
    lines = ["method,psnr_input,psnr_ref,cr,cpp"]
    for method, p_in, p_ref, cr, cpp in rows:
        lines.append(
            f"{method},{_fmt_metric(p_in)},{_fmt_metric(p_ref)},"
            f"{_fmt_metric(cr)},{_fmt_metric(cpp)}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def _metrics_row(method: str, base, ref, test, roi: Roi | None = None) -> tuple:
    """One ``write_metrics_csv`` row scoring ``test`` against the input
    ``base`` and the reference ``ref``."""
    return (
        method,
        psnr_vs_input(base, test, roi),
        psnr_vs_reference(ref, test, roi),
        contrast_ratio(test, roi),
        contrast_per_pixel(test),
    )


def _write_image(v: dict, command: str, img, path, inputs: list, baseline) -> None:
    """Write ``img`` to ``path``, then the optional ``--pgm`` preview, then the
    optional one-row ``--metrics-csv`` scoring ``img`` against
    ``baseline()``, called only then, as both input and reference, then
    ``<path>.manifest.txt``."""
    write_volume(img, path)
    if v["pgm"]:
        export_pgm(img, v["pgm"])
    if v["metrics_csv"]:
        base = baseline()
        write_metrics_csv(v["metrics_csv"], [_metrics_row(command, base, base, img)])
    write_manifest(f"{path}.manifest.txt", command, v, inputs)


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


def _adaptive_params(v: dict, mode: str) -> AdaptiveParams:
    return AdaptiveParams(
        alpha=v["alpha"],
        mode=mode,
        tail_prob=v["tail_prob"],
        tolerance=v["tolerance"],
        max_iterations=v["max_iterations"],
        step=v["step"],
    )


_FILTER_OPTS = [
    Opt("alpha", "float", DEFAULT_ALPHA, help="adaptive gain (0 = identity)"),
    Opt("step", "float", 0.2, help="explicit update step size"),
    Opt("tolerance", "float", 1e-4, help="relative L2 stopping change"),
    Opt("max_iterations", "int", 6, help="iteration cap"),
    Opt("tail_prob", "float", 0.05, help="total tail mass excluded by mip-mode bounds"),
]

COMMANDS: dict[str, list[Opt]] = {
    "phantom": [
        Opt("config", "str"),
        Opt("out_dir", "str", required=True, help="directory for outputs"),
        Opt("stem", "str", "phantom", help="file-name stem"),
        Opt("width", "int", 64),
        Opt("height", "int", 64),
        Opt("depth", "int", 32),
        Opt("tube_y", "float", None, help="tube row (default: image centre)"),
        Opt("tube_z", "float", None, help="tube slice (default: mid depth)"),
        Opt("radius", "float", 2.0, help="tube radius in pixels"),
        Opt("contrast", "float", -0.2, help="signed tube contrast"),
        Opt("baseline_amplitude", "float", 0.0, help="smooth baseline modulation"),
        Opt("noise_sigma", "float", 0.05, help="white-noise sigma"),
        Opt("seed", "int", 1234, help="generator seed"),
        Opt("channels", "int", 0, help="coil channel count (0 = none)"),
        Opt("channel_sigmas", "floats", (), help="per-channel noise sigmas"),
        Opt("flow", "bool", False, help="emit per-channel X/Y/Z flow projections"),
    ],
    "filter": [
        Opt("config", "str"),
        Opt("input", "str", required=True, help="input MIPVOL path"),
        Opt("output", "str", required=True, help="filtered MIPVOL path"),
        Opt("mode", "str", "mip_min", choices=("mip", "mip_min")),
        *_FILTER_OPTS,
        Opt("trace", "bool", False, help="write per-slice iteration traces"),
    ],
    "project": [
        Opt("config", "str"),
        Opt("input", "str", required=True),
        Opt("output", "str", required=True),
        Opt("kind", "str", "min", choices=("min", "max")),
        Opt("pgm", "str", None, help="optional PGM preview path"),
    ],
    "swi": [
        Opt("config", "str"),
        Opt("magnitude", "str", required=True, help="magnitude MIPVOL path"),
        Opt("phase", "str", required=True, help="phase MIPVOL path (radians)"),
        Opt("output", "str", required=True, help="enhanced projection MIPVOL path"),
        *_FILTER_OPTS,
        Opt("mask_exponent", "int", 4, help="negative-phase mask exponent"),
        Opt("mask_before_projection", "bool", False, help="weight slices before projecting"),
        Opt("pgm", "str", None),
        Opt("metrics_csv", "str", None),
    ],
    "mip": [
        Opt("config", "str"),
        Opt("input", "str", required=True),
        Opt("output", "str", required=True),
        *_FILTER_OPTS,
        Opt("hysteresis", "bool", False, help="combine a low- and high-gain pass"),
        Opt("alpha_low", "float", 0.5),
        Opt("alpha_high", "float", 2.0),
        Opt("c_threshold", "float", None, help="structureness cut (default: 90th percentile)"),
        Opt("pgm", "str", None),
        Opt("metrics_csv", "str", None),
    ],
    "pc": [
        Opt("config", "str"),
        Opt("input_stem", "str", required=True, help="stem of <stem>_c<k>_{x,y,z}.vol files"),
        Opt("channels", "int", required=True),
        Opt("out_stem", "str", required=True),
        Opt("sigma_file", "str", None, help="per-channel sigma list, one value per line"),
        Opt("flow_mode", "str", "sum", choices=("sum", "magnitude")),
        *_FILTER_OPTS,
        Opt("pgm", "str", None),
        Opt("metrics_csv", "str", None),
    ],
    "metrics": [
        Opt("config", "str"),
        Opt("input", "str", required=True, help="baseline image (1-slice MIPVOL)"),
        Opt("test", "str", required=True, help="image under evaluation"),
        Opt("reference", "str", None, help="ground-truth image (default: input)"),
        Opt("roi", "str", None, help="x0,y0,width,height"),
        Opt("output", "str", required=True, help="metrics CSV path"),
        Opt("method", "str", "image", help="row label"),
    ],
    "compare": [
        Opt("config", "str"),
        Opt("input", "str", required=True, help="noisy volume"),
        Opt("reference", "str", None, help="clean volume (default: input)"),
        Opt("output", "str", required=True, help="metrics CSV path"),
        Opt("roi", "str", None),
        Opt("kind", "str", "min", choices=("min", "max")),
        Opt("delta", "float", None, help="contrast scale (default: 10% of slice range)"),
        Opt("dt", "float", 0.25),
        Opt("iterations", "int", 10, help="steps for the scalar-diffusivity filters"),
        Opt("diffusivity_kind", "str", "rational", choices=("rational", "exponential")),
        Opt("grad_threshold", "float", None, help="edge switch (default: 90th percentile)"),
        *_FILTER_OPTS,
    ],
    "alpha-sweep": [
        Opt("config", "str"),
        Opt("input", "str", required=True),
        Opt("output", "str", required=True, help="alpha,psnr_input CSV path"),
        Opt("alphas", "floats", (1.0, 2.0, 4.0, 8.0, 16.0)),
        Opt("mode", "str", "mip_min", choices=("mip", "mip_min")),
        *_FILTER_OPTS[1:],  # all but alpha, which --alphas sweeps
    ],
}


def _filter_volume(vol: np.ndarray, params: AdaptiveParams, trace_stem=None) -> np.ndarray:
    """Filter each slice; with ``trace_stem``, write slice k's relative
    changes to ``<trace_stem>_trace_s<k>.csv`` as soon as it is done, so no
    slice's trace outlives its loop step."""
    filtered = np.empty_like(vol)
    for k, sl in enumerate(vol):
        filtered[k], trace = run_filter(sl, params)
        if trace_stem is not None:
            trace.to_csv(f"{trace_stem}_trace_s{k}.csv")
    return filtered


def cmd_phantom(v: dict) -> None:
    tube_y = v["tube_y"] if v["tube_y"] is not None else (v["height"] - 1) / 2.0
    tube_z = v["tube_z"] if v["tube_z"] is not None else (v["depth"] - 1) / 2.0
    channels = None
    if v["channels"] > 0:
        sigmas = v["channel_sigmas"] or tuple([v["noise_sigma"]] * v["channels"])
        if len(sigmas) != v["channels"]:
            raise ConfigError(
                f"got {len(sigmas)} channel_sigmas for {v['channels']} channels"
            )
        channels = ChannelSpec(sigmas=tuple(sigmas))
    spec = PhantomSpec(
        width=v["width"],
        height=v["height"],
        depth=v["depth"],
        baseline_amplitude=v["baseline_amplitude"],
        tubes=(
            TubeSpec(
                points=((0.0, tube_y, tube_z), (v["width"] - 1.0, tube_y, tube_z)),
                radius=v["radius"],
                contrast=v["contrast"],
            ),
        ),
        noise_sigma=v["noise_sigma"],
        seed=v["seed"],
        channels=channels,
    )
    if v["flow"] and channels is None:
        raise ConfigError("flow output needs channels >= 1")
    out_dir = Path(v["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / v["stem"]
    out = generate(spec, build_channels=not v["flow"])
    write_volume(out.clean, f"{stem}_clean.vol")
    write_volume(out.noisy, f"{stem}_noisy.vol")
    write_volume(out.truth_mask, f"{stem}_mask.vol")
    if v["flow"]:
        flow = generate_flow(spec, phantom=out)
        for k in range(len(channels.sigmas)):
            for axis in ("x", "y", "z"):
                write_volume(flow[axis][k], f"{stem}_c{k + 1}_{axis}.vol")
        write_volume(flow["clean"], f"{stem}_flow_clean.vol")
        write_volume(flow["mask"], f"{stem}_flow_mask.vol")
    elif channels is not None:
        for k, ch in enumerate(out.channels, start=1):
            write_volume(ch, f"{stem}_c{k}.vol")
    if channels is not None:
        sigma_lines = [repr(float(s)) for s in channels.sigmas]
        Path(f"{stem}_sigma.txt").write_text("\n".join(sigma_lines) + "\n")
    meta_lines = [f"{k} = {_fmt_value(val)}" for k, val in out.metadata.items()]
    Path(f"{stem}_meta.txt").write_text("\n".join(meta_lines) + "\n")
    write_manifest(f"{stem}_manifest.txt", "phantom", v, [])


def cmd_filter(v: dict) -> None:
    inputs = []
    vol = _read(v["input"], inputs)
    params = _adaptive_params(v, v["mode"])
    trace_stem = str(Path(v["output"]).with_suffix("")) if v["trace"] else None
    write_volume(_filter_volume(vol, params, trace_stem), v["output"])
    write_manifest(f"{v['output']}.manifest.txt", "filter", v, inputs)


def cmd_project(v: dict) -> None:
    inputs = []
    img = project_slices(_slices(v["input"], inputs), v["kind"])
    write_volume(img, v["output"])
    if v["pgm"]:
        export_pgm(img, v["pgm"])
    write_manifest(f"{v['output']}.manifest.txt", "project", v, inputs)


def cmd_swi(v: dict) -> None:
    inputs = []
    mag = _read(v["magnitude"], inputs)
    phase = _read(v["phase"], inputs)
    params = _adaptive_params(v, "mip_min")
    mask_params = PhaseMaskParams(exponent=v["mask_exponent"])
    result = swi_pipeline(
        mag, phase, params, mask_params, mask_before_projection=v["mask_before_projection"]
    )
    _write_image(v, "swi", result, v["output"], inputs, lambda: project(mag, "min"))


def cmd_mip(v: dict) -> None:
    inputs = []
    projected = project_slices(_slices(v["input"], inputs), "max")
    params = _adaptive_params(v, "mip")
    if v["hysteresis"]:
        hp = HysteresisParams(
            alpha_low=v["alpha_low"],
            alpha_high=v["alpha_high"],
            c_threshold=v["c_threshold"],
        )
        result, _, _ = hysteresis_filter(projected, params, hp)
    else:
        result, _ = run_filter(projected, params)
    _write_image(v, "mip", result, v["output"], inputs, lambda: projected)


def _read_sigma_file(path, channels: int):
    try:
        sigmas = [float(t) for t in Path(path).read_text().split()]
    except ValueError as exc:
        raise ConfigError(f"sigma file {path}: non-numeric entry") from exc
    if len(sigmas) != channels:
        raise ConfigError(
            f"sigma file {path} lists {len(sigmas)} values for {channels} channels"
        )
    return sigmas


def cmd_pc(v: dict) -> None:
    stem = v["input_stem"]
    paths = [f"{stem}_c{k}_{axis}.vol"
             for k in range(1, v["channels"] + 1) for axis in ("x", "y", "z")]
    inputs = []
    fields = [field_from_volume(_read(path, inputs)) for path in paths]
    xs, ys, zs = fields[0::3], fields[1::3], fields[2::3]
    sigma = None
    if v["sigma_file"]:
        sigma = _read_sigma_file(v["sigma_file"], v["channels"])
        inputs.append((v["sigma_file"], _sha256(v["sigma_file"])))
    params = _adaptive_params(v, "mip")
    scaled, combined = pc_pipeline(xs, ys, zs, params, flow_mode=v["flow_mode"], sigma=sigma)
    for k, ch in enumerate(scaled, start=1):
        write_volume(ch, f"{v['out_stem']}_c{k}.vol")
    _write_image(v, "pc", combined, f"{v['out_stem']}_combined.vol", inputs,
                 lambda: pa_combine(combine_flow(xs, ys, zs, v["flow_mode"]), sigma))


def cmd_metrics(v: dict) -> None:
    inputs = []
    base = field_from_volume(_read(v["input"], inputs))
    test = field_from_volume(_read(v["test"], inputs))
    ref = base if v["reference"] is None else field_from_volume(_read(v["reference"], inputs))
    roi = _parse_roi(v["roi"])
    write_metrics_csv(v["output"], [_metrics_row(v["method"], base, ref, test, roi)])
    write_manifest(f"{v['output']}.manifest.txt", "metrics", v, inputs)


def _pm_params(v: dict, vol: np.ndarray) -> PMParams:
    delta = v["delta"]
    if delta is None:
        delta = default_delta(vol.reshape(-1, vol.shape[-1]))
    return PMParams(
        delta=delta,
        dt=v["dt"],
        iterations=v["iterations"],
        diffusivity_kind=v["diffusivity_kind"],
    )


def cmd_compare(v: dict) -> None:
    inputs = []
    noisy = _read(v["input"], inputs)
    reference = noisy if v["reference"] is None else _read(v["reference"], inputs)
    if reference.shape != noisy.shape:
        raise ConfigError(
            f"reference shape {reference.shape} differs from input {noisy.shape}"
        )
    roi = _parse_roi(v["roi"])
    kind = v["kind"]
    pm_params = _pm_params(v, noisy)
    adaptive = _adaptive_params(v, "mip_min" if kind == "min" else "mip")

    def per_slice(fn):
        return np.stack([fn(sl) for sl in noisy])

    methods = [
        ("pm", per_slice(lambda sl: run_pm(sl, pm_params))),
        ("orthogonal", per_slice(lambda sl: run_orthogonal(sl, pm_params))),
        (
            "directional",
            per_slice(lambda sl: run_directional_ad(sl, pm_params, v["grad_threshold"])),
        ),
        ("proposed", _filter_volume(noisy, adaptive)),
    ]
    base_proj = project(noisy, kind)
    ref_proj = project(reference, kind)
    rows = [_metrics_row(name, base_proj, ref_proj, project(filtered_vol, kind), roi)
            for name, filtered_vol in methods]
    write_metrics_csv(v["output"], rows)
    write_manifest(f"{v['output']}.manifest.txt", "compare", v, inputs)


def cmd_alpha_sweep(v: dict) -> None:
    inputs = []
    vol = _read(v["input"], inputs)
    if not v["alphas"]:
        raise ConfigError("alphas must list at least one value")
    kind = "min" if v["mode"] == "mip_min" else "max"
    base_proj = project(vol, kind)
    lines = ["alpha,psnr_input"]
    for alpha in sorted(v["alphas"]):
        params = _adaptive_params({**v, "alpha": alpha}, v["mode"])
        img = project(_filter_volume(vol, params), kind)
        lines.append(f"{_fmt_value(float(alpha))},{_fmt_metric(psnr_vs_input(base_proj, img))}")
    Path(v["output"]).write_text("\n".join(lines) + "\n", encoding="ascii")
    write_manifest(f"{v['output']}.manifest.txt", "alpha-sweep", v, inputs)


_HANDLERS = {
    "phantom": cmd_phantom,
    "filter": cmd_filter,
    "project": cmd_project,
    "swi": cmd_swi,
    "mip": cmd_mip,
    "pc": cmd_pc,
    "metrics": cmd_metrics,
    "compare": cmd_compare,
    "alpha-sweep": cmd_alpha_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipdiff",
        description="directional diffusion filtering for intensity-projected volumes",
    )
    parser.add_argument("--version", action="version", version=f"mipdiff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, opts in COMMANDS.items():
        p = sub.add_parser(command)
        for opt in opts:
            flag = "--" + opt.name.replace("_", "-")
            if opt.kind == "bool":
                p.add_argument(flag, dest=opt.name, action="store_const", const="true",
                               default=None, help=opt.help)
            else:
                p.add_argument(flag, dest=opt.name, default=None, help=opt.help)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    command = args.command
    opts = COMMANDS[command]
    cli_values = {o.name: getattr(args, o.name) for o in opts}
    try:
        values = _resolve(opts, cli_values, cli_values.get("config"))
        _HANDLERS[command](values)
    except ConfigError as exc:
        print(f"mipdiff {command}: config error: {exc}", file=sys.stderr)
        return 2
    except VolumeIOError as exc:
        print(f"mipdiff {command}: i/o error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"mipdiff {command}: i/o error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"mipdiff {command}: config error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
