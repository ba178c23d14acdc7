"""A/B comparison of two mipdiff checkouts, output by output or benchmark run
by benchmark run.

Route mode runs every command and mode of the CLI at 64x64x32 in each
tree: the phantom variants, filter, project, metrics, compare,
alpha-sweep, swi, mip and pc, FIFO inputs, and the known error cases.
filter, compare and mip --hysteresis also run at 300x60x4, where the
strip kernels split each slice into strips of 54 and 6 rows, the second
on a worker thread where the process may use two CPUs; at 64 pixels wide
every slice is one strip. Slices this small are filtered in
stacks of as many whole slices as fill a strip: filter (also traced),
compare --kind min and max, swi and alpha-sweep in both modes also run at
64x64x7, stacks of two and a last one of one, and at 40x24x9, a stack of
eight and one of one. The same routes run at 300x60x5, whose slices of two
strips each are stacks of one: where the process may use two CPUs they
run two at a time, one per thread, in two pairs, and the last one alone
with its strips on both threads. project, from a file and from a
FIFO, and swi, whose two inputs are read in lock step, also run at
256x256x8: a 2 MiB payload is more than one 1 MiB read, so each input is
hashed on a worker thread while the next slice is read, where every
smaller input is hashed inline. filter in both modes, compare --kind min
and max and mip --hysteresis also run on the 64x64x32 phantom scaled by
1e-30, by 1e30 and by 1e-39, where every sample is a float32 subnormal:
the ends of the float32 input domain, over which the strip kernels' exact
scaling by powers of two is argued.
Each command runs as a fresh ``python -m mipdiff`` process with the
tree's ``src/`` first on the path, in a work directory of its own per
tree, with the same relative paths in both, so manifests compare byte for
byte. For each command it prints the exit code, the sha256 of every file
the command wrote, the differences in standard error and every Python
warning line (``<file>:<line>: <Category>Warning: ...``) either tree's
standard error holds. It exits 1 if anything differs or either tree
warns, else 0. Giving one tree twice checks that reruns are bit-identical
and warn nowhere.

    python3 scripts/ab_routes.py --a <tree> --b <tree>

Bench mode alternates ``perfbench/run.py`` between the trees, A first in
odd pairs and B first in even ones, both runs of a pair at one seed and
of the length that ``run_seconds`` in each tree's ``BENCHMARK.json`` sets,
and prints a per-pair table of every end-to-end metric, of the median
unpaced set-up time, of the unpaced throughput and of the mean pace-kernel
sample, and how often B beat A. The pace kernel samples in the jobs'
process, so a change that keeps a second core busy can slow the samples
and lift its own paced figures; the unpaced columns show how much.

    python3 scripts/ab_routes.py --a <tree> --b <tree> --bench project_512 --pairs 6

A tree is the root of a mipdiff checkout (it holds ``src/mipdiff``).
"""
from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import os
import re
import shlex
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
COMMAND_TIMEOUT_S = 300
ROI = "8,26,48,12"  # a band across the default tube (row 32 of 64)
# a line of standard error as the warnings module prints a warning
WARNING_LINE = re.compile(r"\S.*:\d+: \w+Warning: ")


# float32 copies of the phantom ph/ph_noisy.vol, each scaled in float64 by
# its factor, written into a work directory before the first route reads one
SCALED = {"x1e-30.vol": 1e-30, "x1e30.vol": 1e30, "x1e-39.vol": 1e-39}


def _scaled_routes(name: str) -> list:
    """The filter, compare and mip routes on the scaled phantom ``name``."""
    stem = name.removesuffix(".vol")
    return [
        (f"filter mip_min, {name}", ["filter", "--input", name, "--output", f"{stem}_min.vol"],
         {}),
        (f"filter mip, {name}", [
            "filter", "--input", name, "--output", f"{stem}_mip.vol", "--mode", "mip"], {}),
        (f"compare min, {name}", ["compare", "--input", name, "--output", f"{stem}_cmp.csv"],
         {}),
        (f"compare max, {name}", [
            "compare", "--input", name, "--kind", "max", "--output", f"{stem}_cmpx.csv"], {}),
        (f"mip hysteresis, {name}", [
            "mip", "--input", name, "--output", f"{stem}_miph.vol", "--hysteresis",
            "--metrics-csv", f"{stem}_miph.csv"], {}),
    ]


def _stack_routes(size: str, stem: str) -> list:
    """The routes that filter stacks of slices, on the phantom ``ph/<stem>``
    of ``size`` and the phase volume ``<stem>_phase.vol``."""
    noisy, clean = f"ph/{stem}_noisy.vol", f"ph/{stem}_clean.vol"
    return [
        (f"filter mip_min {size}", ["filter", "--input", noisy, "--output", f"{stem}_min.vol"],
         {}),
        (f"filter mip {size}, traced", [
            "filter", "--input", noisy, "--output", f"{stem}_mip.vol", "--mode", "mip",
            "--trace"], {}),
        (f"compare min {size}", [
            "compare", "--input", noisy, "--reference", clean, "--output", f"{stem}_cmp.csv"], {}),
        (f"compare max {size}", [
            "compare", "--input", noisy, "--kind", "max", "--reference", clean,
            "--output", f"{stem}_cmpx.csv"], {}),
        (f"swi {size}", [
            "swi", "--magnitude", noisy, "--phase", f"{stem}_phase.vol", "--output",
            f"{stem}_swi.vol", "--metrics-csv", f"{stem}_swi.csv"], {}),
        (f"alpha-sweep mip_min {size}", [
            "alpha-sweep", "--input", noisy, "--alphas", "0.5,1,2", "--output",
            f"{stem}_sweep.csv"], {}),
        (f"alpha-sweep mip {size}", [
            "alpha-sweep", "--input", noisy, "--mode", "mip", "--alphas", "0.5,1,2",
            "--output", f"{stem}_sweep_mip.csv"], {}),
    ]


# (label, argv, {fifo: file whose bytes are fed to it}); paths are relative
# to the work directory, and every route may use the outputs of those above
ROUTES = [
    ("phantom", ["phantom", "--out-dir", "ph", "--stem", "ph"], {}),
    ("phantom with baseline, own tube", [
        "phantom", "--out-dir", "ph", "--stem", "bl", "--baseline-amplitude", "0.3",
        "--tube-y", "20", "--tube-z", "10", "--radius", "3", "--contrast", "0.25",
        "--seed", "7"], {}),
    ("phantom channels", ["phantom", "--out-dir", "ph", "--stem", "ch", "--channels", "2"], {}),
    ("phantom flow", [
        "phantom", "--out-dir", "ph", "--stem", "fl", "--channels", "3",
        "--channel-sigmas", "0.05,0.08,0.1", "--flow"], {}),
    # under 16 slices the reader reads one slice per call into one reused
    # buffer, so a fold that keeps a slice without copying it shows here
    ("phantom, 8 slices", ["phantom", "--out-dir", "ph", "--stem", "th", "--depth", "8"], {}),
    ("phantom 300x60x4", [
        "phantom", "--out-dir", "ph", "--stem", "wide", "--width", "300", "--height", "60",
        "--depth", "4", "--seed", "11"], {}),
    # slices of two strips, filtered two at a time: two pairs and a lone stack
    ("phantom 300x60x5", [
        "phantom", "--out-dir", "ph", "--stem", "pairs", "--width", "300", "--height", "60",
        "--depth", "5", "--seed", "13"], {}),
    # a 2 MiB payload, over one 1 MiB read: a worker thread hashes each
    # slice while the reader reads the next into a second buffer
    ("phantom 256x256x8", [
        "phantom", "--out-dir", "ph", "--stem", "big", "--width", "256", "--height", "256",
        "--depth", "8"], {}),
    ("filter mip_min", ["filter", "--input", "ph/ph_noisy.vol", "--output", "filt.vol"], {}),
    ("filter mip_min, two strips", [
        "filter", "--input", "ph/wide_noisy.vol", "--output", "wide_min.vol"], {}),
    ("filter mip, two strips, traced", [
        "filter", "--input", "ph/wide_noisy.vol", "--output", "wide_mip.vol", "--mode", "mip",
        "--trace"], {}),
    ("filter mip, traced", [
        "filter", "--input", "ph/bl_noisy.vol", "--output", "filt_mip.vol", "--mode", "mip",
        "--trace"], {}),
    ("filter from a FIFO", ["filter", "--input", "noisy.fifo", "--output", "filt_f.vol"],
     {"noisy.fifo": "ph/ph_noisy.vol"}),
    ("project min with PGM", [
        "project", "--input", "filt.vol", "--output", "pmin.vol", "--pgm", "pmin.pgm"], {}),
    ("project max", [
        "project", "--input", "ph/bl_noisy.vol", "--output", "pmax.vol", "--kind", "max"], {}),
    ("project max, 8 slices", [
        "project", "--input", "ph/th_noisy.vol", "--output", "thmax.vol", "--kind", "max"], {}),
    ("project clean", ["project", "--input", "ph/ph_clean.vol", "--output", "ref.vol"], {}),
    ("project noisy", ["project", "--input", "ph/ph_noisy.vol", "--output", "pnoisy.vol"], {}),
    ("project from a FIFO", ["project", "--input", "filt.fifo", "--output", "pmin_f.vol"],
     {"filt.fifo": "filt.vol"}),
    ("project 256x256x8", ["project", "--input", "ph/big_noisy.vol", "--output", "big_min.vol"],
     {}),
    ("project 256x256x8 from a FIFO", [
        "project", "--input", "big.fifo", "--output", "big_min_f.vol"],
     {"big.fifo": "ph/big_noisy.vol"}),
    ("project from its manifest", [
        "project", "--config", "pmin.vol.manifest.txt", "--output", "pmin_c.vol",
        "--pgm", "pmin_c.pgm"], {}),
    ("metrics", [
        "metrics", "--input", "pnoisy.vol", "--test", "pmin.vol", "--reference", "ref.vol",
        "--roi", ROI, "--method", "proposed", "--output", "scores.csv"], {}),
    ("metrics, input as reference", [
        "metrics", "--input", "ref.vol", "--test", "pmin.vol", "--output", "scores_in.csv"], {}),
    ("compare min", [
        "compare", "--input", "ph/ph_noisy.vol", "--reference", "ph/ph_clean.vol",
        "--roi", ROI, "--output", "cmp.csv"], {}),
    ("compare max, exponential, no switch", [
        "compare", "--input", "ph/bl_noisy.vol", "--kind", "max", "--diffusivity-kind",
        "exponential", "--grad-threshold", "inf", "--output", "cmpx.csv"], {}),
    ("compare min, two strips", [
        "compare", "--input", "ph/wide_noisy.vol", "--reference", "ph/wide_clean.vol",
        "--output", "wide_cmp.csv"], {}),
    ("compare max, exponential, two strips", [
        "compare", "--input", "ph/wide_noisy.vol", "--kind", "max", "--diffusivity-kind",
        "exponential", "--output", "wide_cmpx.csv"], {}),
    ("compare from a FIFO", [
        "compare", "--input", "cmp.fifo", "--delta", "0.05", "--iterations", "3",
        "--output", "cmp_f.csv"], {"cmp.fifo": "ph/ph_noisy.vol"}),
    ("alpha-sweep mip_min", [
        "alpha-sweep", "--input", "ph/ph_noisy.vol", "--output", "sweep.csv"], {}),
    ("alpha-sweep mip", [
        "alpha-sweep", "--input", "ph/bl_noisy.vol", "--mode", "mip", "--alphas", "0.5,1,2",
        "--output", "sweep_mip.csv"], {}),
    ("swi", [
        "swi", "--magnitude", "ph/ph_noisy.vol", "--phase", "phase.vol", "--output", "swi.vol",
        "--pgm", "swi.pgm", "--metrics-csv", "swi.csv"], {}),
    ("swi, mask before projection", [
        "swi", "--magnitude", "ph/ph_noisy.vol", "--phase", "phase.vol", "--output",
        "swi_b.vol", "--mask-before-projection", "--mask-exponent", "2"], {}),
    ("swi from FIFOs", [
        "swi", "--magnitude", "mag.fifo", "--phase", "phase.fifo", "--output", "swi_f.vol",
        "--metrics-csv", "swi_f.csv"], {"mag.fifo": "ph/ph_noisy.vol", "phase.fifo": "phase.vol"}),
    ("swi 256x256x8", [
        "swi", "--magnitude", "ph/big_noisy.vol", "--phase", "ph/big_mask.vol", "--output",
        "big_swi.vol", "--metrics-csv", "big_swi.csv"], {}),
    ("mip", ["mip", "--input", "ph/bl_noisy.vol", "--output", "mip.vol"], {}),
    ("mip, 8 slices", ["mip", "--input", "ph/th_noisy.vol", "--output", "thmip.vol"], {}),
    ("mip hysteresis", [
        "mip", "--input", "ph/bl_noisy.vol", "--output", "miph.vol", "--hysteresis",
        "--pgm", "miph.pgm", "--metrics-csv", "miph.csv"], {}),
    ("mip hysteresis, two strips", [
        "mip", "--input", "ph/wide_noisy.vol", "--output", "wide_miph.vol", "--hysteresis"], {}),
    ("pc sum, sigma file", [
        "pc", "--input-stem", "ph/fl", "--channels", "3", "--out-stem", "pc",
        "--sigma-file", "ph/fl_sigma.txt", "--pgm", "pc.pgm", "--metrics-csv", "pc.csv"], {}),
    ("pc magnitude", [
        "pc", "--input-stem", "ph/fl", "--channels", "3", "--out-stem", "pcm",
        "--flow-mode", "magnitude", "--metrics-csv", "pcm.csv"], {}),
    # the filters run on stacks of whole slices, as many as fill one strip:
    # 2 at 64x64, so 7 slices end in a stack of one; 8 at 40x24, so 9 do too
    ("phantom 64x64x7", ["phantom", "--out-dir", "ph", "--stem", "odd", "--depth", "7"], {}),
    ("phantom 40x24x9", [
        "phantom", "--out-dir", "ph", "--stem", "small", "--width", "40", "--height", "24",
        "--depth", "9", "--seed", "5"], {}),
    *_stack_routes("64x64x7", "odd"),
    *_stack_routes("40x24x9", "small"),
    *_stack_routes("300x60x5", "pairs"),
    *(route for name in SCALED for route in _scaled_routes(name)),
    # the known error cases: each must fail the same way in both trees
    ("error: oversized header", ["project", "--input", "huge.vol", "--output", "huge_p.vol"], {}),
    ("error: oversized stream", ["project", "--input", "huge.fifo", "--output", "huge_f.vol"],
     {"huge.fifo": "huge.vol"}),
    ("error: NaN stream", ["filter", "--input", "nan.fifo", "--output", "nan_f.vol"],
     {"nan.fifo": "nan.vol"}),
    ("error: NaN file", ["project", "--input", "nan.vol", "--output", "nan_p.vol"], {}),
    ("error: truncated file", ["project", "--input", "short.vol", "--output", "short_p.vol"], {}),
    ("error: truncated stream", ["project", "--input", "short.fifo", "--output", "short_f.vol"],
     {"short.fifo": "short.vol"}),
    ("error: missing input", ["project", "--input", "absent.vol", "--output", "absent_p.vol"], {}),
    ("error: PGM into a missing directory", [
        "project", "--input", "filt.vol", "--output", "p2.vol", "--pgm", "nodir/p2.pgm"], {}),
    ("error: metrics of a deep volume", [
        "metrics", "--input", "ph/ph_noisy.vol", "--test", "pmin.vol", "--output", "deep.csv"], {}),
    ("error: swi shapes differ", [
        "swi", "--magnitude", "ph/ph_noisy.vol", "--phase", "pmin.vol", "--output", "swi_x.vol"],
     {}),
    ("error: pc sigma file lists inf", [
        "pc", "--input-stem", "ph/fl", "--channels", "3", "--out-stem", "pcx",
        "--sigma-file", "bad_sigma.txt"], {}),
    ("error: pc sigma file whose weighted sum overflows", [
        "pc", "--input-stem", "ph/fl", "--channels", "3", "--out-stem", "pct",
        "--sigma-file", "tiny_sigma.txt"], {}),
    # finite sums whose combination, near 1e154 and 1e45, leaves float32
    ("error: pc sigma file whose combination overflows the filter", [
        "pc", "--input-stem", "ph/fl", "--channels", "3", "--out-stem", "pcf",
        "--sigma-file", "f64_sigma.txt"], {}),
    ("error: pc sigma file whose combination leaves float32", [
        "pc", "--input-stem", "ph/fl", "--channels", "3", "--out-stem", "pcw",
        "--sigma-file", "f32_sigma.txt"], {}),
    # channels 1 and 2 are written before channel 3 fails, and removed
    ("error: pc channel 3 into a directory", [
        "pc", "--input-stem", "ph/fl", "--channels", "3", "--out-stem", "pcd",
        "--metrics-csv", "pcd.csv"], {}),
    ("error: pc --channels 0", [
        "pc", "--input-stem", "ph/fl", "--channels", "0", "--out-stem", "pcz"], {}),
    ("error: unknown config key", [
        "project", "--config", "bad.cfg", "--input", "filt.vol", "--output", "cfg.vol"], {}),
    ("error: phantom --width 4", ["phantom", "--out-dir", "narrow", "--width", "4"], {}),
    ("error: phantom --flow without channels", [
        "phantom", "--out-dir", "noflow", "--flow"], {}),
    ("error: phantom --seed -1", ["phantom", "--out-dir", "negseed", "--seed", "-1"], {}),
    ("error: compare roi outside the volume", [
        "compare", "--input", "ph/ph_noisy.vol", "--roi", "0,0,500,500", "--output",
        "cmp_r.csv"], {}),
    ("error: compare of 2-row slices", [
        "compare", "--input", "thin.vol", "--output", "thin_cmp.csv"], {}),
    ("error: compare reference shape", [
        "compare", "--input", "ph/ph_noisy.vol", "--reference", "pmin.vol",
        "--output", "cmp_x.csv"], {}),
]


def _mipvol(volume) -> bytes:
    nz, ny, nx = volume.shape
    return f"MIPVOL1 {nx} {ny} {nz}\n".encode() + np.asarray(volume, "<f4").tobytes()


def _inputs(work: Path) -> None:
    """Write the inputs that no mipdiff command makes, the same bytes in
    each tree's work directory."""
    rng = np.random.default_rng(1234)
    for name, shape in (("phase", (32, 64, 64)), ("odd_phase", (7, 64, 64)),
                        ("small_phase", (9, 24, 40)), ("pairs_phase", (5, 60, 300))):
        phase = np.clip(rng.normal(-0.4, 0.8, shape), -np.pi, np.pi)
        (work / f"{name}.vol").write_bytes(_mipvol(phase))
    (work / "huge.vol").write_bytes(b"MIPVOL1 100000 100000 100000\n\0\0\0\0")
    nan = np.ones((4, 8, 8))
    nan[0, 3, 3] = np.nan
    (work / "nan.vol").write_bytes(_mipvol(nan))
    (work / "thin.vol").write_bytes(_mipvol(rng.normal(1.0, 0.1, (4, 2, 40))))
    (work / "short.vol").write_bytes(_mipvol(np.ones((4, 8, 8)))[:-100])
    (work / "bad_sigma.txt").write_text("0.05\ninf\n0.1\n")
    (work / "tiny_sigma.txt").write_text("1e-300\n0.08\n0.1\n")
    (work / "f64_sigma.txt").write_text("1e-154\n0.08\n0.1\n")
    (work / "f32_sigma.txt").write_text("1e-45\n0.08\n0.1\n")
    (work / "bad.cfg").write_text("kind = min\nno_such_key = 1\n")
    (work / "pcd_c3.vol").mkdir()


def _scale(work: Path, argv) -> None:
    """Write each scaled phantom of ``SCALED`` that ``argv`` reads and
    ``work`` does not hold yet."""
    for name, factor in SCALED.items():
        if name in argv and not (work / name).exists():
            header, payload = (work / "ph" / "ph_noisy.vol").read_bytes().split(b"\n", 1)
            scaled = np.frombuffer(payload, "<f4").astype(np.float64) * factor
            (work / name).write_bytes(header + b"\n" + scaled.astype("<f4").tobytes())


def _feed(fifo: Path, source: Path) -> threading.Thread:
    """Write ``source``'s bytes into ``fifo`` from a thread, as a stream."""
    os.mkfifo(fifo)

    def run():
        try:
            with open(fifo, "wb") as f:
                f.write(source.read_bytes())
        except BrokenPipeError:  # the reader stopped early, as on an error
            pass

    t = threading.Thread(target=run, daemon=True)
    t.start()
    return t


def _release(fifo: Path, writer: threading.Thread) -> None:
    """End a feed whose reader never opened the FIFO, then remove it."""
    if writer.is_alive():  # still waiting in open(): a reader that leaves at once wakes it
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
    writer.join(COMMAND_TIMEOUT_S)
    fifo.unlink()


def _files(work: Path) -> dict:
    """Each regular file under ``work`` with its (inode, size, mtime)."""
    return {str(p.relative_to(work)): (s.st_ino, s.st_size, s.st_mtime_ns)
            for p in sorted(work.rglob("*")) if p.is_file()
            for s in [p.stat()]}


def _tree_env(tree: Path) -> dict:
    src = str(tree / "src")
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, **ENV, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _check_tree(tree: Path) -> None:
    """Fail unless ``python -m mipdiff`` imports the package from ``tree``."""
    if not (tree / "src" / "mipdiff" / "__init__.py").is_file():
        raise SystemExit(f"ab_routes: {tree} holds no src/mipdiff")
    got = subprocess.run([sys.executable, "-c", "import mipdiff; print(mipdiff.__file__)"],
                         env=_tree_env(tree), capture_output=True, text=True, check=True,
                         cwd=tempfile.gettempdir()).stdout.strip()
    if (tree / "src").resolve() not in Path(got).resolve().parents:
        raise SystemExit(f"ab_routes: mipdiff of {tree} imports from {got}")


def run_route(tree: Path, work: Path, argv, feeds: dict) -> tuple:
    """Run one command in ``work``; return (exit code, stderr, {path: sha256}
    of the files it wrote)."""
    _scale(work, argv)
    before = _files(work)
    writers = {work / fifo: _feed(work / fifo, work / source) for fifo, source in feeds.items()}
    try:
        proc = subprocess.run([sys.executable, "-m", "mipdiff", *argv], cwd=work,
                              env=_tree_env(tree), capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
    finally:
        for fifo, writer in writers.items():
            _release(fifo, writer)
    written = {p: hashlib.sha256((work / p).read_bytes()).hexdigest()
               for p, stat in _files(work).items() if before.get(p) != stat}
    return proc.returncode, proc.stderr, written


def routes(a: Path, b: Path) -> int:
    for tree in (a, b):
        _check_tree(tree)
    differ = warned = outputs = 0
    with tempfile.TemporaryDirectory(prefix="ab_routes-") as tmp:
        works = Path(tmp) / "a", Path(tmp) / "b"
        for work in works:
            work.mkdir()
            _inputs(work)
        for n, (label, argv, feeds) in enumerate(ROUTES, start=1):
            (rc_a, err_a, out_a), (rc_b, err_b, out_b) = (
                run_route(tree, work, argv, feeds) for tree, work in zip((a, b), works))
            print(f"[{n:2d}] {label}: mipdiff {shlex.join(argv)}")
            same = rc_a == rc_b
            print(f"     exit {rc_a}" if same else f"     DIFF exit: A {rc_a}, B {rc_b}")
            for path in sorted(out_a.keys() | out_b.keys()):
                outputs += 1
                ha, hb = out_a.get(path, "-"), out_b.get(path, "-")
                if ha == hb:
                    print(f"     same {ha} {path}")
                else:
                    same = False
                    print(f"     DIFF {path}\n       A {ha}\n       B {hb}")
            if err_a == err_b:
                first = err_a.splitlines()[0] if err_a else "(empty)"
                print(f"     stderr same: {first}")
            else:
                same = False
                print("     DIFF stderr:")
                for line in difflib.unified_diff(err_a.splitlines(), err_b.splitlines(),
                                                 "A", "B", lineterm=""):
                    print(f"       {line}")
            warning_lines = [(name, line) for name, err in (("A", err_a), ("B", err_b))
                             for line in err.splitlines() if WARNING_LINE.match(line)]
            for name, line in warning_lines:
                print(f"     WARNING in {name}: {line}")
            differ += not same
            warned += bool(warning_lines)
    print(f"{len(ROUTES)} routes, {outputs} outputs: "
          f"{differ} route{'s' if differ != 1 else ''} differ between A ({a}) and B ({b}), "
          f"{warned} print a Python warning")
    return 1 if differ or warned else 0


# (key, label, better) of each per-pair figure in bench mode
BENCH_FIGURES = [
    ("throughput_mvox_s", "throughput_mvox_s (Mvox/s)", "higher"),
    ("job_s_p50", "job_s_p50 (s)", "lower"),
    ("setup_s", "setup_s (s, paced)", "lower"),
    ("setup_wall_p50", "median of wall setup runs (s, unpaced)", "lower"),
    ("unpaced_mvox_s", "unpaced throughput (Mvox/s, wall less kernel time)", "higher"),
    ("pace_mean_ms", "mean pace-kernel sample (ms, higher on a busier host)", "lower"),
    ("peak_rss_mib", "peak_rss_mib (MiB)", "lower"),
    ("psnr_ref_db", "psnr_ref_db (dB)", "higher"),
]


def bench_run(tree: Path, workload: str, seed: int) -> dict | None:
    """One ``perfbench/run.py`` run in ``tree``, as long as the tree's
    ``BENCHMARK.json`` sets: its figures, or None if it failed."""
    seconds = json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"ab_routes: perfbench in {tree} at seed {seed} exited {proc.returncode}:\n"
              + "\n".join((proc.stdout + proc.stderr).splitlines()[-10:]), file=sys.stderr)
        return None
    figures = {k: m["value"] for k, m in result["metrics"].items()}
    wall = [line for line in lines if line.startswith("wall setup runs s:")]
    if not wall:
        raise SystemExit(f"ab_routes: perfbench in {tree} printed no 'wall setup runs s:' line")
    figures["setup_wall_p50"] = statistics.median(map(float, wall[0].split(":")[1].split()))
    for key, prefix, before in (("unpaced_mvox_s", "unpaced (wall less kernel time):", "Mvox/s,"),
                                ("pace_mean_ms", "pace:", "ms,")):
        line = next((line for line in lines if line.startswith(prefix)), None)
        if line is None:
            raise SystemExit(f"ab_routes: perfbench in {tree} printed no '{prefix}' line")
        words = line.split()
        figures[key] = float(words[words.index(before) - 1])
    return figures


def _quartile_spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def bench(a: Path, b: Path, workload: str, pairs: int, seed: int) -> int:
    runs = []  # (pair, seed, first, figures of A, figures of B)
    for pair in range(1, pairs + 1):
        s = seed + pair - 1
        order = [("A", a), ("B", b)] if pair % 2 else [("B", b), ("A", a)]
        got = {name: bench_run(tree, workload, s) for name, tree in order}
        if None in got.values():
            return 1
        runs.append((pair, s, order[0][0], got["A"], got["B"]))
    print(f"{workload}: {pairs} pairs of runs, A = {a}, B = {b}")
    for key, label, better in BENCH_FIGURES:
        print(f"\n{label}, {better} is better\n")
        print("| pair | seed | first | A | B | B vs A |")
        print("|---|---|---|---|---|---|")
        wins = ties = 0
        for pair, s, first, fa, fb in runs:
            va, vb = fa[key], fb[key]
            wins += vb > va if better == "higher" else vb < va
            ties += vb == va
            change = f"{100.0 * (vb - va) / va:+.1f}%" if va else "n/a"
            print(f"| {pair} | {s} | {first} | {va:.6g} | {vb:.6g} | {change} |")
        col_a = [r[3][key] for r in runs]
        col_b = [r[4][key] for r in runs]
        print(f"\nB better in {wins}/{len(runs)} pairs, equal in {ties}; "
              f"median A {statistics.median(col_a):.6g} "
              f"(quartile spread {_quartile_spread(col_a):.4g}), "
              f"median B {statistics.median(col_b):.6g} "
              f"(quartile spread {_quartile_spread(col_b):.4g})")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", required=True, type=Path, help="root of checkout A")
    ap.add_argument("--b", required=True, type=Path, help="root of checkout B")
    ap.add_argument("--bench", metavar="WORKLOAD",
                    help="alternate perfbench/run.py on this workload instead of the routes")
    ap.add_argument("--pairs", type=int, default=6, help="bench mode: pairs of runs")
    ap.add_argument("--seed", type=int, default=41, help="bench mode: seed of the first pair")
    args = ap.parse_args(argv)
    a, b = args.a.resolve(), args.b.resolve()
    if args.bench:
        if args.pairs < 1:
            ap.error("--pairs must be at least 1")
        return bench(a, b, args.bench, args.pairs, args.seed)
    return routes(a, b)


if __name__ == "__main__":
    raise SystemExit(main())
