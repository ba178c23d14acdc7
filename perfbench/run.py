"""Benchmark of mipdiff's CLI routes, end to end and layer by layer.

    python3 perfbench/run.py --workload study_64 --seed 1 --seconds 15 --trace 0

Run it from the root of a mipdiff checkout; it imports the package from
``src/`` and the scalar oracles from ``tests/oracles.py``. One run is one
workload, measured as a closed loop with one client: each job is a
sequence of in-process ``mipdiff.cli.main`` calls, started when the
previous job has finished.

A run starts child processes of this same script. Set-up children import
mipdiff and write the workload's inputs; set-up runs several times and
its median is reported. A jobs child then warms up, checks the program
against the oracles, and runs timed jobs until ``--seconds`` of job time
have passed. With ``--trace 0`` every end-to-end metric is printed; with
``--trace 1`` jobs alternate between untraced and traced blocks, and the
per-layer metrics come from the traced ones. Untraced runs sample the
host's speed during the jobs with ``pace.Pace`` and report times scaled to
a reference host speed, with the unpaced times printed beside them. Every
job's outputs are checked, untimed. The last line of standard output is
one JSON object; the exit code is 0 only if every check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# set-up runs at least SETUP_MIN times, and on until SETUP_SPAN_S seconds are
# spent, so that quick set-ups, which vary most, get the most samples
SETUP_MIN, SETUP_MAX, SETUP_SPAN_S = 3, 9, 2.0
WARMUP_JOBS = 1
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
OUT_DIR = ROOT / ".perfbench_out"
ORACLES = ROOT / "tests" / "oracles.py"

# (name, unit, better) of every end-to-end metric, in output order.
END_TO_END = [
    ("throughput_mvox_s", "Mvox/s", "higher"),
    ("job_s_p50", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("psnr_ref_db", "dB", "higher"),
]


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="timed job time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    p.add_argument("--role", choices=("run", "setup", "jobs"), default="run",
                   help=argparse.SUPPRESS)
    p.add_argument("--work", help=argparse.SUPPRESS)
    p.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_mipdiff():
    """Import mipdiff from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import mipdiff

    if src.resolve() not in Path(mipdiff.__file__).resolve().parents:
        raise SystemExit(f"perfbench: mipdiff imported from {mipdiff.__file__}, not {src}")
    return mipdiff


def measure(workload, work: Path, seed: int, seconds: float, tracer=None,
            budget: float = RUN_LIMIT_S, after_job=None, pacer=None) -> dict:
    """Warm up, check against the oracles, then run timed jobs.

    Timed jobs run until their summed time reaches ``seconds`` and every
    pool entry has run (untraced and, with a tracer, traced), or until
    ``budget`` seconds of wall time are spent. ``after_job`` may alter a
    job's outputs before they are checked; the self-test uses it. With a
    ``pace.Pace`` sampling the host's speed, a record's ``secs`` leaves
    out the sampling kernel's time, and ``kernel_s`` lists its samples.
    """
    started = time.perf_counter()
    (work / "out").mkdir(exist_ok=True)
    records = []
    psnr = {}
    cache = {}

    def run_job(k, warmup=False, traced=False):
        ok = True
        if traced:
            tracer.install(len(records))
        if pacer is not None:
            pacer.start()
        t0 = time.perf_counter()
        try:
            for argv in workload.job(work, seed, k):
                workloads.run_cli(argv)
        except workloads.CheckFailed as exc:
            print(f"perfbench: job failed: {exc}", file=sys.stderr)
            ok = False
        except Exception:  # a crashing job is counted, and the run goes on
            traceback.print_exc()
            ok = False
        finally:
            secs = time.perf_counter() - t0
            if pacer is not None:
                pacer.stop()
            if traced:
                tracer.uninstall()
        if ok:
            try:
                if after_job is not None:
                    after_job(work)
                value = workload.check(work, k, cache)
                if psnr.setdefault(k, value) != value:
                    raise workloads.CheckFailed(f"rerun of input {k} changed PSNR "
                                                f"from {psnr[k]!r} to {value!r}")
            except workloads.CheckFailed as exc:
                print(f"perfbench: check failed: {exc}", file=sys.stderr)
                ok = False
        record = {"k": k, "secs": secs, "ok": ok, "warmup": warmup, "traced": traced}
        if pacer is not None:
            record.update(secs=secs - pacer.kernel_s, kernel_s=pacer.samples)
        records.append(record)
        return secs

    for _ in range(WARMUP_JOBS):
        run_job(0, warmup=True)
    oracle_dev = None
    try:
        oracle_dev = workloads.oracle_check(workload, work, ORACLES)
    except workloads.CheckFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        records[-1]["ok"] = False

    min_jobs = workload.pool * (2 if tracer else 1)
    spent = 0.0
    last = 0.0
    i = 0
    while spent < seconds or i < min_jobs:
        if time.perf_counter() - started + 2 * last > budget:
            print("perfbench: stopping early to stay within the run time limit",
                  file=sys.stderr)
            break
        traced = tracer is not None and (i // workload.pool) % 2 == 1
        last = run_job(i % workload.pool, traced=traced)
        spent += last
        i += 1
    return {
        "records": records,
        "psnr": list(psnr.values()),
        "oracle_dev": oracle_dev,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def role_setup(args) -> int:
    import_mipdiff()
    work = Path(args.work)
    workloads.get(args.workload, args.smoke).setup(work, args.seed)
    # CLOCK_MONOTONIC is one clock for all processes; the parent subtracts
    # its own reading taken before starting this process.
    (work / "setup_done").write_text(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
    return 0


def role_jobs(args) -> int:
    import_mipdiff()
    workload = workloads.get(args.workload, args.smoke)
    work = Path(args.work)
    tracer = spans.Tracer() if args.trace else None
    # traced runs compare traced with untraced wall time, so they are not paced
    speed = None if args.trace else pace.Pace()
    result = measure(workload, work, args.seed, args.seconds, tracer, args.budget or RUN_LIMIT_S,
                     pacer=speed)
    if tracer is not None:
        timed = [r for r in result["records"] if not r["warmup"] and r["ok"]]
        mean = {t: statistics.fmean([r["secs"] for r in timed if r["traced"] == t] or [0.0])
                for t in (False, True)}
        overhead = 1.0 - mean[False] / mean[True] if mean[True] else 0.0
        result["layers"], result["notes"] = spans.layer_metrics(
            tracer.spans, sum(r["traced"] for r in timed), overhead)
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        result["notes"]["trace_file"] = str(trace_file.relative_to(ROOT))
    (work / "result.json").write_text(json.dumps(result))
    return 0


def environment() -> dict:
    """Versions and machine facts printed with every run."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown (git not available)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": "1 (OPENBLAS/OMP/MKL_NUM_THREADS=1, one process)",
        "cpu": cpu,
        "git": sha,
    }


def report(args, setup_s: list, result: dict, workload) -> int:
    """Print every metric by name with its unit, then the JSON result line."""
    records = result["records"]
    failed = sum(not r["ok"] for r in records)
    timed = [r for r in records if not r["warmup"] and not r["traced"]]
    done = [r for r in timed if r["ok"]]
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} voxels_per_job={workload.voxels}")
    for key, value in environment().items():
        print(f"env {key}: {value}")
    print("note: inputs are re-read from the page cache; the benchmark never drops caches "
          "(that needs system privileges), so no cold-cache figure is measured")
    dev = result["oracle_dev"]
    print(f"oracle max deviation: {'failed' if dev is None else f'{dev:.3g}'} "
          f"(limit {workloads.ORACLE_TOLERANCE:g})")
    print(f"jobs attempted {len(records)} ({WARMUP_JOBS} warm-up), failed {failed}, "
          f"failed_frac {failed / len(records):g}")

    if args.trace:
        metrics = result["layers"]
        for name, note in result["notes"].items():
            print(f"note {name}: {note}")
    else:
        secs = [r["secs"] for r in timed]
        # each job is paced by its own samples; set-up by those of the whole run
        paced = [r["secs"] * pace.pace_factor(r["kernel_s"]) for r in timed]
        kernel_s = [t for r in timed for t in r["kernel_s"]]
        factor = pace.pace_factor(kernel_s)
        metrics = {
            "throughput_mvox_s": workload.voxels * len(done) / sum(paced) / 1e6,
            "job_s_p50": statistics.median(paced),
            "setup_s": statistics.median(setup_s) * factor,
            "peak_rss_mib": result["peak_rss_mib"],
            # no PSNR only when every job failed; 0.0 keeps the line valid JSON
            "psnr_ref_db": statistics.fmean(result["psnr"]) if result["psnr"] else 0.0,
        }
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit, _ in END_TO_END}
        print(f"pace: {len(kernel_s)} kernel samples, mean {1e3 * statistics.fmean(kernel_s):.4f} ms, "
              f"reference {1e3 * pace.REFERENCE_S:g} ms, run factor {factor:.6g}; job times "
              f"below are paced by each job's own samples")
        print(f"wall setup runs s: {' '.join(f'{t:.4f}' for t in setup_s)}")
        print(f"job_s_p50 over {len(paced)} timed jobs; job times s: "
              f"{' '.join(f'{t:.4f}' for t in paced)}")
        print(f"unpaced (wall less kernel time): throughput "
              f"{workload.voxels * len(done) / sum(secs) / 1e6:.6g} Mvox/s, "
              f"job_s_p50 {statistics.median(secs):.6g} s")
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and bool(done)
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run(args) -> int:
    if not (ROOT / "src" / "mipdiff" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"perfbench: no mipdiff checkout at {ROOT} (need src/mipdiff and "
              "tests/oracles.py)", file=sys.stderr)
        return 2
    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = {**os.environ, **BLAS_ENV}

    def child(role: str, *extra):
        """Run one child process; for set-up, return the time from its
        start until its inputs were written."""
        remaining = RUN_LIMIT_S - (time.perf_counter() - started)
        argv = [sys.executable, str(Path(__file__).resolve()), "--role", role,
                "--work", str(work), "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
        if args.smoke:
            argv.append("--smoke")
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(argv, env=env, cwd=ROOT, timeout=max(remaining, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"{role} process exited with {proc.returncode}")
        if role == "setup":
            return float((work / "setup_done").read_text()) - t0
        return None

    try:
        setup_s = [child("setup")]
        while not args.trace and len(setup_s) < SETUP_MAX and (
                len(setup_s) < SETUP_MIN or sum(setup_s) < SETUP_SPAN_S):
            setup_s.append(child("setup"))
        budget = RUN_LIMIT_S - (time.perf_counter() - started) - 10.0
        child("jobs", "--budget", f"{budget:.3f}")
        result = json.loads((work / "result.json").read_text())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, setup_s, result, workloads.get(args.workload, args.smoke))


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.role == "setup":
        return role_setup(args)
    if args.role == "jobs":
        return role_jobs(args)
    return run(args)


if __name__ == "__main__":
    raise SystemExit(main())
