"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size through the full command, untraced and
traced, and checks that each prints exactly the metrics BENCHMARK.json
declares. Then corrupts one job's output in place and checks that the
corruption is caught, counted as a failed job, and turns the exit code
non-zero. Exits 0 when every check holds.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import struct
import subprocess
import sys

import pace
import run
import spans
import workloads

SEED = 3


def expect(condition, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def declared() -> dict:
    """Metric (name, unit, better) lists of BENCHMARK.json, by trace flag."""
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {trace: [(m["name"], m["unit"], m["better"]) for m in bench[key]]
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def smoke(name: str, trace: int, metrics: list) -> None:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", name, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    expect(proc.returncode == 0, f"{name} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{name} trace={trace}: {result}")
    got = [(n, m["unit"]) for n, m in result["metrics"].items()]
    expect(got == [(n, u) for n, u, _ in metrics],
           f"{name} trace={trace} metrics differ from BENCHMARK.json")
    print(f"ok   smoke {name} trace={trace}: {result['attempted']} jobs")


def corrupted_output_is_counted() -> None:
    """Flip one sample of the first timed job's min projection."""
    workload = workloads.get("project_512", smoke=True)
    work = run.ROOT / ".perfbench_work" / "selftest-corrupt"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corrupted = []

    def corrupt(work_dir):
        if len(corrupted) == 1:  # the warm-up job is left alone
            path = work_dir / "out" / "min.vol"
            data = bytearray(path.read_bytes())
            data[-4:] = struct.pack("<f", 12345.0)  # finite, but not the projection
            path.write_bytes(bytes(data))
        corrupted.append(True)

    try:
        run.import_mipdiff()
        workload.setup(work, SEED)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            result = run.measure(workload, work, SEED, 0.5, after_job=corrupt,
                                 pacer=pace.Pace())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [r for r in result["records"] if not r["ok"]]
    expect(len(failed) == 1 and not failed[0]["warmup"],
           f"corrupted job not counted as the one failure: {result['records']}")
    expect("min.vol" in err.getvalue(), f"no check message for min.vol: {err.getvalue()!r}")

    args = run.parse_args(["--workload", workload.name, "--seed", str(SEED),
                           "--seconds", "0.5", "--smoke"])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = run.report(args, [1.0], result, workload)
    line = json.loads(out.getvalue().strip().splitlines()[-1])
    expect(code != 0, "report exits 0 despite a failed job")
    expect(line["correct"] is False and line["failed"] == 1, f"report line {line}")
    print(f"ok   corrupted output caught: 1 of {line['attempted']} jobs failed, exit {code}")


def main() -> int:
    metrics = declared()
    expect(metrics[0] == run.END_TO_END, "end_to_end in BENCHMARK.json differs from run.py")
    expect(metrics[1] == spans.PER_LAYER, "per_layer in BENCHMARK.json differs from spans.py")
    for name in workloads.NAMES:
        for trace in (0, 1):
            smoke(name, trace, metrics[trace])
    corrupted_output_is_counted()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
