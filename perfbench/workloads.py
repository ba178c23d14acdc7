"""The benchmark's workloads: seeded inputs, the CLI route of one job, and
the untimed checks of a job's outputs.

Every job is a list of ``mipdiff`` command lines run in-process through
``mipdiff.cli.main``. Inputs come from the workload seed only, so the
program receives nothing but generated MIPVOL files and phantom seeds.
mipdiff itself is imported inside the functions that need it, because the
parent process of a run must work without it.
"""
from __future__ import annotations

import csv
import importlib.util
import math
from pathlib import Path

import numpy as np

ORACLE_TOLERANCE = 1e-12
ORACLE_CROP = 64


class CheckFailed(Exception):
    """A job's output differs from what the route must produce."""


def pool_seed(seed: int, k: int) -> int:
    """Phantom seed of pool entry ``k`` for workload seed ``seed``."""
    return int(np.random.SeedSequence([seed & 0xFFFFFFFF, k]).generate_state(1)[0])


def run_cli(argv) -> None:
    """Run one mipdiff command line in-process; a non-zero exit is a failure."""
    from mipdiff import cli

    argv = [str(a) for a in argv]
    rc = cli.main(argv)
    if rc != 0:
        raise CheckFailed(f"mipdiff {' '.join(argv)} exited with {rc}")


def read_mipvol(path) -> np.ndarray:
    """Read a MIPVOL file as float32 (nz, ny, nx), independently of mipdiff."""
    with open(path, "rb") as f:
        tokens = f.readline(256).split()
        if len(tokens) != 4 or tokens[0] != b"MIPVOL1":
            raise CheckFailed(f"{path}: no MIPVOL1 header")
        nx, ny, nz = (int(t) for t in tokens[1:])
        arr = np.fromfile(f, dtype="<f4", count=nx * ny * nz)
    if arr.size != nx * ny * nz:
        raise CheckFailed(f"{path}: truncated payload")
    return arr.reshape(nz, ny, nx)


def check_volume(path, shape) -> np.ndarray:
    """Output file exists, has ``shape`` and holds only finite samples."""
    arr = read_mipvol(path)
    if arr.shape != tuple(shape):
        raise CheckFailed(f"{path}: shape {arr.shape}, expected {tuple(shape)}")
    if not np.isfinite(arr).all():
        raise CheckFailed(f"{path}: non-finite samples")
    return arr


def check_projection(path, source: np.ndarray, kind: str) -> np.ndarray:
    """A projection output equals np.min/np.max of its input exactly."""
    got = check_volume(path, (1,) + source.shape[1:])[0]
    want = source.min(axis=0) if kind == "min" else source.max(axis=0)
    if not np.array_equal(got, want):
        raise CheckFailed(f"{path}: differs from np.{kind} of its input")
    return got


def read_metrics_csv(path) -> dict:
    """Rows of a metrics CSV by method; every figure must be finite."""
    rows = {}
    with open(path, newline="", encoding="ascii") as f:
        for row in csv.DictReader(f):
            method = row.pop("method")
            try:
                values = {k: float(v) for k, v in row.items()}
            except ValueError as exc:
                raise CheckFailed(f"{path}: non-numeric figure in row {method}") from exc
            if not all(math.isfinite(v) for v in values.values()):
                raise CheckFailed(f"{path}: non-finite figure in row {method}")
            rows[method] = values
    if not rows:
        raise CheckFailed(f"{path}: no metrics rows")
    return rows


class Workload:
    """One workload: ``shape`` is (nz, ny, nx) of the volume a job reads."""

    name = ""
    why = ""
    pool = 1  # distinct seeded inputs; jobs cycle through them
    mode = "mip_min"  # filter mode of the once-per-run oracle check

    def __init__(self, shape):
        self.shape = tuple(shape)

    @property
    def voxels(self) -> int:
        return math.prod(self.shape)

    def phantom_argv(self, out_dir, stem, seed, *extra):
        nz, ny, nx = self.shape
        return ["phantom", "--out-dir", out_dir, "--stem", stem, "--width", nx,
                "--height", ny, "--depth", nz, "--seed", seed, *extra]

    def setup(self, work: Path, seed: int) -> None:
        """Write the input pool into ``work``."""

    def job(self, work: Path, seed: int, k: int) -> list:
        """Command lines of one job on pool entry ``k``."""
        raise NotImplementedError

    def check(self, work: Path, k: int, cache: dict) -> float:
        """Check the job's outputs; return its PSNR against the clean reference."""
        raise NotImplementedError

    def oracle_source(self, work: Path) -> Path:
        """A MIPVOL input of pool entry 0, cropped for the oracle check."""
        raise NotImplementedError


class Study64(Workload):
    name = "study_64"
    why = ("paper-size 64x64x32 venous phantoms through compare and swi: "
           "per-call overhead weighs as much as arithmetic; only route running "
           "the scalar filters and the phase mask")
    pool = 8

    def setup(self, work, seed):
        from mipdiff import fileio

        for k in range(self.pool):
            s = pool_seed(seed, k)
            run_cli(self.phantom_argv(work, f"in{k}", s))
            mask = fileio.read_volume(work / f"in{k}_mask.vol")
            rng = np.random.default_rng(s)
            phase = np.clip(-1.5 * mask + rng.normal(0.0, 0.3, mask.shape), -math.pi, math.pi)
            fileio.write_volume(phase, work / f"in{k}_phase.vol")

    def job(self, work, seed, k):
        out = work / "out"
        return [
            ["compare", "--input", work / f"in{k}_noisy.vol",
             "--reference", work / f"in{k}_clean.vol", "--output", out / "compare.csv"],
            ["swi", "--magnitude", work / f"in{k}_noisy.vol",
             "--phase", work / f"in{k}_phase.vol", "--output", out / "swi.vol",
             "--metrics-csv", out / "swi.csv"],
        ]

    def check(self, work, k, cache):
        out = work / "out"
        rows = read_metrics_csv(out / "compare.csv")
        if set(rows) != {"pm", "orthogonal", "directional", "proposed"}:
            raise CheckFailed(f"compare rows {sorted(rows)}")
        check_volume(out / "swi.vol", (1,) + self.shape[1:])
        read_metrics_csv(out / "swi.csv")
        return rows["proposed"]["psnr_ref"]

    def oracle_source(self, work):
        return work / "in0_noisy.vol"


class Venous256(Workload):
    name = "venous_256"
    why = ("phantom, filter (mip_min), project and metrics at 256x256x64: the "
           "kernel is arithmetic-bound on 512 KiB slices, phantom writes beside "
           "filter reads")
    pool = 2

    def job(self, work, seed, k):
        out = work / "out"
        return [
            self.phantom_argv(out, "vein", pool_seed(seed, k)),
            ["filter", "--input", out / "vein_noisy.vol", "--output", out / "filtered.vol",
             "--mode", "mip_min"],
            ["project", "--input", out / "filtered.vol", "--output", out / "filtered_min.vol",
             "--kind", "min"],
            ["project", "--input", out / "vein_clean.vol", "--output", out / "clean_min.vol",
             "--kind", "min"],
            ["metrics", "--input", out / "clean_min.vol", "--test", out / "filtered_min.vol",
             "--output", out / "metrics.csv"],
        ]

    def check(self, work, k, cache):
        out = work / "out"
        filtered = check_volume(out / "filtered.vol", self.shape)
        check_projection(out / "filtered_min.vol", filtered, "min")
        clean = check_volume(out / "vein_clean.vol", self.shape)
        check_projection(out / "clean_min.vol", clean, "min")
        return read_metrics_csv(out / "metrics.csv")["image"]["psnr_ref"]

    def oracle_source(self, work):
        return work / "out" / "vein_noisy.vol"


class Coils512(Workload):
    name = "coils_512"
    why = ("512x512x16 four-coil phantoms through mip --hysteresis and pc: 2 MiB "
           "slices make the kernel bandwidth-bound; only route with mip mode, "
           "histogram bounds and phased_array")
    pool = 2
    mode = "mip"
    channels = 4

    def setup(self, work, seed):
        for k in range(self.pool):
            run_cli(self.phantom_argv(work, f"in{k}", pool_seed(seed, k),
                                      "--channels", self.channels, "--flow"))

    def job(self, work, seed, k):
        out = work / "out"
        return [
            ["mip", "--input", work / f"in{k}_noisy.vol", "--output", out / "mip.vol",
             "--hysteresis", "--metrics-csv", out / "mip.csv"],
            ["pc", "--input-stem", work / f"in{k}", "--channels", self.channels,
             "--out-stem", out / "pc", "--metrics-csv", out / "pc.csv"],
        ]

    def check(self, work, k, cache):
        from mipdiff.metrics import psnr_vs_reference

        out = work / "out"
        image = (1,) + self.shape[1:]
        result = check_volume(out / "mip.vol", image)[0]
        read_metrics_csv(out / "mip.csv")
        for c in range(1, self.channels + 1):
            check_volume(out / f"pc_c{c}.vol", image)
        check_volume(out / "pc_combined.vol", image)
        read_metrics_csv(out / "pc.csv")
        if k not in cache:
            # generate_flow's clean image is the max projection of the clean volume
            cache[k] = read_mipvol(work / f"in{k}_flow_clean.vol")[0].astype(np.float64)
        return psnr_vs_reference(cache[k], result.astype(np.float64))

    def oracle_source(self, work):
        return work / "in0_noisy.vol"


class Project512(Workload):
    name = "project_512"
    why = ("min/max projections and metrics of 96 MiB 512x512x96 volumes, nothing "
           "filtered: MIPVOL reads, input hashing and reductions dominate")
    pool = 2
    slab = 16  # depth of the one clean phantom generated; bounds set-up memory
    noise_sigma = 0.05  # the phantom command's default

    def setup(self, work, seed):
        from mipdiff.fileio import write_volume
        from mipdiff.phantom import PhantomSpec, TubeSpec, generate

        nz, ny, nx = self.shape
        depth = min(self.slab, nz)
        mid = (ny - 1) / 2.0
        tube = TubeSpec(points=((0.0, mid, (depth - 1) / 2.0), (nx - 1.0, mid, (depth - 1) / 2.0)))
        clean = generate(PhantomSpec(width=nx, height=ny, depth=depth, tubes=(tube,),
                                     noise_sigma=0.0)).clean
        for k in range(self.pool):
            rng = np.random.default_rng(pool_seed(seed, k))
            clean_min = None
            with open(work / f"in{k}.vol", "wb") as f:
                f.write(f"MIPVOL1 {nx} {ny} {nz}\n".encode("ascii"))
                for z0 in range(0, nz, depth):
                    # each slab moves the tube to another row
                    slab = np.roll(clean[: nz - z0], int(rng.integers(ny)), axis=1)
                    noisy = slab + rng.normal(0.0, self.noise_sigma, slab.shape)
                    f.write(noisy.astype("<f4").tobytes())
                    low = slab.min(axis=0)
                    clean_min = low if clean_min is None else np.minimum(clean_min, low)
            write_volume(clean_min, work / f"in{k}_clean_min.vol")

    def job(self, work, seed, k):
        out = work / "out"
        return [
            ["project", "--input", work / f"in{k}.vol", "--output", out / "min.vol",
             "--kind", "min", "--pgm", out / "min.pgm"],
            ["project", "--input", work / f"in{k}.vol", "--output", out / "max.vol",
             "--kind", "max"],
            ["metrics", "--input", work / f"in{k}_clean_min.vol", "--test", out / "min.vol",
             "--output", out / "metrics.csv"],
        ]

    def check(self, work, k, cache):
        out = work / "out"
        if k not in cache:
            source = read_mipvol(work / f"in{k}.vol")
            cache[k] = (source.min(axis=0), source.max(axis=0))
        want_min, want_max = cache[k]
        for name, want in (("min.vol", want_min), ("max.vol", want_max)):
            got = check_volume(out / name, (1,) + self.shape[1:])[0]
            if not np.array_equal(got, want):
                raise CheckFailed(f"{name}: differs from the projection of its input")
        nz, ny, nx = self.shape
        header = f"P5\n{nx} {ny}\n65535\n".encode("ascii")
        with open(out / "min.pgm", "rb") as f:
            pgm = f.read()
        if not pgm.startswith(header) or len(pgm) != len(header) + 2 * nx * ny:
            raise CheckFailed("min.pgm: wrong header or size")
        return read_metrics_csv(out / "metrics.csv")["image"]["psnr_ref"]

    def oracle_source(self, work):
        return work / "in0.vol"


SIZES = {
    Study64: (32, 64, 64),
    Venous256: (64, 256, 256),
    Coils512: (16, 512, 512),
    Project512: (96, 512, 512),
}
SMOKE_SIZES = {
    Study64: (4, 16, 16),
    Venous256: (6, 24, 24),
    Coils512: (3, 16, 16),
    Project512: (20, 32, 32),
}
NAMES = [cls.name for cls in SIZES]


def get(name: str, smoke: bool = False) -> Workload:
    for cls, shape in (SMOKE_SIZES if smoke else SIZES).items():
        if cls.name == name:
            return cls(shape)
    raise KeyError(name)


def oracle_check(workload: Workload, work: Path, oracles_path: Path) -> float:
    """Largest deviation of directional_step and pm_step from the scalar oracles.

    The field is a centred crop of the middle slice of an input of pool
    entry 0. Raises CheckFailed beyond ORACLE_TOLERANCE.
    """
    from mipdiff.diffusion import AdaptiveParams, PMParams, default_delta, directional_step, pm_step

    spec = importlib.util.spec_from_file_location("oracles", oracles_path)
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)

    vol = read_mipvol(workload.oracle_source(work))
    sl = vol[vol.shape[0] // 2].astype(np.float64)
    ny, nx = sl.shape
    h, w = min(ORACLE_CROP, ny), min(ORACLE_CROP, nx)
    u = sl[(ny - h) // 2:(ny - h) // 2 + h, (nx - w) // 2:(nx - w) // 2 + w]
    grid = oracles.grid(u)

    params = AdaptiveParams(mode=workload.mode)
    got = directional_step(u, params)
    want = oracles.directional_step(grid, params.alpha, params.mode, params.step, params.tail_prob)
    worst = float(np.max(np.abs(got - np.array(want))))

    pm = PMParams(delta=default_delta(u))
    got = pm_step(u, pm)
    want = oracles.pm_step(grid, pm.delta, pm.dt, pm.diffusivity_kind)
    worst = max(worst, float(np.max(np.abs(got - np.array(want)))))
    if not worst <= ORACLE_TOLERANCE:
        raise CheckFailed(f"oracle deviation {worst:.3g} exceeds {ORACLE_TOLERANCE:g}")
    return worst
