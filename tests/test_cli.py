"""Command-line interface: option precedence, manifests, exit codes, CSVs."""
import contextlib
import hashlib
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import MISSING, fields
from pathlib import Path

import numpy as np
import pytest

from conftest import fed_fifo
from mipdiff import cli, diffusion, fileio
from mipdiff.cli import main, parse_config
from mipdiff.diffusion import (
    AdaptiveParams,
    HysteresisParams,
    PMParams,
    run_directional_ad,
    run_filter,
    run_orthogonal,
    run_pm,
)
from mipdiff.fileio import read_volume, write_volume
from mipdiff.metrics import Roi, psnr_vs_input
from mipdiff.phantom import ChannelSpec, PhantomSpec, TubeSpec, generate, generate_flow
from mipdiff.phased_array import combine_flow, pc_pipeline
from mipdiff.projection import PhaseMaskParams, project


def run_cli(*args):
    return main([str(a) for a in args])


@pytest.fixture
def noisy_volume(tmp_path):
    rng = np.random.default_rng(77)
    vol = 1.0 + 0.05 * rng.normal(0.0, 1.0, (3, 16, 16))
    path = tmp_path / "in.vol"
    write_volume(vol, path)
    return path, vol


class TestConfigParsing:
    def test_key_value_and_comments(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# a comment\nalpha = 4.5\n\nmode = mip  # trailing\n")
        assert parse_config(p) == {"alpha": "4.5", "mode": "mip"}

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("alpha 4.5\n")
        with pytest.raises(Exception, match="key = value"):
            parse_config(p)

    def test_unknown_key_exits_2_and_names_key(self, tmp_path, capsys, noisy_volume):
        src, _ = noisy_volume
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus_knob = 1\n")
        code = run_cli("filter", "--config", cfg, "--input", src,
                       "--output", tmp_path / "o.vol")
        assert code == 2
        assert "bogus_knob" in capsys.readouterr().err

    def test_flag_overrides_config(self, tmp_path, noisy_volume):
        src, _ = noisy_volume
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 2.0\nmax_iterations = 2\n")
        out = tmp_path / "o.vol"
        assert run_cli("filter", "--config", cfg, "--input", src,
                       "--output", out, "--alpha", "4.0") == 0
        manifest = parse_config(f"{out}.manifest.txt")
        assert manifest["alpha"] == "4.0"
        assert manifest["max_iterations"] == "2"

    def test_config_value_used_when_no_flag(self, tmp_path, noisy_volume):
        src, _ = noisy_volume
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 2.0\nmax_iterations = 2\n")
        out = tmp_path / "o.vol"
        assert run_cli("filter", "--config", cfg, "--input", src,
                       "--output", out) == 0
        assert parse_config(f"{out}.manifest.txt")["alpha"] == "2.0"

    def test_missing_required_option(self, capsys):
        assert run_cli("filter", "--input", "x.vol") == 2
        assert "output" in capsys.readouterr().err

    def test_bad_choice_value(self, tmp_path, noisy_volume, capsys):
        src, _ = noisy_volume
        code = run_cli("filter", "--input", src, "--output", tmp_path / "o.vol",
                       "--mode", "sideways")
        assert code == 2
        assert "mode" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, library_call", [
        (["phantom", "--out-dir", "{d}/ph", "--width", "4"],
         lambda: PhantomSpec(width=4)),
        (["filter", "--input", "{src}", "--output", "{d}/o.vol", "--step", "-1"],
         lambda: AdaptiveParams(step=-1.0)),
        (["filter", "--input", "{src}", "--output", "{d}/o.vol", "--alpha", "inf"],
         lambda: AdaptiveParams(alpha=math.inf)),
        (["swi", "--magnitude", "{src}", "--phase", "{src}", "--output", "{d}/o.vol",
          "--mask-exponent", "0"],
         lambda: PhaseMaskParams(exponent=0)),
        (["mip", "--input", "{src}", "--output", "{d}/o.vol", "--hysteresis",
          "--alpha-low", "3"],
         lambda: HysteresisParams(alpha_low=3.0)),
        (["compare", "--input", "{src}", "--output", "{d}/o.csv", "--dt", "0.5"],
         lambda: PMParams(delta=0.1, dt=0.5)),
        (["compare", "--input", "{src}", "--output", "{d}/o.csv", "--grad-threshold", "nan"],
         lambda: run_directional_ad(np.ones((3, 3)), PMParams(delta=0.1), math.nan)),
        (["metrics", "--input", "{img}", "--test", "{img}", "--output", "{d}/o.csv",
          "--roi", "0,0,0,4"],
         lambda: Roi(0, 0, 0, 4)),
    ], ids=["phantom", "filter", "filter-inf", "swi", "mip", "compare", "compare-nan",
            "metrics"])
    def test_library_rejection_is_one_config_error_line(
        self, tmp_path, noisy_volume, capsys, argv, library_call
    ):
        src, vol = noisy_volume
        img = tmp_path / "img.vol"
        write_volume(vol[0], img)
        with pytest.raises(ValueError) as rejected:
            library_call()
        args = [a.format(d=tmp_path, src=src, img=img) for a in argv]
        assert run_cli(*args) == 2
        err = capsys.readouterr().err
        assert err == f"mipdiff {argv[0]}: config error: {rejected.value}\n"

    @pytest.mark.parametrize("command", list(cli.COMMANDS))
    def test_help_lists_config(self, command, capsys):
        with pytest.raises(SystemExit) as done:
            main([command, "--help"])
        assert done.value.code == 0
        assert "--config CONFIG" in capsys.readouterr().out

    def test_config_key_in_config_file_refused(self, tmp_path, noisy_volume, capsys):
        src, _ = noisy_volume
        cfg = tmp_path / "c.cfg"
        cfg.write_text(f"config = {cfg}\n")
        assert run_cli("project", "--config", cfg, "--input", src,
                       "--output", tmp_path / "o.vol") == 2
        assert capsys.readouterr().err == (
            "mipdiff project: config error: option 'config' cannot be set from a config file\n"
        )

    @pytest.mark.parametrize("option, value", [
        ("output", "{d}/m#1.csv"), ("method", "x\ny"), ("method", " x"),
    ], ids=["hash", "newline", "leading-space"])
    def test_value_a_manifest_cannot_hold_refused(
        self, tmp_path, noisy_volume, capsys, option, value
    ):
        """A manifest line is cut at '#' and stripped, one value per line, so
        a value that would read back differently is refused before any write."""
        src, vol = noisy_volume
        img = tmp_path / "img.vol"
        write_volume(vol[0], img)
        args = {"output": tmp_path / "m.csv", "method": "x", option: value.format(d=tmp_path)}
        assert run_cli("metrics", "--input", img, "--test", img,
                       *(a for key, val in args.items() for a in (f"--{key}", val))) == 2
        assert capsys.readouterr().err.startswith(
            f"mipdiff metrics: config error: option '{option}': "
        )
        assert sorted(os.listdir(tmp_path)) == ["img.vol", "in.vol"]

    def test_params_fields_come_from_options(self, tmp_path, monkeypatch):
        """Each field of a parameter object the CLI builds is passed explicitly
        or read from the option of the same name, whose default is the
        field's own; a renamed option fails here instead of silently
        falling back to the library default."""
        built = []
        params = cli._params

        def recording(cls, v, **given):
            built.append((command, cls, set(given)))
            return params(cls, v, **given)

        monkeypatch.setattr(cli, "_params", recording)
        d = tmp_path
        vol, one = d / "fl_noisy.vol", ["--max-iterations", "1"]
        runs = {
            "phantom": ["--out-dir", d, "--stem", "fl", "--width", "12", "--height", "12",
                        "--depth", "3", "--channels", "1", "--flow"],
            "filter": ["--input", vol, "--output", d / "f.vol", *one],
            "swi": ["--magnitude", vol, "--phase", d / "fl_mask.vol", "--output", d / "s.vol",
                    *one],
            "mip": ["--input", vol, "--output", d / "m.vol", "--hysteresis", *one],
            "pc": ["--input-stem", d / "fl", "--channels", "1", "--out-stem", d / "pc", *one],
            "compare": ["--input", vol, "--output", d / "c.csv", "--iterations", "1", *one],
            "alpha-sweep": ["--input", vol, "--output", d / "a.csv", "--alphas", "1", *one],
        }
        for command, args in runs.items():
            assert run_cli(command, *args) == 0
        assert {(c, cls) for c, cls, _ in built} == {
            ("phantom", TubeSpec), ("phantom", PhantomSpec), ("filter", AdaptiveParams),
            ("swi", AdaptiveParams), ("mip", AdaptiveParams), ("mip", HysteresisParams),
            ("pc", AdaptiveParams), ("compare", PMParams), ("compare", AdaptiveParams),
            ("alpha-sweep", AdaptiveParams),
        }
        for command, cls, given in built:
            options = {o.name: o for o in cli.COMMANDS[command][1]}
            for f in fields(cls):
                if f.name in given:
                    continue
                assert f.name in options, (command, cls.__name__, f.name)
                if f.default is not MISSING:
                    assert options[f.name].default == f.default, (command, f.name)


class TestExitCodes:
    def test_missing_input_exits_1_with_path(self, tmp_path, capsys):
        code = run_cli("filter", "--input", tmp_path / "absent.vol",
                       "--output", tmp_path / "o.vol")
        assert code == 1
        assert "absent.vol" in capsys.readouterr().err

    def test_malformed_volume_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.vol"
        bad.write_bytes(b"BADMAGIC 1 1 1\n" + b"\x00" * 4)
        code = run_cli("project", "--input", bad, "--output", tmp_path / "o.vol")
        assert code == 1
        assert "bad.vol" in capsys.readouterr().err

    @pytest.mark.parametrize("failure", [
        "bad_roi", "sigma_count", "truncated", "inf_sigma", "phantom", "filter_trace",
        "project_pgm", "swi_csv", "mip_csv", "pc_pgm", "metrics", "compare", "alpha_sweep",
    ])
    def test_failed_command_leaves_no_manifest(self, tmp_path, noisy_volume, capsys, failure):
        """A failed command leaves none of its outputs and no temporary file,
        and a target that existed keeps its bytes. Each i/o case fails at
        one output: its directory is missing, or its path is a directory."""
        src, vol = noisy_volume
        img = tmp_path / "img.vol"
        write_volume(vol[0], img)
        for axis in "xyz":
            write_volume(vol[0], tmp_path / f"fl_c1_{axis}.vol")
        (tmp_path / "sigma.txt").write_text("0.05\n0.1\n")
        (tmp_path / "inf.txt").write_text("inf\n")
        short = tmp_path / "short.vol"
        short.write_bytes(src.read_bytes()[:-4])
        keep = tmp_path / "keep.vol"
        keep.write_bytes(b"keep")
        ph = tmp_path / "ph"
        ph.mkdir()
        (ph / "phantom_clean.vol").write_bytes(b"keep")
        nodir = tmp_path / "nodir"
        one = ["--max-iterations", "1"]
        # (exit code, argv, the output path the command fails at, if any)
        code, argv, bad = {
            "bad_roi": (2, ["metrics", "--input", img, "--test", img, "--roi", "1,2,3",
                            "--output", tmp_path / "m.csv"], None),
            "sigma_count": (2, ["pc", "--input-stem", tmp_path / "fl", "--channels", "1",
                                "--out-stem", tmp_path / "pc",
                                "--sigma-file", tmp_path / "sigma.txt"], None),
            "truncated": (1, ["filter", "--input", short, "--output", tmp_path / "f.vol"], None),
            "inf_sigma": (2, ["pc", "--input-stem", tmp_path / "fl", "--channels", "1",
                              "--out-stem", tmp_path / "pc",
                              "--sigma-file", tmp_path / "inf.txt", *one], None),
            "phantom": (1, ["phantom", "--out-dir", ph, "--width", "16", "--height", "16",
                            "--depth", "3"], ph / "phantom_meta.txt"),
            "filter_trace": (1, ["filter", "--input", src, "--output", keep, "--trace", *one],
                             tmp_path / "keep_trace_s1.csv"),
            "project_pgm": (1, ["project", "--input", src, "--output", keep,
                                "--pgm", nodir / "p.pgm"], nodir / "p.pgm"),
            "swi_csv": (1, ["swi", "--magnitude", src, "--phase", src, "--output", keep,
                            "--metrics-csv", nodir / "s.csv", *one], nodir / "s.csv"),
            "mip_csv": (1, ["mip", "--input", src, "--output", keep,
                            "--metrics-csv", nodir / "m.csv", *one], nodir / "m.csv"),
            "pc_pgm": (1, ["pc", "--input-stem", tmp_path / "fl", "--channels", "1",
                           "--out-stem", tmp_path / "pc", "--pgm", nodir / "p.pgm", *one],
                       nodir / "p.pgm"),
            "metrics": (1, ["metrics", "--input", img, "--test", img,
                            "--output", tmp_path / "m.csv"], tmp_path / "m.csv.manifest.txt"),
            "compare": (1, ["compare", "--input", src, "--output", tmp_path / "c.csv",
                            "--iterations", "1", *one], tmp_path / "c.csv.manifest.txt"),
            "alpha_sweep": (1, ["alpha-sweep", "--input", src, "--output", tmp_path / "a.csv",
                                "--alphas", "1", *one], tmp_path / "a.csv.manifest.txt"),
        }[failure]
        if bad is not None and bad.parent != nodir:
            bad.mkdir()
        before = {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")}
        assert run_cli(*argv) == code
        assert {p: p.read_bytes() if p.is_file() else None for p in tmp_path.rglob("*")} == before
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and ".tmp" not in err
        if bad is not None:
            assert err.endswith(f"'{bad}'\n")

    def test_success_is_zero(self, tmp_path, noisy_volume):
        src, _ = noisy_volume
        assert run_cli("project", "--input", src,
                       "--output", tmp_path / "o.vol") == 0


class TestFilterCommand:
    def test_alpha_zero_round_trips_input(self, tmp_path, noisy_volume):
        src, vol = noisy_volume
        out = tmp_path / "o.vol"
        assert run_cli("filter", "--input", src, "--output", out,
                       "--alpha", "0") == 0
        np.testing.assert_array_equal(read_volume(out), read_volume(src))

    def test_matches_library_composition(self, tmp_path, noisy_volume):
        src, _ = noisy_volume
        out = tmp_path / "o.vol"
        assert run_cli("filter", "--input", src, "--output", out,
                       "--alpha", "2.0", "--max-iterations", "3") == 0
        vol = read_volume(src)
        params = AdaptiveParams(alpha=2.0, max_iterations=3, mode="mip_min")
        want = np.stack([run_filter(sl, params)[0] for sl in vol])
        got = read_volume(out)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-7)  # f32 payload

    def test_trace_files_per_slice(self, tmp_path, noisy_volume):
        src, vol = noisy_volume
        out = tmp_path / "o.vol"
        assert run_cli("filter", "--input", src, "--output", out,
                       "--alpha", "1.0", "--max-iterations", "2", "--trace") == 0
        for k in range(vol.shape[0]):
            _, trace = run_filter(vol[k], AdaptiveParams(alpha=1.0, max_iterations=2))
            lines = (tmp_path / f"o_trace_s{k}.csv").read_text().splitlines()
            assert lines[0] == "iteration,relative_change"
            assert lines[1].startswith("1,")
            assert len(lines) == trace.iterations + 1

    def test_manifest_lists_effective_params(self, tmp_path, noisy_volume):
        src, _ = noisy_volume
        out = tmp_path / "o.vol"
        assert run_cli("filter", "--input", src, "--output", out) == 0
        manifest = parse_config(f"{out}.manifest.txt")
        for key in ("alpha", "step", "tolerance", "max_iterations", "mode"):
            assert key in manifest

    def test_manifest_rerun_is_bit_identical(self, tmp_path, noisy_volume):
        src, _ = noisy_volume
        out = tmp_path / "o.vol"
        assert run_cli("filter", "--input", src, "--output", out,
                       "--alpha", "3.0", "--max-iterations", "4") == 0
        first = out.read_bytes()
        assert run_cli("filter", "--config", f"{out}.manifest.txt") == 0
        assert out.read_bytes() == first


class TestPhantomCommand:
    def test_writes_volumes_and_manifest(self, tmp_path):
        assert run_cli("phantom", "--out-dir", tmp_path / "ph", "--width", "24",
                       "--height", "24", "--depth", "6", "--seed", "5") == 0
        base = tmp_path / "ph"
        for stem in ("phantom_clean", "phantom_noisy", "phantom_mask"):
            assert (base / f"{stem}.vol").exists()
        manifest = parse_config(base / "phantom_manifest.txt")
        assert manifest["seed"] == "5"
        assert "noise_sigma" in manifest
        meta = (base / "phantom_meta.txt").read_text()
        assert "seed" in meta

    def test_rerun_from_manifest_reproduces_bits(self, tmp_path):
        assert run_cli("phantom", "--out-dir", tmp_path / "ph", "--width", "24",
                       "--height", "24", "--depth", "4", "--seed", "9") == 0
        noisy = (tmp_path / "ph" / "phantom_noisy.vol").read_bytes()
        assert run_cli("phantom", "--config",
                       tmp_path / "ph" / "phantom_manifest.txt") == 0
        assert (tmp_path / "ph" / "phantom_noisy.vol").read_bytes() == noisy

    def test_flow_outputs(self, tmp_path):
        assert run_cli("phantom", "--out-dir", tmp_path / "ph", "--stem", "fl",
                       "--width", "24", "--height", "24", "--depth", "4",
                       "--channels", "2", "--channel-sigmas", "0.05,0.1",
                       "--flow") == 0
        base = tmp_path / "ph"
        for k in (1, 2):
            for axis in ("x", "y", "z"):
                assert (base / f"fl_c{k}_{axis}.vol").exists()
        sig = (base / "fl_sigma.txt").read_text().split()
        assert [float(s) for s in sig] == [0.05, 0.1]

    def test_flow_without_channels_writes_nothing(self, tmp_path, capsys):
        out_dir = tmp_path / "ph"
        code = run_cli("phantom", "--out-dir", out_dir, "--width", "16",
                       "--height", "16", "--depth", "2", "--flow")
        assert code == 2
        assert capsys.readouterr().err == (
            "mipdiff phantom: config error: flow output needs channels >= 1\n"
        )
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ("--width", "4"),
            ("--channels", "2", "--channel-sigmas", "0.1"),
            ("--flow",),
            ("--channels", "-2"),
            ("--channel-sigmas", "0.1"),
            ("--noise-sigma", "nan"),
            ("--noise-sigma", "inf"),
            ("--channels", "2", "--channel-sigmas", "0.05,nan"),
            ("--contrast", "nan"),
            ("--contrast", "inf"),
            ("--radius", "inf"),
            ("--baseline-amplitude", "nan"),
            ("--seed", "-1"),
        ],
        ids=["width_4", "sigma_count", "flow_no_channels", "negative_channels",
             "sigmas_no_channels", "nan_noise_sigma", "inf_noise_sigma",
             "nan_channel_sigma", "nan_contrast", "inf_contrast", "inf_radius",
             "nan_baseline_amplitude", "negative_seed"],
    )
    def test_config_error_creates_no_out_dir(self, tmp_path, args):
        out_dir = tmp_path / "ph"
        assert run_cli("phantom", "--out-dir", out_dir, *args) == 2
        assert not out_dir.exists()

    def test_noise_sigma_checked_before_the_channel_sigmas_it_sets(self, tmp_path, capsys):
        assert run_cli("phantom", "--out-dir", tmp_path / "ph", "--channels", "2",
                       "--noise-sigma", "nan") == 2
        assert capsys.readouterr().err == (
            "mipdiff phantom: config error: noise_sigma must be finite and non-negative\n"
        )

    @pytest.mark.parametrize("flow", [False, True], ids=["channels", "flow"])
    def test_files_equal_library_volumes(self, tmp_path, flow):
        args = ["--width", "20", "--height", "18", "--depth", "7", "--seed", "31",
                "--baseline-amplitude", "0.2", "--channels", "2",
                "--channel-sigmas", "0.05,0.1"]
        assert run_cli("phantom", "--out-dir", tmp_path, *args,
                       *(["--flow"] if flow else [])) == 0
        tube = TubeSpec(points=((0.0, 8.5, 3.0), (19.0, 8.5, 3.0)))
        spec = PhantomSpec(width=20, height=18, depth=7, seed=31, baseline_amplitude=0.2,
                           tubes=(tube,), channels=ChannelSpec(sigmas=(0.05, 0.1)))
        out = generate(spec)
        want = {"clean": out.clean, "noisy": out.noisy, "mask": out.truth_mask}
        if flow:
            images = generate_flow(spec)
            for k in range(2):
                for axis in "xyz":
                    want[f"c{k + 1}_{axis}"] = images[axis][k]
            want["flow_clean"] = images["clean"]
            want["flow_mask"] = images["mask"]
        else:
            want.update({f"c{k + 1}": ch for k, ch in enumerate(out.channels)})
        for name, arr in want.items():
            ny, nx = arr.shape[-2:]
            nz = arr.shape[0] if arr.ndim == 3 else 1
            header = f"MIPVOL1 {nx} {ny} {nz}\n".encode("ascii")
            assert (tmp_path / f"phantom_{name}.vol").read_bytes() == (
                header + arr.astype("<f4").tobytes()
            ), name
        assert sorted(p.name for p in tmp_path.glob("*.vol")) == sorted(
            f"phantom_{name}.vol" for name in want
        )

    def test_unwritable_output_leaves_no_volume(self, tmp_path, capsys):
        (tmp_path / "phantom_mask.vol").mkdir()
        code = run_cli("phantom", "--out-dir", tmp_path, "--width", "16",
                       "--height", "16", "--depth", "3")
        assert code == 1
        assert "phantom_mask.vol" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["phantom_mask.vol"]

    def test_channel_sigma_count_mismatch(self, tmp_path, capsys):
        code = run_cli("phantom", "--out-dir", tmp_path / "ph",
                       "--channels", "3", "--channel-sigmas", "0.05,0.1")
        assert code == 2


class TestProjectAndMetrics:
    def test_project_min(self, tmp_path, noisy_volume):
        src, vol = noisy_volume
        out = tmp_path / "p.vol"
        assert run_cli("project", "--input", src, "--output", out,
                       "--kind", "min", "--pgm", tmp_path / "p.pgm") == 0
        got = read_volume(out)[0]
        np.testing.assert_allclose(got, vol.min(axis=0), atol=1e-7)
        assert (tmp_path / "p.pgm").read_bytes().startswith(b"P5\n")

    def test_metrics_identical_sentinel(self, tmp_path, noisy_volume):
        src, vol = noisy_volume
        img = tmp_path / "img.vol"
        write_volume(vol.min(axis=0), img)
        csv = tmp_path / "m.csv"
        assert run_cli("metrics", "--input", img, "--test", img,
                       "--output", csv, "--method", "self") == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "method,psnr_input,psnr_ref,cr,cpp"
        fields = lines[1].split(",")
        assert fields[0] == "self"
        assert fields[1] == "identical"
        assert fields[2] == "identical"

    @pytest.mark.parametrize("method", ["a,b", 'a"b'])
    def test_metrics_method_breaking_the_csv_refused(self, tmp_path, noisy_volume,
                                                     capsys, method):
        src, vol = noisy_volume
        img = tmp_path / "img.vol"
        write_volume(vol[0], img)
        assert run_cli("metrics", "--input", img, "--test", img,
                       "--output", tmp_path / "m.csv", "--method", method) == 2
        assert capsys.readouterr().err.startswith("mipdiff metrics: config error: option 'method': ")
        assert sorted(os.listdir(tmp_path)) == ["img.vol", "in.vol"]

    def test_metrics_method_written_as_utf8(self, tmp_path, noisy_volume):
        src, vol = noisy_volume
        img = tmp_path / "img.vol"
        write_volume(vol[0], img)
        csv = tmp_path / "m.csv"
        assert run_cli("metrics", "--input", img, "--test", img,
                       "--output", csv, "--method", "\u00e9") == 0
        assert csv.read_text(encoding="utf-8").splitlines()[1].split(",")[0] == "\u00e9"
        assert parse_config(f"{csv}.manifest.txt")["method"] == "\u00e9"

    def test_metrics_roi_and_reference(self, tmp_path):
        base = np.ones((8, 8))
        test = base + 0.1
        b, t = tmp_path / "b.vol", tmp_path / "t.vol"
        write_volume(base, b)
        write_volume(test, t)
        csv = tmp_path / "m.csv"
        assert run_cli("metrics", "--input", b, "--test", t, "--reference", b,
                       "--roi", "2,2,4,4", "--output", csv) == 0
        row = csv.read_text().splitlines()[1].split(",")
        assert abs(float(row[1]) - 20.0) < 1e-4  # f32 rounding of the 0.1 offset

    def test_metrics_rejects_stacks(self, tmp_path, noisy_volume, capsys):
        src, vol = noisy_volume
        two = tmp_path / "two.vol"
        write_volume(vol[:2], two)
        img = tmp_path / "img.vol"
        write_volume(vol[0], img)
        assert run_cli("metrics", "--input", img, "--test", two,
                       "--output", tmp_path / "m.csv") == 2
        assert capsys.readouterr().err == (
            "mipdiff metrics: config error: expected a single-slice volume, got depth 2\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["img.vol", "in.vol", "two.vol"]

    def test_metrics_bad_roi_exits_2(self, tmp_path, noisy_volume, capsys):
        src, vol = noisy_volume
        img = tmp_path / "img.vol"
        write_volume(vol.min(axis=0), img)
        code = run_cli("metrics", "--input", img, "--test", img,
                       "--roi", "1,2,3", "--output", tmp_path / "m.csv")
        assert code == 2


def manifest_digests(path) -> list:
    """(sha256, path) of each ``# input sha256`` line of a manifest."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    return [tuple(line.split()[3:5]) for line in lines if line.startswith("# input sha256 ")]


def file_sha256(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class TestStreamedRoutes:
    """Each MIPVOL input is read once, slice by slice: every command folds
    its slices, and every manifest digest comes from the pass that read
    the file."""

    @pytest.fixture
    def no_read_volume(self, monkeypatch):
        """Refuse ``read_volume``, and a second open of any file for reading,
        which on a FIFO would wait for a writer that never comes."""
        def refuse(*args, **kwargs):
            raise AssertionError("read_volume called")

        opened = []

        def open_once(path, mode="r", *args, **kwargs):
            if "r" in mode:
                assert path not in opened, f"{path} opened twice"
                opened.append(path)
            return open(path, mode, *args, **kwargs)

        assert not hasattr(cli, "read_volume")
        monkeypatch.setattr(fileio, "read_volume", refuse)
        monkeypatch.setattr(fileio, "open", open_once, raising=False)

    @pytest.fixture
    def inputs(self, tmp_path):
        """Two phantoms, a negative phase and one-slice images, for ``argv``."""
        for stem, extra in (("ph", ()), ("fl", ("--channels", "2", "--flow"))):
            assert run_cli("phantom", "--out-dir", tmp_path, "--stem", stem, "--width", "16",
                           "--height", "14", "--depth", "4", "--seed", "3", *extra) == 0
        mask = read_volume(tmp_path / "ph_mask.vol")
        write_volume(-2.0 * mask + 0.5, tmp_path / "phase.vol")
        write_volume(mask.max(axis=0), tmp_path / "img.vol")
        return tmp_path

    ONE = ["--max-iterations", "1"]
    ARGV = {
        "filter": ["--input", "{d}/ph_noisy.vol", "--output", "{d}/o.vol", *ONE],
        "project": ["--input", "{d}/ph_noisy.vol", "--output", "{d}/o.vol"],
        "mip": ["--input", "{d}/ph_noisy.vol", "--output", "{d}/o.vol",
                "--metrics-csv", "{d}/o.csv", *ONE],
        "swi": ["--magnitude", "{d}/ph_noisy.vol", "--phase", "{d}/phase.vol",
                "--output", "{d}/o.vol", "--metrics-csv", "{d}/o.csv", *ONE],
        "pc": ["--input-stem", "{d}/fl", "--channels", "2", "--out-stem", "{d}/o",
               "--sigma-file", "{d}/fl_sigma.txt", "--metrics-csv", "{d}/o.csv", *ONE],
        "metrics": ["--input", "{d}/img.vol", "--test", "{d}/fl_flow_mask.vol",
                    "--reference", "{d}/fl_flow_clean.vol", "--output", "{d}/o.csv"],
        "compare": ["--input", "{d}/ph_noisy.vol", "--reference", "{d}/ph_clean.vol",
                    "--output", "{d}/o.csv", "--iterations", "1", *ONE],
        "alpha-sweep": ["--input", "{d}/ph_noisy.vol", "--output", "{d}/o.csv", *ONE],
    }

    @pytest.mark.parametrize("command", list(ARGV))
    def test_every_command_reads_each_input_once(self, inputs, no_read_volume, command):
        argv = [a.format(d=inputs) for a in self.ARGV[command]]
        assert run_cli(command, *argv) == 0
        manifest = next(p for p in inputs.glob("o*.manifest.txt"))
        paths = [a for a in argv if a.endswith((".vol", ".txt"))
                 and not a.startswith(f"{inputs}/o")]
        if command == "pc":
            paths = [f"{inputs}/fl_c{k}_{axis}.vol" for k in (1, 2) for axis in "xyz"] + paths
        assert manifest_digests(manifest) == [(file_sha256(p), p) for p in paths]

    @pytest.mark.parametrize("command", ["compare", "swi"])
    def test_fifo_inputs_give_the_same_bytes(self, inputs, no_read_volume, command):
        argv = [a.format(d=inputs) for a in self.ARGV[command]]
        assert run_cli(command, *argv) == 0
        outputs = sorted(p for p in inputs.glob("o.*") if "manifest" not in p.name)
        want = {p: p.read_bytes() for p in outputs}
        sources = [a for a in argv if a.endswith(".vol") and not a.startswith(f"{inputs}/o")]
        fifos = [f"{p}.fifo" for p in sources]
        for p in outputs:
            p.unlink()
        with contextlib.ExitStack() as stack:
            for src, fifo in zip(sources, fifos):
                with open(src, "rb") as f:
                    stack.enter_context(fed_fifo(fifo, f.read()))
            fed = [fifos[sources.index(a)] if a in sources else a for a in argv]
            assert run_cli(command, *fed) == 0
        for p in outputs:
            assert p.read_bytes() == want[p], p.name

    @pytest.mark.parametrize("command, bad", [
        ("swi", "ph_noisy.vol"), ("swi", "phase.vol"),
        ("compare", "ph_noisy.vol"), ("alpha-sweep", "ph_noisy.vol"),
    ], ids=["swi-magnitude", "swi-phase", "compare", "alpha-sweep"])
    def test_non_finite_slice_exits_1(self, inputs, capsys, command, bad):
        vol = read_volume(inputs / bad).astype("<f4")
        vol[1, 2, 3] = np.inf
        nz, ny, nx = vol.shape
        (inputs / bad).write_bytes(f"MIPVOL1 {nx} {ny} {nz}\n".encode() + vol.tobytes())
        before = sorted(os.listdir(inputs))
        argv = [a.format(d=inputs) for a in self.ARGV[command]]
        assert run_cli(command, *argv) == 1
        assert capsys.readouterr().err == (
            f"mipdiff {command}: i/o error: {inputs / bad}: payload contains NaN or Inf samples\n"
        )
        assert sorted(os.listdir(inputs)) == before

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_project_folds_slices(self, tmp_path, noisy_volume, no_read_volume, kind):
        src, _ = noisy_volume
        out = tmp_path / "p.vol"
        assert run_cli("project", "--input", src, "--output", out, "--kind", kind) == 0
        want = getattr(read_volume(src), kind)(axis=0)
        assert read_volume(out)[0].tobytes() == want.tobytes()

    def test_mip_folds_slices(self, tmp_path, noisy_volume, no_read_volume):
        src, _ = noisy_volume
        out = tmp_path / "o.vol"
        assert run_cli("mip", "--input", src, "--output", out, "--alpha", "0",
                       "--metrics-csv", tmp_path / "m.csv") == 0
        assert manifest_digests(f"{out}.manifest.txt") == [(file_sha256(src), str(src))]

    @pytest.mark.parametrize("args", [("project",), ("filter", "--max-iterations", "1")])
    def test_trailing_bytes_hashed(self, tmp_path, noisy_volume, args):
        src, _ = noisy_volume
        with open(src, "ab") as f:
            f.write(b"trailing bytes")
        out = tmp_path / "o.vol"
        assert run_cli(*args, "--input", src, "--output", out) == 0
        assert manifest_digests(f"{out}.manifest.txt") == [(file_sha256(src), str(src))]

    def test_rewritten_input_gets_new_digest(self, tmp_path, noisy_volume):
        src, vol = noisy_volume
        out = tmp_path / "p.vol"
        assert run_cli("project", "--input", src, "--output", out) == 0
        first = manifest_digests(f"{out}.manifest.txt")
        write_volume(vol + 1.0, src)
        assert run_cli("project", "--input", src, "--output", out) == 0
        second = manifest_digests(f"{out}.manifest.txt")
        assert second == [(file_sha256(src), str(src))]
        assert second != first

    def test_every_input_digest_in_order(self, tmp_path):
        a, b = tmp_path / "a.vol", tmp_path / "b.vol"
        write_volume(np.ones((4, 5)), a)
        write_volume(np.full((4, 5), 2.0), b)
        csv = tmp_path / "m.csv"
        assert run_cli("metrics", "--input", a, "--test", b, "--reference", a,
                       "--output", csv) == 0
        assert manifest_digests(f"{csv}.manifest.txt") == [
            (file_sha256(p), str(p)) for p in (a, b, a)
        ]

    def test_pc_hashes_sigma_file(self, tmp_path):
        assert run_cli("phantom", "--out-dir", tmp_path, "--stem", "fl",
                       "--width", "16", "--height", "16", "--depth", "3",
                       "--channels", "1", "--flow") == 0
        sigma = tmp_path / "fl_sigma.txt"
        assert run_cli("pc", "--input-stem", tmp_path / "fl", "--channels", "1",
                       "--out-stem", tmp_path / "pc", "--max-iterations", "1",
                       "--sigma-file", sigma) == 0
        inputs = [tmp_path / f"fl_c1_{axis}.vol" for axis in "xyz"] + [sigma]
        got = manifest_digests(tmp_path / "pc_combined.vol.manifest.txt")
        assert got == [(file_sha256(p), str(p)) for p in inputs]

    def test_truncated_after_nan_slice_exits_1(self, tmp_path, capsys):
        vol = np.ones((4, 8, 8), dtype="<f4")
        vol[1, 2, 3] = np.nan
        src = tmp_path / "bad.vol"
        src.write_bytes(b"MIPVOL1 8 8 4\n" + vol.tobytes()[:-4])
        out = tmp_path / "p.vol"
        for command in ("project", "mip"):
            assert run_cli(command, "--input", src, "--output", out) == 1
            assert "expected 1024 payload bytes, got 1020" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["project", "metrics"])
    def test_oversized_header_exits_1(self, tmp_path, capsys, command):
        src = tmp_path / "huge.vol"
        src.write_bytes(b"MIPVOL1 100000 100000 100000\n\0\0\0\0")
        argv = {"project": ["--input", src],
                "metrics": ["--input", src, "--test", src]}[command]
        tracemalloc.start()
        try:
            code = run_cli(command, *argv, "--output", tmp_path / "o")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            f"mipdiff {command}: i/o error: {src}: "
            "expected 4000000000000000 payload bytes, got 4\n"
        )
        assert peak < 2**20

    def test_oversized_header_from_stream_exits_1(self, tmp_path, capsys):
        src = tmp_path / "huge.fifo"
        with fed_fifo(src, b"MIPVOL1 100000 100000 100000\n\0\0\0\0"):
            tracemalloc.start()
            try:
                code = run_cli("project", "--input", src, "--output", tmp_path / "o")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert code == 1
        assert capsys.readouterr().err == (
            f"mipdiff project: i/o error: {src}: "
            "expected 4000000000000000 payload bytes, got 4\n"
        )
        assert not (tmp_path / "o").exists()
        assert peak < 2 * 2**20

    @pytest.mark.parametrize("old", [None, b"keep"], ids=["absent", "existing"])
    def test_filter_of_non_finite_last_slice_writes_nothing(self, tmp_path, capsys, old):
        vol = np.ones((4, 8, 8), dtype="<f4")
        vol[3, 5, 6] = np.nan
        src = tmp_path / "bad.vol"
        src.write_bytes(b"MIPVOL1 8 8 4\n" + vol.tobytes())
        out = tmp_path / "f.vol"
        if old is not None:
            out.write_bytes(old)
        code = run_cli("filter", "--input", src, "--output", out,
                       "--max-iterations", "2", "--trace")
        assert code == 1
        assert capsys.readouterr().err == (
            f"mipdiff filter: i/o error: {src}: payload contains NaN or Inf samples\n"
        )
        assert sorted(os.listdir(tmp_path)) == sorted(["bad.vol"] + ([] if old is None else ["f.vol"]))
        if old is not None:
            assert out.read_bytes() == old

    @staticmethod
    def traced_peak(*args):
        tracemalloc.start()
        try:
            code = run_cli(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        return peak

    def test_phantom_and_filter_peak_memory(self, tmp_path):
        traced_peak = self.traced_peak
        # each 256x256x64 float64 volume is 32 MiB
        peak = traced_peak("phantom", "--out-dir", tmp_path, "--width", "256",
                           "--height", "256", "--depth", "64")
        assert peak < 12 * 2**20
        src = tmp_path / "phantom_noisy.vol"
        out = tmp_path / "f.vol"
        peak = traced_peak("filter", "--input", src, "--output", out, "--trace")
        assert peak < 12 * 2**20
        assert len(list(tmp_path.glob("f_trace_s*.csv"))) == 64
        vol = read_volume(src)
        want = run_filter(vol[40], AdaptiveParams(mode="mip_min"))[0]
        np.testing.assert_array_equal(read_volume(out)[40], want.astype("<f4"))

    def test_swi_compare_and_alpha_sweep_peak_memory(self, tmp_path):
        """Each 256x256x64 float64 volume is 32 MiB: ``swi`` and ``alpha-sweep``
        hold a few slices, ``compare`` the input's float32 slices (16 MiB)."""
        assert run_cli("phantom", "--out-dir", tmp_path, "--width", "256",
                       "--height", "256", "--depth", "64") == 0
        src, one = tmp_path / "phantom_noisy.vol", ["--max-iterations", "1"]
        assert self.traced_peak("swi", "--magnitude", src,
                                "--phase", tmp_path / "phantom_mask.vol",
                                "--output", tmp_path / "s.vol",
                                "--metrics-csv", tmp_path / "s.csv", *one) < 16 * 2**20
        assert self.traced_peak("alpha-sweep", "--input", src,
                                "--output", tmp_path / "a.csv", *one) < 16 * 2**20
        assert self.traced_peak("compare", "--input", src, "--output", tmp_path / "c.csv",
                                "--iterations", "1", *one) < 40 * 2**20

    def test_pc_peak_memory(self, tmp_path):
        """``pc`` merges each coil's x, y and z images as it reads them and
        keeps the merged channels only (four 256x256 float64 slices, 2 MiB;
        their twelve components would be 6 MiB), then filters, rescales,
        writes and folds one channel at a time. At its peak it holds the
        merged channels, the plain combination's final update and its
        mask, the running sum of squares and one channel's filter run:
        15.8 slices measured, where keeping every channel's run until the
        last had finished took 21.3."""
        assert run_cli("phantom", "--out-dir", tmp_path, "--stem", "fl", "--width", "256",
                       "--height", "256", "--depth", "16", "--channels", "4", "--flow") == 0
        out_stem = tmp_path / "pc"
        assert self.traced_peak("pc", "--input-stem", tmp_path / "fl", "--channels", "4",
                                "--out-stem", out_stem,
                                "--metrics-csv", tmp_path / "pc.csv") < 18 * 256 * 256 * 8
        components = [[read_volume(tmp_path / f"fl_c{k}_{axis}.vol")[0] for k in range(1, 5)]
                      for axis in "xyz"]
        _, want = pc_pipeline(combine_flow(*components), AdaptiveParams(mode="mip"))
        np.testing.assert_array_equal(read_volume(f"{out_stem}_combined.vol")[0],
                                      want.astype("<f4"))

    def test_project_peak_memory(self, tmp_path):
        vol = np.random.default_rng(5).normal(1.0, 0.05, (64, 256, 256)).astype("<f4")
        src = tmp_path / "big.vol"
        src.write_bytes(b"MIPVOL1 256 256 64\n" + vol.tobytes())
        want = vol.min(axis=0)
        del vol
        out = tmp_path / "p.vol"
        tracemalloc.start()
        try:
            code = run_cli("project", "--input", src, "--output", out,
                           "--pgm", tmp_path / "p.pgm")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 4 * 2**20
        np.testing.assert_array_equal(read_volume(out)[0], want)


class TestCompareCommand:
    def test_rows_and_schema(self, tmp_path, noisy_volume):
        src, _ = noisy_volume
        csv = tmp_path / "cmp.csv"
        assert run_cli("compare", "--input", src, "--output", csv,
                       "--iterations", "2", "--max-iterations", "2",
                       "--alpha", "1.0") == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "method,psnr_input,psnr_ref,cr,cpp"
        assert [ln.split(",")[0] for ln in lines[1:]] == [
            "pm", "orthogonal", "directional", "proposed",
        ]

    def test_reference_defaults_to_input(self, tmp_path, noisy_volume):
        src, _ = noisy_volume
        csv = tmp_path / "cmp.csv"
        assert run_cli("compare", "--input", src, "--output", csv,
                       "--iterations", "1", "--max-iterations", "1",
                       "--alpha", "1.0") == 0
        for line in csv.read_text().splitlines()[1:]:
            parts = line.split(",")
            assert parts[1] == parts[2]  # psnr_input == psnr_ref

    def test_default_delta_is_a_tenth_of_the_input_range(self, tmp_path, noisy_volume):
        src, _ = noisy_volume
        vol = read_volume(src)  # the float32 samples compare reads
        whole = 0.1 * (float(vol.max()) - float(vol.min()))
        first = 0.1 * (float(vol[0].max()) - float(vol[0].min()))
        assert whole != first
        csvs = {}
        for name, delta in (("default", ()), ("whole", ("--delta", repr(whole))),
                            ("first", ("--delta", repr(first)))):
            csvs[name] = tmp_path / f"{name}.csv"
            assert run_cli("compare", "--input", src, "--output", csvs[name],
                           "--iterations", "2", "--max-iterations", "1", *delta) == 0
        assert csvs["whole"].read_bytes() == csvs["default"].read_bytes()
        assert csvs["first"].read_bytes() != csvs["default"].read_bytes()

    def test_delta_whose_square_underflows_refused(self, tmp_path, noisy_volume, capsys):
        # 1e-170 ** 2 is 0: the PM weights would divide by it, and the run
        # would stop later on a NaN field instead of on the option
        src, _ = noisy_volume
        assert run_cli("compare", "--input", src, "--output", tmp_path / "cmp.csv",
                       "--delta", "1e-170") == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("mipdiff compare: config error: delta ")
        assert sorted(os.listdir(tmp_path)) == ["in.vol"]

    @pytest.mark.parametrize("kind, delta", [("rational", "1e-160"), ("rational", "1e-150"),
                                             ("exponential", "1e-160")])
    def test_delta_whose_weights_overflow_refused(self, tmp_path, noisy_volume, capsys,
                                                  kind, delta):
        # on the input's range of about 0.3, s^2/delta^2 overflows at
        # 1e-160, and at 1e-150 (1 + s^2/delta^2)^2 of the rational f''
        # does: refused before any filter runs, with no numpy warning
        src, _ = noisy_volume
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("compare", "--input", src, "--output", tmp_path / "cmp.csv",
                           "--diffusivity-kind", kind, "--delta", delta) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"mipdiff compare: config error: --delta {float(delta)!r} ")
        assert sorted(os.listdir(tmp_path)) == ["in.vol"]

    def test_smallest_deltas_without_overflow_run(self, tmp_path, noisy_volume):
        # the exponential weights take no (1 + r)^2, so they run at 1e-150
        src, vol = noisy_volume
        span = float(vol.astype(np.float32).max()) - float(vol.astype(np.float32).min())
        for kind, delta in (("exponential", 1e-150), ("rational", span / 1.15e77)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert run_cli("compare", "--input", src, "--output", tmp_path / f"{kind}.csv",
                               "--diffusivity-kind", kind, "--delta", repr(delta),
                               "--iterations", "1", "--max-iterations", "1") == 0

    def test_two_row_slices_refused_once_pm_has_run(self, tmp_path, capsys):
        # PM runs first and takes 2x40 slices; the orthogonal baseline's
        # stencils then refuse them, and nothing is written
        src = tmp_path / "thin.vol"
        write_volume(np.random.default_rng(3).normal(1.0, 0.1, (4, 2, 40)), src)
        assert run_cli("compare", "--input", src, "--output", tmp_path / "cmp.csv") == 2
        assert capsys.readouterr().err == (
            "mipdiff compare: config error: derivative stencils need at least 3x3, got 2x40\n")
        assert sorted(os.listdir(tmp_path)) == ["thin.vol"]

    def test_roi_outside_the_volume_refused_before_filtering(
            self, tmp_path, noisy_volume, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise AssertionError("a filter ran before the roi was checked")

        monkeypatch.setattr(cli, "_pm_job", boom)
        src, _ = noisy_volume
        csv = tmp_path / "cmp.csv"
        assert run_cli("compare", "--input", src, "--output", csv, "--roi", "0,0,500,500") == 2
        assert "does not fit inside a 16x16 field" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["in.vol"]


class TestAlphaSweep:
    def test_single_alpha_single_row(self, tmp_path, noisy_volume):
        src, _ = noisy_volume
        csv = tmp_path / "s.csv"
        assert run_cli("alpha-sweep", "--input", src, "--output", csv,
                       "--alphas", "2", "--max-iterations", "2") == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "alpha,psnr_input"
        assert len(lines) == 2
        assert lines[1].startswith("2.0,")

    def test_rows_sorted_ascending(self, tmp_path, noisy_volume):
        src, _ = noisy_volume
        csv = tmp_path / "s.csv"
        assert run_cli("alpha-sweep", "--input", src, "--output", csv,
                       "--alphas", "4,1", "--max-iterations", "2") == 0
        alphas = [float(ln.split(",")[0]) for ln in csv.read_text().splitlines()[1:]]
        assert alphas == [1.0, 4.0]

    def test_empty_alphas_rejected(self, tmp_path, noisy_volume, capsys):
        src, _ = noisy_volume
        assert run_cli("alpha-sweep", "--input", src,
                       "--output", tmp_path / "s.csv", "--alphas", ",") == 2


class TestSwiCommand:
    def test_identity_configuration_equals_plain_mip(self, tmp_path):
        rng = np.random.default_rng(3)
        mag = 1.0 + 0.05 * rng.normal(0.0, 1.0, (3, 12, 12))
        phase = np.abs(rng.uniform(0.1, 2.0, (3, 12, 12)))
        mpath, ppath = tmp_path / "m.vol", tmp_path / "p.vol"
        write_volume(mag, mpath)
        write_volume(phase, ppath)
        out = tmp_path / "swi.vol"
        assert run_cli("swi", "--magnitude", mpath, "--phase", ppath,
                       "--output", out, "--alpha", "0",
                       "--metrics-csv", tmp_path / "m.csv") == 0
        got = read_volume(out)[0]
        np.testing.assert_array_equal(got, project(read_volume(mpath), "min"))
        first_row = (tmp_path / "m.csv").read_text().splitlines()[1]
        assert first_row.startswith("swi,identical")

    def test_phase_clipped_to_pi_accepted(self, tmp_path):
        # float32 stores +-pi as +-3.1415927410..., just outside [-pi, pi]
        phase = np.clip(np.linspace(-4.0, 4.0, 2 * 8 * 8).reshape(2, 8, 8), -math.pi, math.pi)
        mpath, ppath = tmp_path / "m.vol", tmp_path / "p.vol"
        write_volume(np.ones((2, 8, 8)), mpath)
        write_volume(phase, ppath)
        out = tmp_path / "swi.vol"
        assert run_cli("swi", "--magnitude", mpath, "--phase", ppath,
                       "--output", out, "--alpha", "0") == 0
        got = read_volume(out)[0]
        assert got.min() == 0.0 and got.max() <= 1.0

    def test_phase_magnitude_shape_mismatch_exits_2(self, tmp_path, capsys):
        a, b = tmp_path / "a.vol", tmp_path / "b.vol"
        write_volume(np.ones((2, 4, 4)), a)
        write_volume(np.ones((3, 4, 4)), b)
        assert run_cli("swi", "--magnitude", a, "--phase", b,
                       "--output", tmp_path / "o.vol") == 2


class TestMipCommand:
    def test_single_slice_alpha_zero_identity(self, tmp_path):
        rng = np.random.default_rng(4)
        field = 1.0 + 0.1 * rng.normal(0.0, 1.0, (10, 10))
        src = tmp_path / "f.vol"
        write_volume(field, src)
        out = tmp_path / "o.vol"
        assert run_cli("mip", "--input", src, "--output", out, "--alpha", "0") == 0
        np.testing.assert_array_equal(read_volume(out), read_volume(src))

    def test_hysteresis_path_runs(self, tmp_path, noisy_volume):
        src, _ = noisy_volume
        out = tmp_path / "o.vol"
        assert run_cli("mip", "--input", src, "--output", out, "--hysteresis",
                       "--alpha-low", "1", "--alpha-high", "3",
                       "--max-iterations", "3",
                       "--metrics-csv", tmp_path / "m.csv") == 0
        assert out.exists()
        assert (tmp_path / "m.csv").read_text().startswith("method,")


class TestPcCommand:
    def test_end_to_end_matches_module_composition(self, tmp_path):
        assert run_cli("phantom", "--out-dir", tmp_path, "--stem", "fl",
                       "--width", "24", "--height", "24", "--depth", "4",
                       "--channels", "2", "--channel-sigmas", "0.05,0.1",
                       "--flow", "--seed", "13") == 0
        out_stem = tmp_path / "pc"
        assert run_cli("pc", "--input-stem", tmp_path / "fl", "--channels", "2",
                       "--out-stem", out_stem, "--alpha", "1.5",
                       "--max-iterations", "2",
                       "--sigma-file", tmp_path / "fl_sigma.txt") == 0
        combined = read_volume(f"{out_stem}_combined.vol")[0]

        xs, ys, zs = [], [], []
        for k in (1, 2):
            xs.append(read_volume(tmp_path / f"fl_c{k}_x.vol")[0])
            ys.append(read_volume(tmp_path / f"fl_c{k}_y.vol")[0])
            zs.append(read_volume(tmp_path / f"fl_c{k}_z.vol")[0])
        params = AdaptiveParams(alpha=1.5, max_iterations=2, mode="mip")
        _, want = pc_pipeline(combine_flow(xs, ys, zs), params, sigma=[0.05, 0.1])
        np.testing.assert_allclose(combined, want, rtol=1e-6, atol=1e-6)

    def test_missing_component_file_exits_1(self, tmp_path, capsys):
        code = run_cli("pc", "--input-stem", tmp_path / "nope", "--channels", "1",
                       "--out-stem", tmp_path / "o")
        assert code == 1
        assert "nope_c1_x.vol" in capsys.readouterr().err

    def test_sigma_count_mismatch_exits_2(self, tmp_path):
        assert run_cli("phantom", "--out-dir", tmp_path, "--stem", "fl",
                       "--width", "24", "--height", "24", "--depth", "4",
                       "--channels", "2", "--flow", "--seed", "13") == 0
        sigma = tmp_path / "one.txt"
        sigma.write_text("0.05\n")
        code = run_cli("pc", "--input-stem", tmp_path / "fl", "--channels", "2",
                       "--out-stem", tmp_path / "o", "--sigma-file", sigma)
        assert code == 2

    @pytest.mark.parametrize("tiny", ["1e-300", "1e-320"])
    def test_sigma_file_whose_sum_overflows_refused(self, tmp_path, capsys, tiny):
        # (max|M_1| / tiny)^2 overflows: refused before any filter runs, with
        # one line naming the option instead of a NaN field after a warning
        assert run_cli("phantom", "--out-dir", tmp_path, "--stem", "fl",
                       "--width", "32", "--height", "32", "--depth", "4",
                       "--channels", "2", "--flow") == 0
        capsys.readouterr()
        sigma = tmp_path / "tiny.txt"
        sigma.write_text(f"{tiny}\n0.1\n")
        code = run_cli("pc", "--input-stem", tmp_path / "fl", "--channels", "2",
                       "--out-stem", tmp_path / "o", "--sigma-file", sigma)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"mipdiff pc: config error: --sigma-file {sigma}: sigmas ")
        assert err.rstrip().endswith("overflows")
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("tiny", ["1e-154", "1e-45"])
    def test_sigma_file_whose_combination_leaves_float32_refused(self, tmp_path, capsys,
                                                                  tiny):
        # the sum is finite, but the combination of channels near 1.07 would
        # be near 1e154 or 1e45, beyond what the filter's exact range and a
        # MIPVOL file hold: refused before any filter runs
        assert run_cli("phantom", "--out-dir", tmp_path, "--stem", "fl",
                       "--width", "32", "--height", "32", "--depth", "4",
                       "--channels", "2", "--flow") == 0
        capsys.readouterr()
        sigma = tmp_path / "tiny.txt"
        sigma.write_text(f"{tiny}\n0.1\n")
        code = run_cli("pc", "--input-stem", tmp_path / "fl", "--channels", "2",
                       "--out-stem", tmp_path / "o", "--sigma-file", sigma)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"mipdiff pc: config error: --sigma-file {sigma}: sigmas ")
        assert err.rstrip().endswith("beyond float32 range")
        assert not list(tmp_path.glob("o*"))

    def test_channel_into_a_directory_leaves_nothing(self, tmp_path, capsys):
        # channels 1 and 2 are written before channel 3 is filtered; the
        # commit removes them when channel 3 cannot be written
        assert run_cli("phantom", "--out-dir", tmp_path, "--stem", "fl",
                       "--width", "16", "--height", "16", "--depth", "3",
                       "--channels", "3", "--flow") == 0
        capsys.readouterr()
        blocked = tmp_path / "o_c3.vol"
        blocked.mkdir()
        before = sorted(os.listdir(tmp_path))
        code = run_cli("pc", "--input-stem", tmp_path / "fl", "--channels", "3",
                       "--out-stem", tmp_path / "o", "--metrics-csv", tmp_path / "o.csv",
                       "--max-iterations", "1")
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("mipdiff pc: i/o error: ")
        assert str(blocked) in err
        assert sorted(os.listdir(tmp_path)) == before
        assert not os.listdir(blocked)

    def test_undecodable_sigma_file_names_option_and_path(self, tmp_path, capsys):
        assert run_cli("phantom", "--out-dir", tmp_path, "--stem", "fl",
                       "--width", "16", "--height", "16", "--depth", "3",
                       "--channels", "1", "--flow") == 0
        capsys.readouterr()
        sigma = tmp_path / "bad.txt"
        sigma.write_bytes(b"\xff0.05\n")
        code = run_cli("pc", "--input-stem", tmp_path / "fl", "--channels", "1",
                       "--out-stem", tmp_path / "o", "--sigma-file", sigma)
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"mipdiff pc: config error: --sigma-file {sigma}: not UTF-8 text")
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_sigma_file_value_not_finite_and_positive_names_option_and_path(
            self, tmp_path, capsys, value):
        assert run_cli("phantom", "--out-dir", tmp_path, "--stem", "fl",
                       "--width", "16", "--height", "16", "--depth", "3",
                       "--channels", "2", "--flow") == 0
        capsys.readouterr()
        sigma = tmp_path / "bad.txt"
        sigma.write_text(f"0.05\n{value}\n")
        code = run_cli("pc", "--input-stem", tmp_path / "fl", "--channels", "2",
                       "--out-stem", tmp_path / "o", "--sigma-file", sigma)
        assert code == 2
        assert capsys.readouterr().err == (f"mipdiff pc: config error: --sigma-file {sigma}: "
                                           "sigma values must be finite and positive\n")
        assert not list(tmp_path.glob("o*"))

    @pytest.mark.parametrize("channels", ["0", "-3"])
    def test_channels_below_one_refused_before_any_read(self, tmp_path, capsys, channels):
        # no input file exists: the option is refused before any is opened
        code = run_cli("pc", "--input-stem", tmp_path / "nope", "--channels", channels,
                       "--out-stem", tmp_path / "o", "--sigma-file", tmp_path / "nope.txt")
        assert code == 2
        assert capsys.readouterr().err == (f"mipdiff pc: config error: channels must be >= 1, "
                                           f"got {channels}\n")
        assert os.listdir(tmp_path) == []


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "mipdiff", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "mipdiff" in proc.stdout


class TestPairedStacks:
    """filter, swi, compare and alpha-sweep run stacks whose slices span two
    or more strips two at a time, one per thread, where the process may use
    two CPUs (``diffusion._stream``). At 5x300x64 each slice is two strips
    and one stack: two pairs and a lone last stack. Every file written,
    traces and manifests included, is the one-CPU run's, byte for byte;
    each command starts one worker, and leaves no thread behind."""

    ROUTES = {
        "filter mip_min": ["filter", "--input", "../in.vol", "--output", "f.vol", "--trace"],
        "filter mip": ["filter", "--input", "../in.vol", "--output", "f.vol", "--mode", "mip",
                       "--trace"],
        "compare min": ["compare", "--input", "../in.vol", "--reference", "../ref.vol",
                        "--output", "c.csv"],
        "compare max": ["compare", "--input", "../in.vol", "--reference", "../ref.vol",
                        "--kind", "max", "--output", "c.csv"],
        "alpha-sweep mip_min": ["alpha-sweep", "--input", "../in.vol", "--alphas", "0.5,2",
                                "--output", "a.csv"],
        "alpha-sweep mip": ["alpha-sweep", "--input", "../in.vol", "--mode", "mip",
                            "--alphas", "0.5,2", "--output", "a.csv"],
        "swi": ["swi", "--magnitude", "../in.vol", "--phase", "../phase.vol", "--output",
                "s.vol", "--metrics-csv", "s.csv"],
    }

    @pytest.mark.parametrize("route", ROUTES)
    def test_files_are_the_one_cpu_files(self, tmp_path, monkeypatch, route):
        rng = np.random.default_rng(5)
        shape = (5, 300, 64)
        write_volume(rng.normal(1.0, 0.1, shape), tmp_path / "in.vol")
        write_volume(rng.normal(1.0, 0.1, shape), tmp_path / "ref.vol")
        write_volume(np.clip(rng.normal(-0.4, 0.8, shape), -np.pi, np.pi), tmp_path / "phase.vol")
        started = []

        class Counted(diffusion._Worker):
            def __init__(self):
                started.append(self)
                super().__init__()

        monkeypatch.setattr(diffusion, "_Worker", Counted)
        files = {}
        for cpus in (1, 2):
            work = tmp_path / str(cpus)
            work.mkdir()
            monkeypatch.chdir(work)
            monkeypatch.setattr(diffusion, "_cpus", lambda: cpus)
            started.clear()
            threads = threading.active_count()
            assert run_cli(*self.ROUTES[route]) == 0
            assert threading.active_count() == threads
            assert len(started) == cpus - 1
            files[cpus] = {f.name: f.read_bytes() for f in sorted(work.iterdir())}
        if route.startswith("filter"):
            assert sorted(files[1]) == ["f.vol", "f.vol.manifest.txt",
                                        *(f"f_trace_s{k}.csv" for k in range(5))]
        assert files[2] == files[1]


class TestBlasThreads:
    def test_filter_is_the_same_on_any_blas_thread_count(self, tmp_path):
        """The run loop's norms are sums numpy takes itself: OpenBLAS splits
        a dot of 65536 or more values over its threads, and their partial
        sums round differently, so a 256x256 slice's trace changed with
        the thread count."""
        rng = np.random.default_rng(7)
        src = tmp_path / "in.vol"
        write_volume(rng.normal(1.0, 0.1, (2, 256, 256)), src)
        path = os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                *filter(None, [os.environ.get("PYTHONPATH")])])
        outs = {}
        for n in ("1", "2"):
            work = tmp_path / n
            work.mkdir()
            subprocess.run([sys.executable, "-m", "mipdiff", "filter", "--input", src,
                            "--output", "f.vol", "--trace"], cwd=work, check=True,
                           env=dict(os.environ, OPENBLAS_NUM_THREADS=n, PYTHONPATH=path))
            outs[n] = {f.name: f.read_bytes() for f in sorted(work.iterdir())}
        assert sorted(outs["1"]) == ["f.vol", "f.vol.manifest.txt",
                                     "f_trace_s0.csv", "f_trace_s1.csv"]
        assert outs["1"] == outs["2"]


class TestFoldsOverReusedBuffers:
    """Each fold of a command equals the library's composition on the
    volume ``read_volume`` returns. At 64x64x9 every read group holds one
    slice, so the reader refills one buffer, and the filters run on stacks
    of two slices, the last one alone: a fold or a stack that kept a view
    of that buffer instead of a copy would see later slices in place of
    earlier ones."""

    @pytest.fixture(scope="class")
    def phantom(self, tmp_path_factory):
        """The noisy volume, and as its reference another seed's noisy one,
        whose every slice counts in its projections (the clean volume's
        first slices are flat)."""
        d = tmp_path_factory.mktemp("folds")
        for stem, seed in (("in", 1234), ("ref", 7)):
            assert run_cli("phantom", "--out-dir", d, "--stem", stem, "--depth", "9",
                           "--seed", seed) == 0
        assert fileio._group(9, 64, 64) == 1
        noisy, ref = d / "in_noisy.vol", d / "ref_noisy.vol"
        return noisy, ref, read_volume(noisy), read_volume(ref)

    @staticmethod
    def fold(images, kind):
        return getattr(np, kind)(np.stack(list(images)), axis=0)

    @pytest.mark.parametrize("kind", ["min", "max"])
    def test_compare(self, tmp_path, phantom, kind):
        noisy, reference, vol, ref = phantom
        csv = tmp_path / "c.csv"
        assert run_cli("compare", "--input", noisy, "--reference", reference, "--kind", kind,
                       "--output", csv) == 0
        pm = PMParams(delta=0.1 * float(vol.max() - vol.min()))
        adaptive = AdaptiveParams(mode="mip_min" if kind == "min" else "mip")
        methods = {
            "pm": lambda sl: run_pm(sl, pm),
            "orthogonal": lambda sl: run_orthogonal(sl, pm),
            "directional": lambda sl: run_directional_ad(sl, pm),
            "proposed": lambda sl: run_filter(sl, adaptive)[0],
        }
        base, ref_proj = self.fold(vol, kind), self.fold(ref, kind)
        rows = [cli._metrics_row(name, base, ref_proj, self.fold(map(fn, vol), kind))
                for name, fn in methods.items()]
        want = ["method,psnr_input,psnr_ref,cr,cpp",
                *(",".join([m, *map(cli._fmt_metric, figures)]) for m, *figures in rows)]
        assert csv.read_text().splitlines() == want

    def test_mip_at_alpha_zero_is_the_max_projection(self, tmp_path, phantom):
        noisy, _, vol, _ = phantom
        out = tmp_path / "m.vol"
        assert run_cli("mip", "--input", noisy, "--output", out, "--alpha", "0") == 0
        np.testing.assert_array_equal(read_volume(out)[0], vol.max(axis=0))

    @pytest.mark.parametrize("mode", ["mip_min", "mip"])
    def test_alpha_sweep(self, tmp_path, phantom, mode):
        noisy, _, vol, _ = phantom
        csv = tmp_path / "a.csv"
        assert run_cli("alpha-sweep", "--input", noisy, "--mode", mode, "--alphas", "0.5,2",
                       "--output", csv) == 0
        kind = "min" if mode == "mip_min" else "max"
        base = self.fold(vol, kind)
        want = ["alpha,psnr_input"]
        for alpha in (0.5, 2.0):
            params = AdaptiveParams(alpha=alpha, mode=mode)
            img = self.fold((run_filter(sl, params)[0] for sl in vol), kind)
            want.append(f"{alpha!r},{cli._fmt_metric(psnr_vs_input(base, img))}")
        assert csv.read_text().splitlines() == want

    def test_filter(self, tmp_path, phantom):
        noisy, _, vol, _ = phantom
        out = tmp_path / "f.vol"
        assert run_cli("filter", "--input", noisy, "--output", out, "--trace") == 0
        want = [run_filter(sl, AdaptiveParams()) for sl in vol]
        np.testing.assert_array_equal(read_volume(out),
                                      np.stack([w for w, _ in want]).astype("<f4"))
        for k, (_, trace) in enumerate(want):
            lines = (tmp_path / f"f_trace_s{k}.csv").read_text().splitlines()
            assert len(lines) == 1 + trace.iterations
