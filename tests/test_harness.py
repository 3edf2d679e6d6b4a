"""Configuration parsing, checkpoints, emission formats, CLI, determinism."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdnlw.checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_checkpoint,
    save_checkpoint,
    write_checkpoint,
)
from sdnlw import cli, coupling
from sdnlw.cli import main as cli_main
from sdnlw.config import ConfigError, SimConfig, dump_config, load_config, parse_config, \
    steps
from sdnlw.coupling import CouplingOptions, coupling_distance, coupling_init, \
    run_coupling, shifted_flow_check
from sdnlw.dynamics import flow_init, full_flow, run_steps
from sdnlw.ergodics import compare_starts, two_start_convergence, worker_count
from sdnlw.runner import fmt_float, simulate_run
from sdnlw.spectral import gaussian_bump_pair, hnorm, random_pair

RNG = np.random.default_rng(9)


class TestConfig:
    def test_accepts_valid(self):
        cfg = parse_config("s = 1\nalpha = 0.3\nN = 4\n")
        assert cfg.s == 1.0 and cfg.alpha == 0.3

    def test_rejects_alpha_geq_s(self):
        with pytest.raises(ConfigError, match="alpha"):
            parse_config("s = 0.2\nalpha = 0.3\n")

    def test_rejects_negative_s(self):
        with pytest.raises(ConfigError, match="s:"):
            parse_config("s = -1\nalpha = 0.1\n")

    def test_rejects_unknown_key(self):
        with pytest.raises(ConfigError, match="bogus"):
            parse_config("bogus = 3\n")

    def test_multiple_errors_all_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config("s = -1\ndt = 0\nN = -2\n")
        msg = str(err.value)
        assert "s:" in msg and "dt:" in msg and "N:" in msg

    @pytest.mark.parametrize("text,key", [
        ("dt = nan", "dt:"),
        ("dt = inf", "dt:"),
        ("T = nan", "T:"),
        ("T = inf", "T:"),
        ("gamma = nan", "gamma:"),
        ("gamma = -inf", "gamma:"),
        ("s = nan", "s:"),
        ("M_pad = nan", "M_pad:"),
        ("obs_interval = inf", "obs_interval:"),
        ("obs_interval = nan", "obs_interval:"),
        ("blowup_threshold = nan", "blowup_threshold:"),
        ("blowup_threshold = -1", "blowup_threshold:"),
        ("blowup_threshold = 0", "blowup_threshold:"),
    ])
    def test_rejects_non_finite_and_out_of_range(self, text, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(text + "\n")

    def test_infinite_blowup_threshold_accepted(self):
        assert parse_config("blowup_threshold = inf\n").blowup_threshold == np.inf

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\nN = 6  # trailing\nseed = 42\n")
        assert cfg.N == 6 and cfg.seed == 42

    def test_observables_list(self):
        cfg = parse_config("observables = mean_u, mean_u2\n")
        assert cfg.observables == ("mean_u", "mean_u2")

    @pytest.mark.parametrize("text,value", [
        ("1", True), ("TRUE", True), ("Yes", True), ("on", True),
        ("0", False), ("False", False), ("NO", False), ("off", False),
    ])
    def test_bool_words(self, text, value):
        assert parse_config(f"linear_only = {text}\n").linear_only is value

    @pytest.mark.parametrize("text", ["ture", "2", "", "y", "none"])
    def test_bad_bool_refused(self, text):
        with pytest.raises(ConfigError, match="^linear_only: "):
            parse_config(f"linear_only = {text}\n")

    def test_round_trip_via_dump(self, tmp_path):
        cfg = SimConfig(N=6, s=0.7, alpha=0.2, dt=0.02, seed=11)
        p = tmp_path / "run.cfg"
        p.write_text(dump_config(cfg))
        assert load_config(p) == cfg

    def test_digest_stable(self):
        a, b = SimConfig(seed=1), SimConfig(seed=1)
        assert a.digest() == b.digest()
        assert a.digest() != SimConfig(seed=2).digest()

    @settings(deadline=None, max_examples=300)
    @given(st.lists(st.one_of(
        st.tuples(st.sampled_from(sorted(SimConfig.__dataclass_fields__) + ["bogus"]),
                  st.one_of(st.text(max_size=12), st.floats().map(repr),
                            st.integers().map(str))).map(" = ".join),
        st.text(max_size=20)), max_size=6).map("\n".join))
    def test_parser_refuses_with_a_message(self, text):
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            assert str(exc)
        else:
            assert isinstance(cfg, SimConfig)

    @pytest.mark.parametrize("span,dt,n", [
        (1.0, 0.05, 20), (0.1, 0.05, 2), (1.0, 0.25, 4), (0.04, 0.01, 4),
        (200.0, 0.05, 4000), (0.0, 0.01, 0),
    ])
    def test_steps_exact(self, span, dt, n):
        assert steps(span, dt, "T") == n

    @pytest.mark.parametrize("span,dt", [
        (1.1, 0.25), (0.33, 0.05), (1e-12, 0.01), (np.inf, 0.01), (np.nan, 0.01),
    ])
    def test_steps_off_grid_refused(self, span, dt):
        with pytest.raises(ConfigError, match="^T: "):
            steps(span, dt, "T")


class TestCheckpoint:
    def make_state(self, steps=7):
        cfg = SimConfig(N=4, s=1.0, gamma=0.2, dt=0.05, seed=13)
        st = flow_init(cfg, random_pair(4, np.random.default_rng(0)))
        return run_steps(st, steps)

    def test_save_load_save_identical_bytes(self):
        st = self.make_state()
        blob = save_checkpoint(st)
        again = save_checkpoint(load_checkpoint(blob))
        assert blob == again

    def test_resume_continues_bit_identically(self):
        st = self.make_state(5)
        blob = save_checkpoint(st)
        direct = run_steps(st, 5)
        resumed = run_steps(load_checkpoint(blob), 5)
        assert np.array_equal(full_flow(direct), full_flow(resumed))
        assert np.array_equal(direct.v, resumed.v)

    def test_truncated_rejected(self):
        blob = save_checkpoint(self.make_state())
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(blob[:-8])

    def test_bad_magic_rejected(self):
        blob = save_checkpoint(self.make_state())
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(b"NOTSDN" + blob[6:])

    def test_cross_dt_resume_forbidden(self):
        st = self.make_state()
        blob = save_checkpoint(st)
        other = replace(st.cfg, dt=0.01)
        with pytest.raises(CheckpointError, match="dt"):
            load_checkpoint(blob, other)

    def test_file_round_trip(self, tmp_path):
        st = self.make_state()
        p = tmp_path / "state.ckpt"
        write_checkpoint(st, p)
        back = read_checkpoint(p, st.cfg)
        assert np.array_equal(back.v, st.v)
        assert back.t == st.t and back.step == st.step


class TestRunner:
    def test_float_format_17_digits(self):
        assert fmt_float(1.0 / 3.0) == "0.33333333333333331"

    def test_simulate_outputs_deterministic(self, tmp_path):
        cfg = SimConfig(N=2, s=1.0, dt=0.05, T=1.0, seed=7,
                        observables=("mean_u", "mean_u2"))
        out1 = simulate_run(cfg, tmp_path / "a")
        out2 = simulate_run(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "series.csv").read_bytes() == \
            (tmp_path / "b" / "series.csv").read_bytes()
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["schema"] == "sdnlw-summary-1"
        header = (tmp_path / "a" / "series.csv").read_text().splitlines()[0]
        assert header == "t,mean_u,mean_u2"
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["seeds"] == [7]
        assert len(manifest["outputs"]) == 3
        env = manifest["environment"]
        assert set(env) == {"python", "numpy", "scipy", "fft", "simd", "rng_stream"}
        assert env["numpy"] == np.__version__
        assert env["fft"] in ("scipy.fft", "numpy.fft")
        assert env["rng_stream"] == {"bit_generator": "Philox4x64-10",
                                     "normals": "ziggurat",
                                     "counter": "(seed, step, block)", "version": 1}

    def test_worker_count_invariance(self, monkeypatch):
        # uneven chunks (5 seeds over 2 workers), two different starts
        cfg = SimConfig(N=2, s=1.0, dt=0.05, T=1.0,
                        observables=("mean_u2", "mean_u"))
        u2 = gaussian_bump_pair(2, 0.5)
        seeds = [3, 4, 5, 6, 7]
        reps = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("SDNLW_WORKERS", workers)
            reps[workers] = compare_starts(cfg, None, u2, 1.0, seeds)
        assert reps["1"]["seeds"] == reps["2"]["seeds"] == tuple(seeds)
        for name in cfg.observables:
            rows = [[r["observables"][name][k]
                     for k in ("avg1", "avg2", "combined_se")] for r in reps.values()]
            assert np.array_equal(rows[0], rows[1])

    @pytest.mark.parametrize("value", ["abc", "0", "-2", ""])
    def test_bad_worker_count_refused(self, monkeypatch, value):
        monkeypatch.setenv("SDNLW_WORKERS", value)
        with pytest.raises(ConfigError, match="SDNLW_WORKERS"):
            worker_count()

    @pytest.mark.parametrize("seeds", [[], [5]])
    def test_too_few_seeds_refused(self, seeds):
        cfg = SimConfig(N=2, s=1.0, dt=0.05, observables=("mean_u2",))
        for run in (compare_starts, two_start_convergence):
            with pytest.raises(ValueError, match="seeds"):
                run(cfg, None, None, 0.5, seeds)

    def test_unguarded_script_fails_fast(self, tmp_path):
        # a spawn pool started from a script without a main guard: the
        # workers die while importing it, and the pool must say so at once
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from sdnlw.config import SimConfig\n"
            "from sdnlw.ergodics import compare_starts\n"
            "cfg = SimConfig(N=2, s=1.0, dt=0.05, obs_interval=0.05,"
            " observables=('mean_u2',))\n"
            "compare_starts(cfg, None, None, 0.5, [1, 2])\n")
        src = str(Path(coupling.__file__).resolve().parents[1])
        env = dict(os.environ, SDNLW_WORKERS="2",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, str(script)], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode != 0
        assert "BrokenProcessPool" in proc.stderr


class TestCli:
    def run_cli(self, *args):
        return cli_main(list(args))

    def test_verify_exits_zero(self, capsys):
        assert self.run_cli("verify") == 0
        out = capsys.readouterr().out
        assert "identity checks passed" in out
        assert "FAIL" not in out

    def test_simulate_twice_byte_identical(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\nT = 1.0\ndt = 0.05\nseed = 7\n")
        a, b = tmp_path / "ra", tmp_path / "rb"
        assert self.run_cli("simulate", "--config", str(cfg_file),
                            "--out", str(a)) == 0
        assert self.run_cli("simulate", "--config", str(cfg_file),
                            "--out", str(b)) == 0
        assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()

    def test_invalid_config_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("s = -2\n")
        assert self.run_cli("simulate", "--config", str(bad)) == 1
        err = capsys.readouterr().err
        assert "s:" in err and "Traceback" not in err

    def test_bad_bool_exit_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("linear_only = ture\n")
        assert self.run_cli("simulate", "--config", str(bad)) == 1
        err = capsys.readouterr().err
        assert "linear_only:" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "ergodic"])
    def test_unknown_observable_exit_one(self, tmp_path, capsys, command):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\ndt = 0.05\nobservables = mean_u, nope\n")
        out = tmp_path / "out"
        assert self.run_cli(command, "--config", str(cfg_file), "--t", "0.5",
                            "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "observables:" in err and "'nope'" in err and "Traceback" not in err
        assert not out.exists()

    def test_couple_zero_perturbation_zero_cost(self, tmp_path, capsys):
        assert self.run_cli("couple", "--u2-perturbation", "0",
                            "--t", "1.0", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "couple.json").read_text())
        assert report["hcost"] == 0.0

    def test_couple_single_pass(self, tmp_path, capsys, monkeypatch):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 4\ndt = 0.05\nseed = 4\n")
        calls = Counter()
        real_step, real_eps = coupling.coupling_step, coupling.epsilon_scale

        def counting(name, real):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        monkeypatch.setattr(coupling, "coupling_step", counting("step", real_step))
        monkeypatch.setattr(coupling, "epsilon_scale", counting("eps", real_eps))
        # eps underflows at this config, so only the count of eps evaluations
        # shows whether --eps-every reaches the coupling
        for flag, eps_every, eps_calls in (((), 5, 2), (("--eps-every", "1"), 1, 10)):
            calls.clear()
            out = tmp_path / f"every{eps_every}"
            assert self.run_cli("couple", "--config", str(cfg_file), "--t", "0.5",
                                "--check-horizon", "0.25", *flag, "--out", str(out)) == 0
            assert calls == {"step": 10, "eps": eps_calls}
        monkeypatch.setattr(coupling, "coupling_step", real_step)
        monkeypatch.setattr(coupling, "epsilon_scale", real_eps)
        report = json.loads((tmp_path / "every5" / "couple.json").read_text())
        # two-pass reference at the CLI default: the full run, then the check
        # over its horizon
        cfg = load_config(cfg_file)
        u2 = gaussian_bump_pair(4, 1.0)
        opts = CouplingOptions(eps_every=5)
        rec = run_coupling(coupling_init(cfg, None, u2, opts, seed=4), 10)
        gap, _ = shifted_flow_check(cfg, None, u2, 0.25, opts, seed=4)
        assert report["hcost"] == float(rec.hcost) > 0.0
        assert report["w_h1"] == float(hnorm(rec.w))
        assert report["coupled_d1"] == float(coupling_distance(rec, 1))
        assert report["shifted_flow_rel_residual"] == gap

    @pytest.mark.parametrize("seed", ["1", "7", "401"])
    def test_couple_residual_roundoff_at_benchmark_settings(self, tmp_path, capsys, seed):
        # the `couple` benchmark workload: eps every step, bump 1.0, T = 1;
        # the two-pass trapezoid read 0.43-0.48 here
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 8\ns = 1.0\ngamma = 0.0\nalpha = 0.25\ndt = 0.05\n")
        assert self.run_cli("couple", "--config", str(cfg_file), "--seed", seed,
                            "--t", "1", "--check-horizon", "1", "--eps-every", "1",
                            "--u2-perturbation", "1.0", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "couple.json").read_text())
        assert report["shifted_flow_rel_residual"] <= 1e-12
        assert report["hcost"] > 0.0

    @pytest.mark.parametrize("flag,value,field", [
        ("--eps-every", "0", "eps_every"),
        ("--eps-every", "-3", "eps_every"),
        ("--check-horizon", "0", "check_horizon"),
        ("--check-horizon", "0.105", "check_horizon"),
        ("--t", "0.205", "T"),
    ])
    def test_couple_bad_input_exit_one(self, tmp_path, capsys, flag, value, field):
        assert self.run_cli("couple", "--t", "0.2", flag, value,
                            "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert field in err and "Traceback" not in err
        assert not (tmp_path / "couple.json").exists()

    def test_resume_roundtrip(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\nT = 0.5\ndt = 0.05\nseed = 3\n")
        out = tmp_path / "run"
        assert self.run_cli("simulate", "--config", str(cfg_file),
                            "--out", str(out)) == 0
        assert self.run_cli("resume", "--config", str(cfg_file),
                            "--checkpoint", str(out / "final.ckpt"),
                            "--t", "1.0", "--out", str(out)) == 0
        st = read_checkpoint(out / "resumed.ckpt")
        assert st.t == pytest.approx(1.0)

    def test_missing_checkpoint_exit_one(self, capsys):
        assert self.run_cli("resume", "--checkpoint", "/nonexistent.ckpt") == 1

    def test_resume_off_grid_horizon_exit_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\nT = 0.5\ndt = 0.05\nseed = 3\n")
        out = tmp_path / "run"
        assert self.run_cli("simulate", "--config", str(cfg_file),
                            "--out", str(out)) == 0
        assert self.run_cli("resume", "--checkpoint", str(out / "final.ckpt"),
                            "--t", "1.01", "--out", str(out)) == 1
        assert "T: " in capsys.readouterr().err
        assert not (out / "resumed.ckpt").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--bogus"],
        ["simulate", "--seed", "x"],
        ["verify", "--seed", "3"],
        ["verify", "--t", "1.0"],
        ["verify", "--out", "v"],
        ["stick-stats", "--t", "1.0"],
        ["resume", "--checkpoint", "c.ckpt", "--seed", "3"],
    ])
    def test_usage_error_exit_one(self, capsys, argv):
        # exit 2 means blow-up, so argparse's usage code is mapped to 1
        assert self.run_cli(*argv) == 1
        assert "usage:" in capsys.readouterr().err

    def test_help_exit_zero(self, capsys):
        assert self.run_cli("simulate", "--help") == 0

    def test_simulate_off_grid_horizon_exit_one(self, tmp_path, capsys):
        # 1.1 is 22 steps of 0.05 but not a multiple of obs_interval 0.25
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\ndt = 0.05\n")
        out = tmp_path / "r"
        assert self.run_cli("simulate", "--config", str(cfg_file), "--t", "1.1",
                            "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "T: 1.1" in err and "Traceback" not in err
        assert not (out / "series.csv").exists()

    def test_ergodic_off_grid_horizon_exit_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\ndt = 0.05\nobservables = mean_u2\n")
        assert self.run_cli("ergodic", "--config", str(cfg_file), "--seeds", "3",
                            "--t", "1.1", "--out", str(tmp_path)) == 1
        assert "T: 1.1" in capsys.readouterr().err
        assert not (tmp_path / "ergodic.json").exists()

    def test_ergodic_differs_exit_three(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\ndt = 0.05\nobservables = mean_u2\n")
        assert self.run_cli("ergodic", "--config", str(cfg_file), "--seeds", "3",
                            "--t", "0.5", "--out", str(tmp_path)) == 3
        assert "DIFFERS" in capsys.readouterr().out
        report = json.loads((tmp_path / "ergodic.json").read_text())
        assert not report["observables"]["mean_u2"]["within_3se"]

    @pytest.mark.parametrize("seeds", ["1", "0"])
    def test_ergodic_too_few_seeds_exit_one(self, tmp_path, capsys, seeds):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\ndt = 0.05\nobservables = mean_u2\n")
        assert self.run_cli("ergodic", "--config", str(cfg_file), "--seeds", seeds,
                            "--t", "0.5", "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "seeds" in err and "Traceback" not in err
        assert not (tmp_path / "ergodic.json").exists()

    def test_ergodic_bad_worker_count_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SDNLW_WORKERS", "abc")
        assert self.run_cli("ergodic", "--seeds", "3", "--t", "0.5",
                            "--out", str(tmp_path)) == 1
        assert "SDNLW_WORKERS" in capsys.readouterr().err
        assert not (tmp_path / "ergodic.json").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--amplitude", "nan"],
        ["couple", "--u2-perturbation", "nan"],
        ["ergodic", "--u2-amplitude", "inf"],
        ["ergodic", "--u2-amplitude=-inf"],
    ])
    def test_non_finite_amplitude_exit_one(self, tmp_path, capsys, argv):
        assert self.run_cli(*argv, "--t", "0.5", "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert argv[1].split("=")[0] in err and "finite" in err
        assert not any(tmp_path.iterdir())

    def test_stick_stats_flagged_exit_three(self, tmp_path, capsys, monkeypatch):
        real = cli.stationary_moment_report

        def one_flag(*args, **kw):
            rep = real(*args, **kw)
            rep["drift_flags"][0, 0] = True
            return rep

        monkeypatch.setattr(cli, "stationary_moment_report", one_flag)
        assert self.run_cli("stick-stats", "--samples", "100",
                            "--out", str(tmp_path)) == 3
        report = json.loads((tmp_path / "stick_stats.json").read_text())
        assert report["flagged_modes"] == 1

    def test_verify_fail_exit_three(self, capsys, monkeypatch):
        from sdnlw.verify import CheckResult
        monkeypatch.setattr(cli, "run_identity_suite",
                            lambda cfg: [CheckResult("broken", False, 1.0, 0.0)])
        assert self.run_cli("verify") == 3
        assert "[FAIL] broken" in capsys.readouterr().out

    def test_blowup_exit_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\nT = 5.0\ndt = 0.5\nobs_interval = 0.5\nseed = 1\n"
                            "blowup_threshold = 1e-6\n")
        code = self.run_cli("simulate", "--config", str(cfg_file),
                            "--out", str(tmp_path / "r"), "--u0", "bump",
                            "--amplitude", "50.0")
        assert code == 2
        assert "blow-up" in capsys.readouterr().err

    def test_couple_blowup_exit_two(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 4\ngamma = 0.0\ndt = 0.1\nseed = 3\n"
                            "blowup_threshold = 1e-8\n")
        code = self.run_cli("couple", "--config", str(cfg_file), "--t", "0.5",
                            "--u2-perturbation", "0.05", "--out", str(tmp_path))
        assert code == 2
        assert "blow-up signal at t=0.1" in capsys.readouterr().err
        assert not (tmp_path / "couple.json").exists()

    def test_ergodic_blowup_exit_two(self, tmp_path, capsys):
        # the bump start trips at the first step, the zero start at t = 1.45;
        # the starts run in lockstep, so the run stops at the first
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\ndt = 0.05\nseed = 0\nobservables = mean_u2\n"
                            "blowup_threshold = 0.5\n")
        code = self.run_cli("ergodic", "--config", str(cfg_file), "--seeds", "3",
                            "--t", "2.0", "--u2-amplitude", "5.0", "--out", str(tmp_path))
        assert code == 2
        assert "blow-up signal at t=0.05 " in capsys.readouterr().err
        assert not (tmp_path / "ergodic.json").exists()

    def test_entry_point_installed(self):
        proc = subprocess.run([sys.executable, "-m", "sdnlw.cli", "verify"],
                              capture_output=True, text=True)
        assert proc.returncode == 0


# public names kept without a caller in the package or the benchmark
KEPT_WITHOUT_CALLER = {
    "register_observable": "the documented extension point for observables",
    "modified_energy_F": "the paper's drift functional F",
    "krylov_bogolyubov_diagnostic": "the paper's tightness table",
    "linear_moment_report": "criterion 03's subject: the linear flow against its law",
    "two_start_convergence": "criterion 10's subject: two starts and the coupled d_n",
}


def _referenced_names(node) -> Counter:
    """Names, attributes, imported names and dotted string constants (the
    benchmark names traced functions by string) under ``node``."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rpartition(".")[2]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) \
                and all(part.isidentifier() for part in n.value.split(".")):
            out.update(n.value.split("."))
    return out


class TestPublicSurface:
    def test_every_public_definition_has_a_caller(self):
        import sdnlw
        root = Path(__file__).resolve().parents[1]
        package = sorted((root / "src" / "sdnlw").glob("*.py"))
        trees = {p: ast.parse(p.read_text()) for p in
                 package + sorted((root / "perfbench").glob("*.py"))}
        total = sum((_referenced_names(t) for t in trees.values()), Counter())
        defined, orphans = set(), []
        for path in package:
            for node in trees[path].body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                        and not node.name.startswith("_"):
                    defined.add(node.name)
                    own = _referenced_names(node)[node.name]
                    if total[node.name] == own and node.name not in sdnlw.__all__ \
                            and node.name not in KEPT_WITHOUT_CALLER:
                        orphans.append(f"{path.stem}.{node.name}")
        assert orphans == [], "no caller in src/sdnlw or perfbench; move to tests/_utils.py"
        assert set(KEPT_WITHOUT_CALLER) <= defined

    def test_all_is_explicit_and_complete(self):
        import types
        import sdnlw
        for name in sdnlw.__all__:
            assert getattr(sdnlw, name) is not None
        public = {name for name, val in vars(sdnlw).items()
                  if not name.startswith("_") and not isinstance(val, types.ModuleType)}
        assert public == set(sdnlw.__all__)
        assert len(sdnlw.__all__) == len(set(sdnlw.__all__))
