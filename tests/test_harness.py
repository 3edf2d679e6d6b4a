"""Configuration parsing, checkpoints, emission formats, CLI, determinism."""

import argparse
import ast
import concurrent.futures
import hashlib
import importlib
import json
import multiprocessing.process
import re
import struct
import subprocess
import sys
from collections import Counter
from dataclasses import fields, replace
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
import sdnlw
from sdnlw import checkpoint, cli, coupling, dynamics, ergodics, noise, spectral
from sdnlw.cli import main as cli_main
from sdnlw.config import _RESUME_KEYS, ConfigError, SimConfig, dump_config, load_config, \
    parse_config, steps
from sdnlw.coupling import CouplingOptions, coupling_distance, coupling_init, \
    run_coupling, shifted_flow_check
from sdnlw.dynamics import flow_init, full_flow, run_steps
from sdnlw.ergodics import compare_starts
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

    @pytest.mark.parametrize("line", ["linear_only = 1", "linear_only = false",
                                      "M_pad = 2.0", "M_pad = 4"])
    def test_deleted_keys_refused(self, line):
        # the cubic is always on and the quadrature padding is fixed at 2
        key = line.split(" ", 1)[0]
        with pytest.raises(ConfigError, match=f"^{key}: unknown configuration key$"):
            parse_config(line + "\n")

    @pytest.mark.parametrize("N", [True, False, 2.5, 3.0, "4", None])
    def test_non_integer_N_refused(self, N):
        with pytest.raises(ConfigError, match=r"^N: must be an integer >= 0, got "):
            SimConfig(N=N)

    def test_non_integer_N_reported_with_the_others(self):
        with pytest.raises(ConfigError) as err:
            SimConfig(N=2.5, s=-1.0, dt=0.0)
        errs = str(err.value).split("; ")
        assert [e.split(":", 1)[0] for e in errs] == ["N", "s", "alpha", "dt"]

    @pytest.mark.parametrize("key", ["s", "gamma", "alpha", "dt", "T", "obs_interval",
                                     "blowup_threshold"])
    def test_bool_float_key_refused(self, key):
        # True compares as 1, which lies in range for most of these keys
        with pytest.raises(ConfigError, match=rf"^{key}: must be a real number, got True$"):
            SimConfig(**{key: True})

    @pytest.mark.parametrize("seed", [True, False, 2.5, 3.0, "4", None, 2**63, -2**63 - 1])
    def test_bad_seed_refused(self, seed):
        with pytest.raises(ConfigError,
                           match=r"^seed: must be an integer in \[-2\*\*63, 2\*\*63\), got "):
            SimConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, -3, 2**63 - 1, -2**63, np.int64(7)])
    def test_signed_64_bit_seed_accepted(self, seed):
        assert SimConfig(seed=seed).seed == seed

    def test_numpy_integer_N_accepted(self):
        assert SimConfig(N=np.int64(3)).N == 3

    @pytest.mark.parametrize("name", ["euler", "midpoint", "rk4"])
    def test_unknown_integrator_refused(self, name):
        # exponential Euler is the one scheme, and no key names it
        with pytest.raises(ConfigError, match="^integrator: unknown configuration key$"):
            parse_config(f"integrator = {name}\n")

    def test_readme_sample_shows_the_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        after = readme.split("Configuration is a flat `key = value` file", 1)[1]
        block = after.split("```\n", 2)[1]
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines()}
        assert keys == {f.name for f in fields(SimConfig)}
        assert parse_config(block) == SimConfig()

    def test_round_trip_via_dump(self, tmp_path):
        cfg = SimConfig(N=6, s=0.7, alpha=0.2, dt=0.02, seed=11)
        p = tmp_path / "run.cfg"
        p.write_text(dump_config(cfg))
        assert load_config(p) == cfg

    @pytest.mark.parametrize("cfg", [
        SimConfig(),
        SimConfig(N=6, s=0.7, gamma=-0.3, alpha=0.2, dt=0.02, T=3.0, seed=11,
                  observables=("mean_u", "dn_to_ref"), output_dir="runs/a b-1",
                  obs_interval=0.1, blowup_threshold=np.inf),
        SimConfig(observables=(), output_dir="", blowup_threshold=1e-300, T=0.0),
    ])
    def test_parse_inverts_dump(self, cfg):
        assert parse_config(dump_config(cfg)) == cfg

    @pytest.mark.parametrize("out", ["runs#1", "a\nb", "a\rb", " runs", "runs\t"])
    def test_output_dir_that_cannot_round_trip_refused(self, out):
        with pytest.raises(ConfigError, match="^output_dir: "):
            SimConfig(output_dir=out)

    @pytest.mark.parametrize("name", ["a b", "a=b", ""])
    def test_unselectable_observable_name_refused(self, name):
        with pytest.raises(ConfigError, match="^observables: "):
            SimConfig(observables=("mean_u", name))

    def test_repeated_observable_name_refused(self):
        with pytest.raises(ConfigError, match=r"^observables: \['mean_u2'\] listed more"):
            SimConfig(observables=("mean_u2", "mean_u2", "clipped_halpha"))
        SimConfig(observables=())  # an empty list is the run's to refuse

    @pytest.mark.parametrize("build,keys", [
        (lambda: replace(SimConfig(), s=-1.0), ["s", "alpha"]),
        (lambda: replace(SimConfig(), s=-1.0, T=-2.0), ["s", "alpha", "T"]),
        (lambda: SimConfig(observables=("mean_u2", "mean_u2")), ["observables"]),
    ], ids=["replace", "replace-three", "repeated-observable"])
    def test_every_build_is_checked(self, build, keys):
        # replace once built these, and a library run then stepped them
        with pytest.raises(ConfigError) as err:
            build()
        assert [e.split(":", 1)[0] for e in str(err.value).split("; ")] == keys

    def test_digest_stable(self):
        a, b = SimConfig(seed=1), SimConfig(seed=1)
        assert a.digest() == b.digest()
        assert a.digest() != SimConfig(seed=2).digest()

    @pytest.mark.parametrize("numpy,python", [
        ({"N": np.int64(3)}, {"N": 3}),
        ({"dt": np.float64(0.05)}, {"dt": 0.05}),
        ({"seed": np.int64(7), "T": np.float64(2.0)}, {"seed": 7, "T": 2.0}),
        ({"s": 1}, {"s": 1.0}),
    ], ids=["N", "dt", "seed-T", "int-float"])
    def test_equal_configs_one_digest(self, numpy, python):
        a, b = SimConfig(**numpy), SimConfig(**python)
        assert a == b
        assert a.digest() == b.digest() == hashlib.sha256(
            dump_config(b).encode()).hexdigest()

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
        (-0.5, 0.05), (-1.0, 0.25), (-1e-12, 0.01), (-np.inf, 0.01),
    ])
    def test_steps_off_grid_refused(self, span, dt):
        # a negative span is refused too: -0.5 / 0.05 is a whole number of
        # steps, -10, that no loop runs
        with pytest.raises(ConfigError, match="^T: "):
            steps(span, dt, "T")


def with_config_text(blob: bytes, edit) -> bytes:
    """The checkpoint ``blob`` with its stored config text replaced by
    ``edit(text)``: the u32 length sits after magic, version, kind and
    step, at byte 17, and the text follows it."""
    (n,) = struct.unpack_from("<I", blob, 17)
    text = edit(blob[21:21 + n].decode("utf-8")).encode("utf-8")
    return blob[:17] + struct.pack("<I", len(text)) + text + blob[21 + n:]


class TestCheckpoint:
    # the keys a resume may change; every other key is in _RESUME_KEYS
    MAY_CHANGE = {"T": 2.5, "seed": 99, "observables": ("mean_u4",),
                  "output_dir": "elsewhere", "obs_interval": 0.1,
                  "blowup_threshold": np.inf}
    MUST_MATCH = {"N": 5, "s": 0.9, "gamma": 0.3, "alpha": 0.2, "dt": 0.01}

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

    def test_every_key_is_matched_or_may_change(self):
        # a new SimConfig key must be placed on one side of the resume rule
        assert set(_RESUME_KEYS) == set(self.MUST_MATCH)
        assert set(_RESUME_KEYS).isdisjoint(self.MAY_CHANGE)
        assert set(_RESUME_KEYS) | set(self.MAY_CHANGE) == \
            {f.name for f in fields(SimConfig)}

    @pytest.mark.parametrize("key", _RESUME_KEYS)
    def test_changed_resume_key_refused(self, key):
        st = self.make_state()
        other = replace(st.cfg, **{key: self.MUST_MATCH[key]})
        with pytest.raises(CheckpointError, match=f"^{key}: checkpoint has "):
            load_checkpoint(save_checkpoint(st), other)

    def test_other_keys_may_change(self):
        st = self.make_state()
        other = replace(st.cfg, **self.MAY_CHANGE)
        back = load_checkpoint(save_checkpoint(st), other)
        assert back.cfg == replace(other, seed=st.cfg.seed)
        assert np.array_equal(back.v, st.v) and back.step == st.step

    def test_file_round_trip(self, tmp_path):
        st = self.make_state()
        p = tmp_path / "state.ckpt"
        write_checkpoint(st, p)
        back = read_checkpoint(p, st.cfg)
        assert np.array_equal(back.v, st.v)
        assert back.t == st.t and back.step == st.step

    def resume_edited(self, tmp_path, capsys, edit):
        """Exit code and stderr of ``sdnlw resume`` (no --config) on a
        checkpoint whose stored config text is ``edit(text)``."""
        p = tmp_path / "bad.ckpt"
        p.write_bytes(with_config_text(save_checkpoint(self.make_state()), edit))
        code = cli_main(["resume", "--checkpoint", str(p), "--out", str(tmp_path / "o")])
        return code, capsys.readouterr().err

    def resume_patched(self, tmp_path, capsys, key, value):
        """``resume_edited`` with the stored line of ``key`` set to ``value``."""
        line = f"{key} = {getattr(self.make_state().cfg, key)}\n"

        def edit(text):
            assert line in text
            return text.replace(line, f"{key} = {value}\n")

        return self.resume_edited(tmp_path, capsys, edit)

    @pytest.mark.parametrize("name", ["euler", "midpoint", "rk4", "255"])
    def test_stored_integrator_refused(self, tmp_path, capsys, name):
        # the integrator key was deleted; a text naming it no longer loads
        code, err = self.resume_edited(tmp_path, capsys,
                                       lambda text: text + f"integrator = {name}\n")
        assert code == 1
        assert "integrator: unknown configuration key" in err
        assert "Traceback" not in err

    def test_stored_config_checked(self, tmp_path, capsys):
        code, err = self.resume_patched(tmp_path, capsys, "alpha", float("nan"))
        assert code == 1
        assert "alpha:" in err and "Traceback" not in err

    def test_stored_text_not_utf8_refused(self):
        blob = save_checkpoint(self.make_state())
        with pytest.raises(CheckpointError, match="^stored config refused: .*utf-8"):
            load_checkpoint(blob[:21] + b"\xff" + blob[22:])  # the text's first byte

    def test_version_1_refused(self, tmp_path, capsys):
        # a v1 header held only some config keys; the rest would be invented
        blob = save_checkpoint(self.make_state())
        v1 = blob[:6] + struct.pack("<H", 1) + blob[8:]
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 1$"):
            load_checkpoint(v1)
        p = tmp_path / "v1.ckpt"
        p.write_bytes(v1)
        assert cli_main(["resume", "--checkpoint", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "version 1" in err and "Traceback" not in err

    def test_version_2_refused(self, tmp_path, capsys):
        # a v2 header also held an f64 t, which drifted from step * dt
        st = self.make_state()
        blob = save_checkpoint(st)
        v2 = blob[:6] + struct.pack("<HBqd", 2, 1, st.step, st.t) + blob[17:]
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 2$"):
            load_checkpoint(v2)
        p = tmp_path / "v2.ckpt"
        p.write_bytes(v2)
        assert cli_main(["resume", "--checkpoint", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "version 2" in err and "Traceback" not in err

    def test_version_3_refused(self, tmp_path, capsys):
        # v3 text held the deleted integrator key
        st = self.make_state()
        v3 = with_config_text(save_checkpoint(st),
                              lambda text: text.replace("seed", "integrator = euler\nseed"))
        v3 = v3[:6] + struct.pack("<H", 3) + v3[8:]
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 3$"):
            load_checkpoint(v3)
        p = tmp_path / "v3.ckpt"
        p.write_bytes(v3)
        assert cli_main(["resume", "--checkpoint", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "unsupported checkpoint version 3" in err and "Traceback" not in err

    def test_version_4_refused(self, tmp_path, capsys):
        # v4 text held the deleted keys M_pad and linear_only, in field order
        st = self.make_state()
        v4 = with_config_text(save_checkpoint(st), lambda text: text
                              .replace("observables", "M_pad = 2.0\nobservables")
                              .replace("blowup_threshold",
                                       "linear_only = False\nblowup_threshold"))
        v4 = v4[:6] + struct.pack("<H", 4) + v4[8:]
        with pytest.raises(CheckpointError, match="unsupported checkpoint version 4$"):
            load_checkpoint(v4)
        p = tmp_path / "v4.ckpt"
        p.write_bytes(v4)
        assert cli_main(["resume", "--checkpoint", str(p), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "unsupported checkpoint version 4" in err and "Traceback" not in err

    def test_stored_keys_pinned_to_the_format_version(self):
        # checkpoints store every SimConfig key as text: a change to the key
        # set changes what a stored text parses to, so it bumps VERSION
        assert (checkpoint.VERSION, tuple(f.name for f in fields(SimConfig))) == (
            5, ("N", "s", "gamma", "alpha", "dt", "T", "seed", "observables",
                "output_dir", "obs_interval", "blowup_threshold"))

    def test_header_holds_no_time(self):
        st = self.make_state()
        text = dump_config(replace(st.cfg, seed=13)).encode("utf-8")
        head = b"SDNLW1" + struct.pack("<HBqI", 5, 1, st.step, len(text)) + text
        assert save_checkpoint(st)[:len(head)] == head
        assert load_checkpoint(save_checkpoint(st)).t == st.step * st.cfg.dt

    @pytest.mark.parametrize("keep", [20, 40], ids=["header", "config text"])
    def test_cut_before_arrays_rejected(self, keep):
        blob = save_checkpoint(self.make_state())
        with pytest.raises(CheckpointError, match="^truncated"):
            load_checkpoint(blob[:keep])

    def test_every_key_round_trips(self):
        # a key the format dropped would come back at its default
        cfg = SimConfig(N=3, s=0.9, gamma=0.1 + 0.2, alpha=0.2, dt=0.02, T=0.5,
                        seed=-2**63, observables=("mean_u2", "mean_u"),
                        output_dir="runs/a b", obs_interval=0.1,
                        blowup_threshold=np.inf)
        moved = {f.name for f in fields(cfg) if getattr(cfg, f.name) != f.default}
        assert moved == {f.name for f in fields(cfg)}
        st = run_steps(flow_init(cfg, random_pair(3, np.random.default_rng(1))), 2)
        assert load_checkpoint(save_checkpoint(st)).cfg == st.cfg

    def test_refused_state_writes_no_file(self, tmp_path):
        st = flow_init(SimConfig(N=2), seed=[1, 2], batch=(2,))
        p = tmp_path / "b.ckpt"
        with pytest.raises(CheckpointError, match="batch"):
            write_checkpoint(st, p)
        assert not p.exists()


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
        # SDNLW_WORKERS is no longer read: with it at 2 and every way to
        # start a process refused, both runs finish in-process and equal
        # the runs with it unset
        cfg = SimConfig(N=2, s=1.0, dt=0.05, T=1.0,
                        observables=("mean_u2", "mean_u"))
        u2 = gaussian_bump_pair(2, 0.5)
        seeds = [3, 4, 5, 6, 7]

        def both():
            return (compare_starts(cfg, None, u2, 1.0, seeds),
                    compare_starts(cfg, None, u2, 1.0, seeds,
                                   CouplingOptions(eps_every=5), 1, 0.5))

        monkeypatch.delenv("SDNLW_WORKERS", raising=False)
        want = both()

        def refuse(*args, **kw):
            raise AssertionError("a process was started")

        monkeypatch.setenv("SDNLW_WORKERS", "2")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        got = both()
        for rep, rep_want in zip(got, want):
            assert rep["observables"] == rep_want["observables"]
            assert rep["seeds"] == rep_want["seeds"] == tuple(seeds)
        dn, dn_want = got[1]["coupled_dn"], want[1]["coupled_dn"]
        assert np.array_equal(dn["values"], dn_want["values"])
        assert dn["final"] == dn_want["final"]

    @pytest.mark.parametrize("seeds", [[], [5], [4, 4, 4], [3, 5, 6, 5]])
    def test_too_few_seeds_refused(self, seeds):
        # repeated seeds run identical paths, which the standard error
        # counts as independent: [4, 4, 4] reported combined_se 0.0
        cfg = SimConfig(N=2, s=1.0, dt=0.05, observables=("mean_u2",))
        for opts in (None, CouplingOptions(eps_every=10)):
            with pytest.raises(ValueError, match="seeds"):
                compare_starts(cfg, None, None, 0.5, seeds, coupling_opts=opts)

    def test_nested_seeds_refused_by_the_state(self):
        # rows of seeds cannot be hashed for the repeated-seed check; the
        # state's own seed check refuses them
        cfg = SimConfig(N=2, s=1.0, dt=0.05, observables=("mean_u2",))
        with pytest.raises(ValueError, match=r"^seed of shape \(2, 2\) does not match"):
            compare_starts(cfg, None, None, 0.5, np.array([[1, 2], [3, 4]]))


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

    def test_midpoint_config_exit_one(self, tmp_path, capsys):
        # no key chooses the scheme: integrator is unknown, even as euler
        bad = tmp_path / "bad.cfg"
        for name in ("midpoint", "euler"):
            bad.write_text(f"integrator = {name}\n")
            assert self.run_cli("simulate", "--config", str(bad)) == 1
            err = capsys.readouterr().err
            assert "integrator: unknown configuration key" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("line", ["linear_only = true", "M_pad = 2.0"])
    def test_deleted_key_exit_one(self, tmp_path, capsys, line):
        bad = tmp_path / "bad.cfg"
        bad.write_text(line + "\n")
        assert self.run_cli("simulate", "--config", str(bad)) == 1
        err = capsys.readouterr().err
        key = line.split(" ", 1)[0]
        assert f"{key}: unknown configuration key" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("command", ["simulate", "ergodic"])
    @pytest.mark.parametrize("names", ["", "mean_u2, mean_u2, clipped_halpha"],
                             ids=["empty", "repeated"])
    def test_empty_or_repeated_observables_exit_one(self, tmp_path, capsys, monkeypatch,
                                                    command, names):
        # an empty list died with StopIteration (simulate) or checked nothing
        # and exited 0 (ergodic); a repeated name wrote one CSV column
        def no_step(*args, **kw):
            raise AssertionError("a step ran")

        monkeypatch.setattr(ergodics, "step_noise", no_step)
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"N = 2\ndt = 0.05\nobservables = {names}\n")
        out = tmp_path / "out"
        seeds = ["--seeds", "3"] if command == "ergodic" else []
        assert self.run_cli(command, "--config", str(cfg_file), "--t", "0.5", *seeds,
                            "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: observables: ") and "Traceback" not in err
        assert not out.exists()

    def test_simulate_bump_start(self, tmp_path, capsys):
        # the CLI builds the bump; the library takes the pair itself
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 4\nT = 1.0\ndt = 0.05\nseed = 7\n")
        assert self.run_cli("simulate", "--config", str(cfg_file), "--u0", "bump",
                            "--amplitude", "0.5", "--out", str(tmp_path / "cli")) == 0
        cfg = load_config(cfg_file)
        simulate_run(cfg, tmp_path / "lib", gaussian_bump_pair(cfg.N, 0.5))
        simulate_run(cfg, tmp_path / "zero")
        got = (tmp_path / "cli" / "series.csv").read_bytes()
        assert got == (tmp_path / "lib" / "series.csv").read_bytes()
        assert got != (tmp_path / "zero" / "series.csv").read_bytes()

    def test_amplitude_needs_a_bump_start(self, tmp_path, capsys):
        # --amplitude with the zero start was accepted and ignored
        out = tmp_path / "out"
        assert self.run_cli("simulate", "--amplitude", "5", "--t", "0.5",
                            "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --amplitude: ") and "Traceback" not in err
        assert not out.exists()
        assert self.run_cli("simulate", "--u0", "zero", "--amplitude", "1",
                            "--t", "0.5", "--out", str(out)) == 1
        assert "--amplitude" in capsys.readouterr().err and not out.exists()

    def test_bump_amplitude_defaults_to_one(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 4\nT = 0.5\ndt = 0.05\nseed = 7\n")
        assert self.run_cli("simulate", "--config", str(cfg_file), "--u0", "bump",
                            "--out", str(tmp_path / "cli")) == 0
        cfg = load_config(cfg_file)
        simulate_run(cfg, tmp_path / "lib", gaussian_bump_pair(cfg.N, 1.0))
        assert (tmp_path / "cli" / "series.csv").read_bytes() == \
            (tmp_path / "lib" / "series.csv").read_bytes()

    def test_couple_zero_perturbation_zero_cost(self, tmp_path, capsys):
        assert self.run_cli("couple", "--u2-perturbation", "0",
                            "--t", "1.0", "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "couple.json").read_text())
        assert report["hcost"] == 0.0

    def test_couple_zero_horizon_exit_one(self, tmp_path, capsys):
        # at T = 0 no step ran, and the shifted-flow residual read 0.000e+00
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\ndt = 0.05\n")
        out = tmp_path / "out"
        assert self.run_cli("couple", "--config", str(cfg_file), "--t", "0",
                            "--out", str(out)) == 1
        std = capsys.readouterr()
        assert std.out == "" and "T: " in std.err and "Traceback" not in std.err
        assert not out.exists()

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

    def test_seed_outside_64_bits_exit_one(self, tmp_path, capsys):
        # refused before any step: no traceback and no final.ckpt
        out = tmp_path / "run"
        assert self.run_cli("simulate", "--seed", str(2**63), "--t", "0.5",
                            "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err
        assert not (out / "final.ckpt").exists()

    def test_batched_seeds_outside_64_bits_refused(self):
        cfg = SimConfig(N=2, s=1.0, dt=0.05)
        with pytest.raises(ValueError, match=r"^seed 18446744073709551616 lies outside"):
            flow_init(cfg, seed=[0, 1, 2**64], batch=(3,))

    def test_missing_checkpoint_exit_one(self, capsys):
        assert self.run_cli("resume", "--checkpoint", "/nonexistent.ckpt") == 1

    @pytest.mark.parametrize("argv", [["simulate", "--config"], ["resume", "--checkpoint"]],
                             ids=["config", "checkpoint"])
    def test_directory_path_exit_one(self, tmp_path, capsys, argv):
        assert self.run_cli(*argv, str(tmp_path), "--out", str(tmp_path / "o")) == 1
        err = capsys.readouterr().err
        assert str(tmp_path) in err and "Traceback" not in err

    def test_stick_stats_seed_outside_64_bits_exit_one(self, capsys):
        # the 100 seeds count up from 2**63 - 1, past the signed range
        assert self.run_cli("stick-stats", "--seed", str(2**63 - 1),
                            "--samples", "100") == 1
        err = capsys.readouterr().err
        assert "seed" in err and "Traceback" not in err

    def test_resume_uses_stored_config(self, tmp_path, capsys):
        # with no --config and no --t the stored T is reached already, and
        # the stored output_dir takes the resumed checkpoint
        stored = tmp_path / "stored"
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"N = 2\nT = 0.5\ndt = 0.05\nseed = 3\n"
                            f"output_dir = {stored}\n")
        out = tmp_path / "run"
        assert self.run_cli("simulate", "--config", str(cfg_file),
                            "--out", str(out)) == 0
        capsys.readouterr()
        assert self.run_cli("resume", "--checkpoint", str(out / "final.ckpt")) == 0
        assert "resumed to t=0.5 (step 10)" in capsys.readouterr().out
        assert (stored / "resumed.ckpt").read_bytes() == (out / "final.ckpt").read_bytes()

    @pytest.mark.parametrize("with_config", [True, False], ids=["config", "no config"])
    def test_split_resume_equals_whole(self, tmp_path, with_config):
        # resume writes the horizon it reached into the stored T
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\ndt = 0.05\nobservables = mean_u2\n")
        config = ["--config", str(cfg_file)]
        split, whole = tmp_path / "split", tmp_path / "whole"
        assert self.run_cli("simulate", *config, "--seed", "4", "--t", "0.5",
                            "--out", str(split)) == 0
        assert self.run_cli("resume", *(config if with_config else []),
                            "--checkpoint", str(split / "final.ckpt"),
                            "--t", "1", "--out", str(split)) == 0
        assert self.run_cli("simulate", *config, "--seed", "4", "--t", "1",
                            "--out", str(whole)) == 0
        assert (split / "resumed.ckpt").read_bytes() == \
            (whole / "final.ckpt").read_bytes()

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

    @pytest.mark.parametrize("command", ["simulate", "ergodic"])
    @pytest.mark.parametrize("T", ["0", "0.25"])
    def test_window_under_two_samples_exit_one(self, tmp_path, capsys, monkeypatch,
                                               command, T):
        # [T/4, T] at obs_interval 0.25 holds one sample; the averages read nan
        def no_step(*args, **kw):
            raise AssertionError("a step ran")

        monkeypatch.setattr(ergodics, "step_noise", no_step)
        out = tmp_path / "r"
        assert self.run_cli(command, "--t", T, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"T: the averaging window [T/4, T] of T = {float(T)}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_simulate_to_50_at_dt_001(self, tmp_path, capsys):
        # the summed clock read 49.99999999999862 here and T = 50 was refused
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("N = 2\ndt = 0.01\n")
        out = tmp_path / "r"
        assert self.run_cli("simulate", "--config", str(cfg_file), "--t", "50",
                            "--out", str(out)) == 0
        last = (out / "series.csv").read_text().splitlines()[-1]
        assert last.startswith("50,")
        assert json.loads((out / "summary.json").read_text())["burn_in"] == 12.5

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
        # a kick 5% too strong puts the moments 10% off the shared stick's law
        real = noise.kick_tables
        monkeypatch.setattr(noise, "kick_tables", lambda tab, f: 1.05 * real(tab, f))
        assert self.run_cli("stick-stats", "--samples", "2000",
                            "--out", str(tmp_path)) == 3
        report = json.loads((tmp_path / "stick_stats.json").read_text())
        assert report["flagged_modes"] > 0
        assert report["flagged_modes"] == np.sum(report["flags"])

    def test_stick_stats_correct_stick_exit_zero(self, tmp_path, capsys):
        assert self.run_cli("stick-stats", "--samples", "2000",
                            "--out", str(tmp_path)) == 0
        assert "modes off the 20-step law: 0 / 289" in capsys.readouterr().out
        report = json.loads((tmp_path / "stick_stats.json").read_text())
        assert report["steps"] == 20 and np.shape(report["law"]) == (17, 17, 3)
        assert np.shape(report["stationary_gap"]) == (17, 17, 2)

    def test_stick_stats_one_sample_exit_one(self, tmp_path, capsys):
        assert self.run_cli("stick-stats", "--samples", "1", "--out", str(tmp_path)) == 1
        err = capsys.readouterr().err
        assert "samples" in err and "Traceback" not in err
        assert not any(tmp_path.iterdir())

    def test_readme_option_table_matches_parser(self):
        # each row's backticked flags are its subparser's options, but for
        # --config (every subcommand's), -h and the --T alias of --t
        ignored = {"--config", "-h", "--help", "--T"}
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = text[text.index("| subcommand | options |"):].split("\n\n")[0]
        rows = {}
        for line in table.splitlines()[2:]:
            name, options = line.strip("| ").split(" | ", 1)
            rows[name.strip("`")] = set(re.findall(r"`(--[\w-]+)", options)) - ignored
        sub, = [a for a in cli.build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        parsed = {name: {o for a in p._actions for o in a.option_strings} - ignored
                  for name, p in sub.choices.items()}
        assert "--u0" in rows["simulate"] and rows["verify"] == set()
        assert rows == parsed

    def test_verify_fail_exit_three(self, capsys, monkeypatch):
        from sdnlw.verify import CheckResult
        monkeypatch.setattr(cli, "run_identity_suite",
                            lambda cfg: [CheckResult("broken", False, 1.0, 0.0)])
        assert self.run_cli("verify") == 3
        assert "[FAIL] broken" in capsys.readouterr().out

    def test_verify_catches_an_aliased_product(self, capsys, monkeypatch):
        real = spectral.dealiased_product

        def undersized(*factors, out_N=None):
            # a grid that holds every factor and the output modes, too
            # small to dealias a projected product
            n = max(spectral.truncation_of(f) for f in factors)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(spectral, "product_grid_size",
                           lambda degree, out: 2 * max(n, out) + 1)
                return real(*factors, out_N=out_N)

        monkeypatch.setattr(spectral, "dealiased_product", undersized)
        assert self.run_cli("verify") == 3
        out = capsys.readouterr().out
        assert "[FAIL] products:" in out
        assert out.count("[FAIL]") == 1

    def test_verify_catches_a_broken_bracket(self, capsys, monkeypatch):
        real = coupling._plain_bracket

        def flipped_gamma(record, p_ph):
            cfg = record.flow.cfg
            flow = replace(record.flow, cfg=replace(cfg, gamma=-cfg.gamma))
            return real(replace(record, flow=flow), p_ph)

        monkeypatch.setattr(coupling, "_plain_bracket", flipped_gamma)
        assert self.run_cli("verify") == 3
        out = capsys.readouterr().out
        assert "[FAIL] bracket:" in out
        assert out.count("[FAIL]") == 1

    def test_verify_catches_an_aliased_cube(self, capsys, monkeypatch):
        real = dynamics.nonlinearity_field

        def undersized(x, gamma, N, x_phys=None):
            # the cube on a grid that holds x but cannot dealias x^3
            args = (x, gamma, N)
            if x_phys is not None:
                return real(*args, x_phys)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dynamics, "cube_grid_size", lambda N: 2 * N + 1)
                return real(*args)

        monkeypatch.setattr(dynamics, "nonlinearity_field", undersized)
        assert self.run_cli("verify") == 3
        assert "[FAIL] cubic:" in capsys.readouterr().out

    def test_verify_catches_a_wrong_quadratic_form(self, capsys, monkeypatch):
        real = coupling._plain_bracket

        def cropped_q(record, p_ph):
            # Q loses its top modes; B_plain stays right
            q_form, b_plain = real(record, p_ph)
            return spectral.project_leq(q_form, spectral.truncation_of(q_form) - 1), b_plain

        monkeypatch.setattr(coupling, "_plain_bracket", cropped_q)
        assert self.run_cli("verify") == 3
        out = capsys.readouterr().out
        assert "[FAIL] bracket:" in out
        assert out.count("[FAIL]") == 1

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


# public names whose only caller in the package or the benchmark is
# verify.py: an identity suite may check a route the runs do not take, but
# each such route is named here, so oracles do not enter through verify
VERIFY_ONLY = {
    "tv_bound": "the paper's total-variation bound, checked at its zero-moment edge",
    "restart_check": "the Markov restart identity of the flow",
    "semigroup_defect": "the propagator's semigroup law",
    "determinant_defect": "the propagator's Wronskian det S(t) = e^{-t}",
    "random_pair": "the identity suite's random test data",
    "energy": "the remainder's coercive energy E, against its constant-pair closed form",
    "l2_inner": "the L^2 pairing of the projection's self-adjointness check",
    "mollify": "the mollifier's composition law; the coupling step calls the "
               "unchecked kernel, as a non-finite path's eps is NaN",
}

# public names kept without a caller in the package or the benchmark
KEPT_WITHOUT_CALLER = {
    "krylov_bogolyubov_diagnostic": "the paper's tightness table",
    "linear_moment_report": "criterion 03's subject: the linear flow against its law",
}

# defaulted parameters that no call in the package or the benchmark passes
DEFAULT_ONLY = {
    ("ergodics.compare_starts", "coupling_opts"):
        "criterion 10's coupled run, the one coupled two-start experiment",
    ("ergodics.compare_starts", "dn_n"): "criterion 10's coupled run sets d_n's n",
    ("ergodics.compare_starts", "dn_every"): "criterion 10's coupled run sets the d_n cadence",
}


def _defaulted_parameters(tree, module: str) -> list:
    """(function, the name a call uses, parameter, position) of every
    parameter with a default under ``tree``.  ``__init__`` is called by its
    class name; a method's position does not count its self or cls; a
    keyword-only parameter has no position (None)."""
    out = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                called = cls if child.name == "__init__" else child.name
                a = child.args
                pos = a.posonlyargs + a.args
                skip = 0 if cls is None else 1
                out.extend((f"{module}.{called}", called, pos[i].arg, i - skip)
                           for i in range(len(pos) - len(a.defaults), len(pos)))
                out.extend((f"{module}.{called}", called, arg.arg, None)
                           for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(tree, None)
    return out


def _passes(call: ast.Call, param: str, position) -> bool:
    """Whether ``call`` passes ``param``, by name or by position; a
    ``**kw`` or ``*args`` may pass anything."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


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
        verify = root / "src" / "sdnlw" / "verify.py"
        by_verify = _referenced_names(trees[verify])
        total = sum((_referenced_names(t) for p, t in trees.items() if p != verify),
                    Counter())
        defined, orphans, verify_only, stale = set(), [], [], []
        for path in package:
            for node in trees[path].body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                        and not node.name.startswith("_"):
                    name = node.name
                    defined.add(name)
                    # verify.py's own definitions count its uses as callers
                    refs = total[name] + (by_verify[name] if path == verify else 0)
                    called = refs > _referenced_names(node)[name]
                    in_verify = path != verify and by_verify[name] > 0
                    if name in KEPT_WITHOUT_CALLER:
                        if called or in_verify:
                            stale.append(f"{path.stem}.{name}")
                    elif name in VERIFY_ONLY:
                        if called or not in_verify:
                            stale.append(f"{path.stem}.{name}")
                    elif not called and name not in sdnlw.__all__:
                        unlisted = verify_only if in_verify else orphans
                        unlisted.append(f"{path.stem}.{name}")
        assert orphans == [], "no caller in src/sdnlw or perfbench; move to tests/_utils.py"
        assert verify_only == [], "only verify.py calls it; list in VERIFY_ONLY or move it"
        assert stale == [], "the list's reason no longer holds; drop it from the list"
        assert set(KEPT_WITHOUT_CALLER) | set(VERIFY_ONLY) <= defined

    def test_every_keyword_only_parameter_is_passed_by_name(self):
        # a defaulted parameter, keyword-only or not, that no code in the
        # package or the benchmark passes is an option kept only for tests
        root = Path(__file__).resolve().parents[1]
        package = sorted((root / "src" / "sdnlw").glob("*.py"))
        callers = package + sorted((root / "perfbench").glob("*.py"))
        calls = {}
        for path in callers:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
        defaulted = [d for path in package
                     for d in _defaulted_parameters(ast.parse(path.read_text()), path.stem)]
        exempt = set(VERIFY_ONLY) | set(KEPT_WITHOUT_CALLER)
        assert ("dynamics.v_step", "v_step", "x0_phys", None) in defaulted
        assert ("dynamics.BlowUpError", "BlowUpError", "label", 2) in defaulted
        assert set(DEFAULT_ONLY) <= {(fn, param) for fn, _, param, _ in defaulted}
        unpassed = [f"{fn}({param})" for fn, name, param, pos in defaulted
                    if name not in exempt and (fn, param) not in DEFAULT_ONLY
                    and not any(_passes(c, param, pos) for c in calls.get(name, []))]
        assert unpassed == []

    def test_one_noise_hand_off(self):
        # v_step and coupling_step take their noise through one function,
        # dynamics._noise_for, which alone refuses noise of another stick
        root = Path(__file__).resolve().parents[1]
        hits = [p.name for p in sorted((root / "src" / "sdnlw").glob("*.py"))
                for _ in range(p.read_text().count('"noise: built from another stick'))]
        assert hits == ["dynamics.py"]

    def test_every_traced_name_resolves(self):
        # perfbench/spans.py names the functions it traces by string; a
        # rename in the package fails here, not only as a missing span.
        # The file is parsed, not imported.
        root = Path(__file__).resolve().parents[1]
        tree = ast.parse((root / "perfbench" / "spans.py").read_text())
        traced, = [ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["TRACED"]]
        assert "TauMMonitor.update" in traced["coupling"]
        missing = []
        for mod_name, names in traced.items():
            mod = importlib.import_module("sdnlw." + mod_name)
            for name in names:
                obj = mod
                for part in name.split("."):
                    obj = getattr(obj, part, None)
                if not callable(obj):
                    missing.append(f"{mod_name}.{name}")
        assert missing == []

    def test_version_matches_pyproject(self):
        tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
        root = Path(__file__).resolve().parents[1]
        with open(root / "pyproject.toml", "rb") as fh:
            assert tomllib.load(fh)["project"]["version"] == sdnlw.__version__

    def test_all_is_explicit_and_complete(self):
        import types
        import sdnlw
        for name in sdnlw.__all__:
            assert getattr(sdnlw, name) is not None
        public = {name for name, val in vars(sdnlw).items()
                  if not name.startswith("_") and not isinstance(val, types.ModuleType)}
        assert public == set(sdnlw.__all__)
        assert len(sdnlw.__all__) == len(set(sdnlw.__all__))
