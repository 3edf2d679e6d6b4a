"""The four benchmark workloads.

Each workload is one closed-loop caller in one process: it issues its next
unit of work only when the previous one has returned.  The program receives
only seed lists and initial data generated from the workload seed.

A workload object has

* ``setup()``: the set-up after import (config file, config, initial state
  and ``coupling_init`` where the workload couples); ``setup_s`` times the
  import and this;
* ``warmup()``: one small untimed unit so caches and FFT plans are filled;
* ``unit(seed)``: one unit of work on program inputs derived from ``seed``,
  returning a :class:`UnitResult` whose check holds for any correct program;
* ``UNIT_S``: the wall time of one unit on the reference machine (2-core
  x86-64 host, numpy 2.4, scipy 1.17) at the commit that introduced the
  benchmark.  A run does ``round(seconds / UNIT_S)`` units, so the amount of
  work is fixed by ``--seconds`` and a faster program finishes sooner.
* ``STEP``: ``(module, function)`` of the outermost step function, whose
  calls give the step-time percentiles; each call advances ``STEP_BATCH``
  paths by one step.  ``kind(k)`` labels a unit's step call ``k`` by the
  work it does; calls of one kind are timed together (see ``run.profile``);
* ``UNIT_PATHS``: the paths one unit attempts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


@dataclass
class UnitResult:
    paths: int                 # paths attempted in this unit
    failed: int                # paths blown up, non-finite or failing the check
    digest: bytes              # sha256 of the unit's numerical outputs
    note: str = ""             # check detail, printed on failure
    stats: dict = field(default_factory=dict)


def sha(*chunks: bytes) -> bytes:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.digest()


def cli_call(argv: list) -> tuple[int, str]:
    """Run one ``sdnlw`` CLI command in-process; returns (exit code, output)."""
    from sdnlw.cli import main
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main([str(a) for a in argv])
    return code, out.getvalue()


class Workload:
    NAME = ""
    UNIT_S = 1.0
    STEP = ("dynamics", "v_step")
    STEP_BATCH = 1
    UNIT_PATHS = 1
    CONFIG = ""

    def __init__(self, workdir: Path):
        self.workdir = Path(workdir)
        self.cfg_path = self.workdir / f"{self.NAME}.cfg"

    def setup(self) -> None:
        from sdnlw.config import load_config
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cfg_path.write_text(self.CONFIG, encoding="utf-8")
        self.cfg = load_config(self.cfg_path)

    def warmup(self) -> None:
        raise NotImplementedError

    def unit(self, seed: int) -> UnitResult:
        raise NotImplementedError

    def kind(self, k: int) -> int:
        return 0


class Ergodic(Workload):
    """``sdnlw ergodic``: 20 seeds as one batch, zero vs bump start."""

    NAME = "ergodic"
    UNIT_S = 1.94
    SEEDS = 20
    T = 20.0
    STEP_BATCH = SEEDS
    UNIT_PATHS = 2 * SEEDS
    AMPLITUDE = 1.0
    CONFIG = ("N = 8\ns = 1.0\ngamma = 0.0\nalpha = 0.25\ndt = 0.05\n"
              "obs_interval = 0.25\nobservables = mean_u2, clipped_halpha\n")

    def setup(self) -> None:
        super().setup()
        from sdnlw.dynamics import flow_init
        from sdnlw.spectral import gaussian_bump_pair
        self.u2 = gaussian_bump_pair(self.cfg.N, self.AMPLITUDE)
        flow_init(self.cfg, self.u2, seed=list(range(self.SEEDS)),
                  batch=(self.SEEDS,))

    def _run(self, seed: int, T: float) -> UnitResult:
        out = self.workdir / "ergodic"
        code, text = cli_call(["ergodic", "--config", self.cfg_path, "--seed", seed,
                               "--seeds", self.SEEDS, "--t", T,
                               "--u2-amplitude", self.AMPLITUDE, "--out", out])
        paths = self.UNIT_PATHS
        if code not in (0, 1):
            return UnitResult(paths, paths, sha(text.encode()), text.strip())
        blob = (out / "ergodic.json").read_bytes()
        obs = json.loads(blob)["observables"]
        ok = code == 0 and all(
            o["within_3se"] and math.isfinite(o["avg1"]) and math.isfinite(o["avg2"])
            for o in obs.values())
        note = "; ".join(f"{k}: diff {o['diff']:+.3e} 3se {3 * o['combined_se']:.3e}"
                         for k, o in obs.items())
        return UnitResult(paths, 0 if ok else paths, sha(blob), note)

    def warmup(self) -> None:
        self._run(0, 1.0)

    def unit(self, seed: int) -> UnitResult:
        return self._run(seed, self.T)


class Girsanov(Workload):
    """Criterion 07 scaled down: 1000 coupled paths, 100 steps, fixed M."""

    NAME = "girsanov"
    UNIT_S = 18.6
    STEP = ("coupling", "coupling_step")
    PATHS = 1000
    STEP_BATCH = PATHS
    EPS_EVERY = 10
    UNIT_PATHS = PATHS
    STEPS = 100
    MONITOR_M = 30.0
    CONFIG = "N = 4\ns = 1.0\ngamma = 0.3\nalpha = 0.25\ndt = 0.1\n"

    def setup(self) -> None:
        super().setup()
        from sdnlw.coupling import CouplingOptions
        from sdnlw.spectral import gaussian_bump_pair
        self.u2 = gaussian_bump_pair(self.cfg.N, 0.02)
        self.opts = CouplingOptions(eps_every=self.EPS_EVERY, dt_grid=1.0)
        self._init(list(range(self.PATHS)))

    def _init(self, seeds: list):
        from sdnlw.coupling import coupling_init
        return coupling_init(self.cfg, None, self.u2, self.opts, seed=seeds,
                             batch=(len(seeds),), monitor_M=self.MONITOR_M)

    def _run(self, seeds: list, steps: int) -> UnitResult:
        from sdnlw.coupling import run_coupling
        from sdnlw.dynamics import BlowUpError
        n = len(seeds)
        try:
            rec = run_coupling(self._init(seeds), steps)
        except BlowUpError as exc:
            return UnitResult(n, n, sha(str(exc).encode()), str(exc))
        logd = np.asarray(rec.log_density, dtype=np.float64)
        finite = np.isfinite(logd) & np.isfinite(rec.hcost)
        dens = np.exp(logd[finite])
        se = float(dens.std(ddof=1) / np.sqrt(dens.size)) if dens.size > 1 else math.inf
        dev = abs(float(dens.mean()) - 1.0) if dens.size else math.inf
        stopped = int(rec.monitor.stopped.sum())
        ok = dev <= 5.0 * se
        note = (f"E[density] {float(dens.mean()):.4f} |dev| {dev:.4f} 5se {5 * se:.4f} "
                f"survival {1.0 - stopped / n:.3f}")
        digest = sha(logd.tobytes(), np.asarray(rec.hcost).tobytes(),
                     np.asarray(rec.monitor.stop_time).tobytes())
        failed = n if not ok else int(n - finite.sum())
        return UnitResult(n, failed, digest, note,
                          {"stopped": stopped, "monitored": n})

    def warmup(self) -> None:
        self._run(list(range(10**9, 10**9 + 16)), 11)

    def unit(self, seed: int) -> UnitResult:
        return self._run([seed + i for i in range(self.PATHS)], self.STEPS)

    def kind(self, k: int) -> int:
        """1 for a step that evaluates eps, 0 for a plain step."""
        return int(k % self.EPS_EVERY == 0)


class Couple(Workload):
    """``sdnlw couple``: one path, eps every step, 161-point X^alpha grid,
    with its shifted-flow check over the same horizon."""

    NAME = "couple"
    UNIT_S = 1.4
    STEP = ("coupling", "coupling_step")
    T = 1.0
    CONFIG = "N = 8\ns = 1.0\ngamma = 0.0\nalpha = 0.25\ndt = 0.05\n"

    def setup(self) -> None:
        super().setup()
        from sdnlw.coupling import CouplingOptions, coupling_init
        from sdnlw.spectral import gaussian_bump_pair
        u2 = gaussian_bump_pair(self.cfg.N, 1.0)
        coupling_init(self.cfg, None, u2, CouplingOptions(eps_every=1), seed=0)

    def _run(self, seed: int, T: float) -> UnitResult:
        out = self.workdir / "couple"
        code, text = cli_call(["couple", "--config", self.cfg_path, "--seed", seed,
                               "--t", T, "--check-horizon", T, "--eps-every", 1,
                               "--u2-perturbation", 1.0, "--out", out])
        if code != 0:
            return UnitResult(1, 1, sha(text.encode()), text.strip())
        blob = (out / "couple.json").read_bytes()
        rep = json.loads(blob)
        ok = (math.isfinite(rep["hcost"]) and 0.0 <= rep["coupled_d1"] <= 1.0
              and math.isfinite(rep["shifted_flow_rel_residual"]))
        note = (f"hcost {rep['hcost']:.4e} d1 {rep['coupled_d1']:.4e} "
                f"residual {rep['shifted_flow_rel_residual']:.3e}")
        return UnitResult(1, 0 if ok else 1, sha(blob), note)

    def warmup(self) -> None:
        self._run(0, 0.1)

    def unit(self, seed: int) -> UnitResult:
        return self._run(seed, self.T)


class Simulate(Workload):
    """``sdnlw simulate`` to T/2, ``sdnlw resume`` to T, and the
    uninterrupted ``sdnlw simulate`` to T it must equal bit for bit."""

    NAME = "simulate"
    UNIT_S = 0.37
    T = 1.0
    CONFIG = ("N = 32\ns = 1.0\ngamma = 0.0\nalpha = 0.25\ndt = 0.01\n"
              "obs_interval = 0.01\n")

    def setup(self) -> None:
        super().setup()
        from sdnlw.dynamics import flow_init
        flow_init(self.cfg)

    def _run(self, seed: int, T: float) -> UnitResult:
        split, whole = self.workdir / "split", self.workdir / "whole"
        steps = [
            ["simulate", "--config", self.cfg_path, "--seed", seed, "--t", T / 2,
             "--out", split],
            ["resume", "--checkpoint", split / "final.ckpt", "--config", self.cfg_path,
             "--t", T, "--out", split],
            ["simulate", "--config", self.cfg_path, "--seed", seed, "--t", T,
             "--out", whole],
        ]
        for argv in steps:
            code, text = cli_call(argv)
            if code != 0:
                return UnitResult(1, 1, sha(text.encode()), text.strip())
        resumed = (split / "resumed.ckpt").read_bytes()
        ok = resumed == (whole / "final.ckpt").read_bytes()
        digest = sha(resumed, (whole / "series.csv").read_bytes())
        return UnitResult(1, 0 if ok else 1, digest,
                          "" if ok else "resumed state differs from uninterrupted")

    def warmup(self) -> None:
        self._run(0, 0.04)

    def unit(self, seed: int) -> UnitResult:
        return self._run(seed, self.T)


WORKLOADS = {w.NAME: w for w in (Ergodic, Girsanov, Couple, Simulate)}
