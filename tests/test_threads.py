"""A coupling step split into row blocks on threads: the same numbers, the
same noise hand-off and the same failures as the step on the whole batch.

The split is forced on small batches by setting the thread count and the
minimum block size; at the defaults these batches are stepped whole.
"""

import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from sdnlw import coupling as cp
from sdnlw import dynamics
from sdnlw.config import SimConfig
from sdnlw.coupling import CouplingOptions, coupling_init, coupling_step, run_coupling, \
    shifted_flow_check
from sdnlw.dynamics import BlowUpError, step_noise
from sdnlw.ergodics import compare_starts
from sdnlw.spectral import gaussian_bump_pair, random_pair, zero_pair
from _utils import assert_fields_equal

CFG = SimConfig(N=4, s=1.0, gamma=0.3, alpha=0.25, dt=0.1)
OPTS = CouplingOptions(eps_every=2, dt_grid=1.0)
ROW = cp.cube_grid_size(4) ** 2  # cube-grid samples of one row at N = 4


def split_into(monkeypatch, rows: int, blocks: int, threads: int = 2) -> None:
    """Make a batch of ``rows`` rows step in ``blocks`` blocks on
    ``threads`` threads."""
    monkeypatch.setattr(cp, "_thread_count", lambda: threads)
    monkeypatch.setattr(cp, "_MIN_BLOCK_SAMPLES", rows * ROW // blocks)


def record(rows=7, data_batched=True, monitor_M=0.8, seed=5, cfg=CFG):
    """u2 = u1 + bump 0.5 on ``rows`` paths; u1 one datum per path or one
    for all."""
    u1 = 0.3 * random_pair(4, np.random.default_rng(36), decay=2.0,
                           batch=(rows,) if data_batched else ())
    return coupling_init(cfg, u1, u1 + gaussian_bump_pair(4, 0.5), OPTS,
                         seed=list(range(seed, seed + rows)), batch=(rows,),
                         monitor_M=monitor_M)


def outcome(fn, *args):
    """fn(*args), or the type and text of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc), getattr(exc, "t", None), getattr(exc, "norm", None)


class TestSplitEqualsWhole:
    @pytest.mark.parametrize("data_batched", [True, False], ids=["u1 per path", "one u1"])
    @pytest.mark.parametrize("monitor_M", [0.8, None], ids=["monitor", "no monitor"])
    def test_seven_rows_in_three_blocks(self, monkeypatch, data_batched, monitor_M):
        # eps every second step; at M = 0.8 some rows stop within 6 steps
        rec = record(data_batched=data_batched, monitor_M=monitor_M)
        assert cp._row_blocks(rec) == []
        whole = run_coupling(rec, 6)
        if monitor_M is not None:
            assert 0 < whole.monitor.stopped.sum() < 7
        split_into(monkeypatch, 7, 3)
        assert [(b.start, b.stop) for b in cp._row_blocks(rec)] == [(0, 2), (2, 4), (4, 7)]
        got = run_coupling(rec, 6)
        assert_fields_equal(got, whole)
        data_batch = (7,) if data_batched else ()
        assert got.flow.lin.shape[:-3] == got.lin_diff.shape[:-3] == data_batch

    def test_given_noise_hands_its_stick_on(self, monkeypatch):
        rec = run_coupling(record(), 3)
        noise = step_noise(rec.flow)
        whole = coupling_step(rec, noise)
        split_into(monkeypatch, 7, 3)
        got = coupling_step(rec, noise)
        assert got.flow.stick is noise.stick
        assert_fields_equal(got, whole)

    def test_stale_noise_refused(self, monkeypatch):
        # noise of the step before, of the step after, and of other seeds
        before = run_coupling(record(), 2)
        rec = coupling_step(before)
        other = run_coupling(record(seed=50), 3)
        split_into(monkeypatch, 7, 3)
        for stale in (step_noise(before.flow), step_noise(coupling_step(rec).flow),
                      step_noise(other.flow)):
            with pytest.raises(ValueError, match="^noise: built from another stick"):
                coupling_step(rec, stale)

    def test_lockstep_compare_starts(self, monkeypatch):
        cfg = SimConfig(N=4, s=1.0, gamma=0.3, alpha=0.25, dt=0.1, obs_interval=0.2,
                        observables=("mean_u2",))
        u2 = gaussian_bump_pair(4, 0.5)
        seeds = list(range(20, 27))
        whole = compare_starts(cfg, None, u2, 0.8, seeds, OPTS, dn_every=0.2)
        joined = []
        join = cp._joined
        monkeypatch.setattr(cp, "_joined", lambda *a: joined.append(1) or join(*a))
        split_into(monkeypatch, 7, 3)
        got = compare_starts(cfg, None, u2, 0.8, seeds, OPTS, dn_every=0.2)
        assert len(joined) == 8  # every step was split
        assert np.array_equal(got["coupled_dn"]["values"], whole["coupled_dn"]["values"])
        assert got["observables"] == whole["observables"]

    def test_shifted_flow_check(self, monkeypatch):
        u1 = 0.3 * random_pair(4, np.random.default_rng(8), decay=2.0, batch=(7,))
        u2 = u1 + gaussian_bump_pair(4, 0.5)
        seeds = list(range(7))
        gap, whole = shifted_flow_check(CFG, u1, u2, 0.4, OPTS, seed=seeds)
        split_into(monkeypatch, 7, 3)
        got_gap, got = shifted_flow_check(CFG, u1, u2, 0.4, OPTS, seed=seeds)
        assert got_gap == gap and gap < 1e-12
        assert_fields_equal(got, whole)


class TestSplitFailures:
    def test_blow_up_is_the_whole_steps(self, monkeypatch):
        # gamma = 0 and threshold 1e-8: row 0 (u1 != 0, u2 = u1) moves only
        # v, row 6 (u1 = 0, u2 != u1) only w.  The whole step checks w over
        # the batch first; the block of rows 0-1 alone would name v.
        cfg = SimConfig(N=4, s=1.0, gamma=0.0, alpha=0.25, dt=0.1,
                        blowup_threshold=1e-8)
        u1 = zero_pair(4, (7,))
        u1[0] = gaussian_bump_pair(4, 0.5)
        u2 = u1.copy()
        u2[6] = gaussian_bump_pair(4, 0.05)
        rec = coupling_init(cfg, u1, u2, CouplingOptions(dt_grid=1.0), seed=list(range(7)))
        whole = outcome(coupling_step, rec)
        assert whole[0] is BlowUpError and "|w|_H1" in whole[1]
        split_into(monkeypatch, 7, 3)
        first = cp._rows_of(rec, step_noise(rec.flow), cp._row_blocks(rec)[0])
        with pytest.raises(BlowUpError, match=r"\|v\|_H1"):
            cp._step_rows(*first)
        threads = threading.active_count()
        assert outcome(coupling_step, rec) == whole
        assert threading.active_count() == threads

    def test_other_errors_propagate_as_raised(self, monkeypatch):
        class Boom(Exception):
            pass

        raised = []

        def boom(record, *args):
            exc = Boom(record.flow.stick.seed[0])
            raised.append((exc, threading.get_ident()))
            raise exc

        rec = record()
        split_into(monkeypatch, 7, 3)
        monkeypatch.setattr(cp, "_moll_bracket", boom)
        threads = threading.active_count()
        with pytest.raises(Boom) as err:
            coupling_step(rec)
        # one call per block, none on the calling thread, and no whole-batch
        # retry; the first block's error in row order is the one raised
        assert len(raised) == 3
        assert threading.get_ident() not in {ident for _, ident in raised}
        assert err.value in [exc for exc, _ in raised] and err.value.args == (5,)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("over", ["ignore", "raise"])
    def test_callers_errstate_holds_in_the_blocks(self, monkeypatch, over):
        # a bump of 1e60 overflows only (no invalid operation) in its step
        with np.errstate(over="ignore"):
            rec = coupling_init(CFG, None, gaussian_bump_pair(4, 1e60), OPTS,
                                seed=list(range(7)), batch=(7,))
        with np.errstate(over=over), warnings.catch_warnings():
            warnings.simplefilter("error")
            whole = outcome(coupling_step, rec)
            split_into(monkeypatch, 7, 3)
            got = outcome(coupling_step, rec)
        assert got == whole
        assert whole[0] is (BlowUpError if over == "ignore" else FloatingPointError)

    def test_import_starts_no_thread(self):
        code = ("import threading, sdnlw, sdnlw.cli, sdnlw.coupling\n"
                "assert threading.active_count() == 1, threading.enumerate()\n")
        src = str(Path(cp.__file__).resolve().parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr


def test_stress_more_blocks_than_cores(monkeypatch):
    # 8 blocks on 4 threads, thread switches every microsecond: the noise
    # is drawn on the calling thread only, and every run equals the whole
    rec = record(rows=40)
    whole = run_coupling(rec, 4)
    split_into(monkeypatch, 40, 8, threads=4)
    assert len(cp._row_blocks(rec)) == 8
    callers = []
    draw = dynamics.sample_increment

    def recorded(*args, **kw):
        callers.append(threading.get_ident())
        return draw(*args, **kw)

    monkeypatch.setattr(dynamics, "sample_increment", recorded)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    start = time.monotonic()
    try:
        sys.setswitchinterval(1e-6)
        for _ in range(3):
            assert_fields_equal(run_coupling(rec, 4), whole)
    finally:
        sys.setswitchinterval(interval)
    assert time.monotonic() - start < 120
    assert callers == [threading.get_ident()] * 12
    assert threading.active_count() == threads
