"""Mollifier, adaptive scale, shift system, Girsanov density, tau_M, d_n."""

import dataclasses

import numpy as np
import pytest

from sdnlw import coupling as cp
from sdnlw import spectral, verify
from sdnlw.config import SimConfig
from sdnlw.coupling import (
    CouplingOptions,
    TauMMonitor,
    coupling_distance,
    coupling_init,
    coupling_step,
    d_n,
    mollify,
    epsilon_scale,
    run_coupling,
    shifted_flow_check,
    tv_bound,
)
from sdnlw.dynamics import BlowUpError, full_flow, v_step
from sdnlw.noise import NoiseIncrement, sample_increment, stick_step_shared
from sdnlw.renorm import quadratic_Q
from sdnlw.spectral import (
    dealiased_product,
    gaussian_bump_pair,
    hnorm,
    l2_norm,
    random_field,
    quad_grid_size,
    random_pair,
    resize,
    sobolev_norm,
    zero_field,
    zero_pair,
)
from sdnlw.propagator import xalpha_norm
from _utils import coarsen, constant_field, fine_increments, girsanov_log_density, \
    run_table, shift_h, tau_m_norms, tau_m_update, trapezoid_shift_check

RNG = np.random.default_rng(31)


class TestMollify:
    def test_constant_unchanged(self):
        f = constant_field(4, 3.3)
        for eps in (0.0, 0.1, 5.0):
            assert mollify(f, eps)[4, 4] == pytest.approx(3.3, abs=1e-15)

    def test_zero_eps_identity(self):
        f = random_field(5, RNG)
        assert np.array_equal(mollify(f, 0.0), f)

    def test_composition_law(self):
        f = random_field(5, RNG)
        a = mollify(mollify(f, 0.013), 0.007)
        b = mollify(f, 0.02)
        assert np.max(np.abs(a - b)) < 1e-15

    def test_smoothing_bound(self):
        # |f - f*rho_eps|_{L2} <= C eps^{theta/2} |f|_{W^{theta,2}}, C <= 1.1
        for theta in (1.0, 2.0):
            for eps in (1e-4, 1e-2, 0.3):
                f = random_field(6, RNG)
                lhs = float(l2_norm(f - mollify(f, eps)))
                rhs = eps ** (theta / 2.0) * float(sobolev_norm(f, theta, 2.0))
                assert lhs <= 1.1 * rhs

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            mollify(random_field(3, RNG), -1e-3)

    def test_batched_eps(self):
        f = random_field(3, RNG, batch=(4,))
        eps = np.array([0.0, 0.1, 0.2, 0.3])
        out = mollify(f, eps)
        assert np.array_equal(out[0], f[0])
        assert np.max(np.abs(out[1] - mollify(f[1], 0.1))) < 1e-16


def make_record(amplitude=0.5, N=4, gamma=0.3, seed=5, steps=0, batch=(),
                **opt_kw):
    cfg = SimConfig(N=N, s=1.0, gamma=gamma, alpha=0.25, dt=0.1)
    u2 = gaussian_bump_pair(N, amplitude)
    seeds = seed if batch == () else [seed + i for i in range(batch[0])]
    rec = coupling_init(cfg, None, u2, CouplingOptions(**opt_kw), seed=seeds,
                        batch=batch)
    for _ in range(steps):
        rec = coupling_step(rec)
    return rec


class TestCouplingInit:
    @pytest.mark.parametrize("u1", ["zero", "one pair", "batched"])
    def test_difference_norm_equals_batch_evaluation(self, u1):
        # the difference keeps the data's batch shape and its X^alpha is
        # evaluated once at that shape, which must equal evaluating the
        # broadcast batch row by row
        cfg = SimConfig(N=4, s=1.0, gamma=0.3, alpha=0.25, dt=0.1)
        batch = (6,)
        u1_0 = {"zero": None, "one pair": 0.1 * random_pair(4, RNG),
                "batched": 0.1 * random_pair(4, RNG, batch=batch)}[u1]
        u2_0 = gaussian_bump_pair(6, 0.5)  # cropped to N = 4
        opts = cp.CouplingOptions(dt_grid=1.0)
        rec = coupling_init(cfg, u1_0, u2_0, opts, seed=list(range(6)), batch=batch)
        diff = resize(u2_0, 4) - rec.flow.u0
        assert np.array_equal(rec.lin_diff, diff)
        rows = np.broadcast_to(diff, batch + diff.shape[-3:])
        assert np.array_equal(rec.diff0_xnorm,
                              xalpha_norm(rows, 0.25, dt_grid=1.0, pad=cfg.M_pad))


class TestHeldOnce:
    """The noise-free parts, u0, S(t) u0 and S(t) udiff, keep the data's
    batch shape and broadcast against the paths."""

    CFG = SimConfig(N=4, s=1.0, gamma=0.3, alpha=0.25, dt=0.1)
    OPTS = CouplingOptions(eps_every=2, dt_grid=1.0)

    @pytest.mark.parametrize("data_batch", [(), (3,)])
    def test_parts_keep_the_data_batch(self, data_batch):
        u1 = 0.3 * random_pair(4, RNG, decay=2.0, batch=data_batch)
        rec = coupling_init(self.CFG, u1, gaussian_bump_pair(4, 0.5), self.OPTS,
                            seed=[5, 6, 7], batch=(3,), monitor_M=3.0)
        rec = run_coupling(rec, 3)
        pair = (2, 9, 9)
        for arr in (rec.flow.u0, rec.flow.lin, rec.lin_diff):
            assert arr.shape == data_batch + pair
        for arr in (rec.flow.v, rec.flow.stick.value, rec.w):
            assert arr.shape == (3,) + pair

    def test_rows_equal_lone_runs(self):
        # a lone run has batch (1,): at batch () numpy's scalar ** can move
        # the last bit of eps (README, Reproducibility)
        u1 = 0.3 * random_pair(4, RNG, decay=2.0)
        u2 = u1 + gaussian_bump_pair(4, 0.5)
        seeds = [5, 6, 7]
        rec = run_coupling(coupling_init(self.CFG, u1, u2, self.OPTS, seed=seeds,
                                         batch=(3,), monitor_M=0.8), 6)
        assert 0 < rec.monitor.stopped.sum() < 3 and not np.all(rec.w == 0)
        for i, seed in enumerate(seeds):
            lone = run_coupling(coupling_init(self.CFG, u1, u2, self.OPTS, seed=[seed],
                                              batch=(1,), monitor_M=0.8), 6)
            for name in ("w", "hcost", "log_density", "eps", "h_last", "diff0_xnorm"):
                assert np.array_equal(getattr(rec, name)[i], getattr(lone, name)[0]), name
            assert np.array_equal(full_flow(rec.flow)[i], full_flow(lone.flow)[0])
            for name in ("running_max", "stopped", "stop_time"):
                assert np.array_equal(getattr(rec.monitor, name)[i],
                                      getattr(lone.monitor, name)[0]), name

    def test_caller_data_not_aliased(self):
        # a later write to the caller's arrays changes neither the record
        # nor its next step
        u1 = 0.3 * random_pair(4, RNG, decay=2.0)
        u2 = u1 + gaussian_bump_pair(4, 0.5)
        rec = coupling_init(self.CFG, u1, u2, self.OPTS, seed=3)
        want = coupling_step(rec)
        u1[0, 4, 4] = u2[0, 4, 4] = 99.0
        assert_fields_equal(coupling_step(rec), want)

    def test_data_not_fitting_the_paths_refused(self):
        with pytest.raises(ValueError, match=r"^u2_0: batch \(4,\)"):
            coupling_init(self.CFG, None, random_pair(4, RNG, batch=(4,)),
                          seed=[1, 2], batch=(2,))


class TestEpsilonScale:
    def test_trivial_record_gives_one(self):
        rec = make_record(amplitude=0.0, gamma=0.0)
        assert float(epsilon_scale(rec)) == pytest.approx(1.0, abs=1e-14)

    def test_monotone_in_perturbation(self):
        vals = [float(epsilon_scale(make_record(amplitude=a)))
                for a in (0.0, 0.5, 2.0)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_c_scaling_law(self):
        r1 = make_record(amplitude=0.5, C=1.0)
        r2 = make_record(amplitude=0.5, C=2.0)
        ratio = float(epsilon_scale(r2)) / float(epsilon_scale(r1))
        assert ratio == pytest.approx(2.0 ** (-2.0 / 0.25), rel=1e-13)

    def test_exponent_overrides(self):
        r = make_record(amplitude=0.5, norm_exp=3.0, pref_exp=1.0, C=2.0)
        base = float(epsilon_scale(make_record(amplitude=0.5, norm_exp=1.0,
                                               pref_exp=0.0)))
        # base^(-1) with C^0 = the norm sum inverse; cube it and divide by 2
        assert float(epsilon_scale(r)) == pytest.approx(base**3 / 2.0, rel=1e-10)


class TestBracketConsistency:
    def test_fast_path_matches_reference(self):
        rec = make_record(amplitude=0.5, steps=7, batch=(2,), eps_every=3)
        cfg = rec.flow.cfg
        q_fast, b_plain = cp._plain_bracket(rec)
        q_ref = quadratic_Q(full_flow(rec.flow), rec.w + rec.lin_diff, cfg.gamma)
        b_ref = dealiased_product(q_ref, (rec.w + rec.lin_diff)[..., 0, :, :],
                                  out_N=cfg.N)
        assert np.max(np.abs(q_fast - q_ref)) < 1e-12
        assert np.max(np.abs(b_plain - b_ref)) < 1e-12
        b_moll = cp._moll_bracket(rec, q_fast, rec.eps)
        b_moll_ref = dealiased_product(
            mollify(q_ref, rec.eps),
            rec.w[..., 0, :, :] + mollify(rec.lin_diff[..., 0, :, :], rec.eps),
            out_N=cfg.N)
        assert np.max(np.abs(b_moll - b_moll_ref)) < 1e-12

    def test_h_is_bracket_with_bracket_multiplier(self):
        rec = make_record(amplitude=0.5, steps=3)
        cfg = rec.flow.cfg
        q, _ = cp._plain_bracket(rec)
        b_moll = cp._moll_bracket(rec, q, rec.eps)
        from sdnlw.spectral import bracket_multiplier
        expect = bracket_multiplier(b_moll, cfg.s) / np.sqrt(2.0)
        assert np.max(np.abs(shift_h(rec) - expect)) < 1e-13


class TestWSystem:
    @pytest.mark.parametrize("integrator, linear_only", [("euler", False),
                                                         ("midpoint", False),
                                                         ("euler", True)])
    def test_flow_step_equals_v_step(self, integrator, linear_only):
        # the coupling hands its bracket samples of u1 to the flow step: the
        # flow it advances is bit for bit the plain v_step of the same flow
        cfg = SimConfig(N=4, s=1.0, gamma=0.4, alpha=0.25, dt=0.05,
                        integrator=integrator, linear_only=linear_only)
        rec = coupling_init(cfg, random_pair(4, RNG), gaussian_bump_pair(4, 0.5),
                            seed=[5, 6], batch=(2,))
        rec = run_coupling(rec, 3)
        incr = sample_increment(4, cfg.dt, [8, 9], rec.step)
        got = coupling_step(rec, incr).flow
        want = v_step(rec.flow, incr)
        for a, b in ((got.v, want.v), (got.lin, want.lin),
                     (got.stick.value, want.stick.value)):
            assert np.array_equal(a, b)
        assert linear_only or not np.all(rec.w == 0)

    def test_scalar_seed_refused_for_a_batch(self):
        # four paths on one stream would report four equal log-densities
        cfg = SimConfig(N=2)
        with pytest.raises(ValueError, match=r"seed of shape \(\) does not match batch"):
            coupling_init(cfg, None, gaussian_bump_pair(2), seed=3, batch=(4,))

    def test_identical_data_keeps_w_zero(self):
        cfg = SimConfig(N=4, s=1.0, gamma=0.4, alpha=0.25, dt=0.05)
        rec = coupling_init(cfg, None, zero_pair(4), seed=3)
        rec = run_coupling(rec, 40)
        assert np.all(rec.w == 0)
        assert float(rec.hcost) == 0.0
        assert float(np.exp(rec.log_density)) == 1.0

    def test_self_convergence_order_one(self):
        # eps is held at its time-zero formula value so the discretization
        # family is smooth in dt; per-step re-evaluation converges at the
        # same order but the grid-max kinks of eps(w) make the measured
        # Richardson ratios wobble around 2
        cfg = SimConfig(N=4, s=1.0, gamma=0.3, alpha=0.25)
        u2 = gaussian_bump_pair(4, 1.0)
        T, deltas = 1.0, [2e-2, 1e-2, 5e-3, 2.5e-3]
        dmin = min(deltas)
        fine = [sample_increment(4, dmin, 7, k).coeffs
                for k in range(round(T / dmin))]
        sols = {}
        for d in deltas:
            c = dataclasses.replace(cfg, dt=d)
            opts = CouplingOptions(eps_every=10**6, dt_grid=1.0, norm_exp=5.0)
            rec = coupling_init(c, None, u2, opts, seed=7)
            r = round(d / dmin)
            table = [NoiseIncrement(sum(fine[k * r + j] for j in range(r))
                                    if r > 1 else fine[k], d)
                     for k in range(round(T / d))]
            rec = run_table(coupling_step, rec, table)
            sols[d] = rec.w
        errs = [float(hnorm(sols[d] - sols[d / 2])) for d in deltas[:3]]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(1.7 <= r <= 2.3 for r in ratios)

    def test_contraction_envelope_small(self):
        cfg = SimConfig(N=4, s=1.0, gamma=0.0, alpha=0.25, dt=0.05)
        u2 = gaussian_bump_pair(4, 1.0)
        opts = CouplingOptions(eps_every=5, dt_grid=1.0, norm_exp=5.0)
        rec = coupling_init(cfg, None, u2, opts,
                            seed=[60 + i for i in range(3)], batch=(3,))
        ts, ratio = [], []
        for k in range(400):
            rec = coupling_step(rec)
            if (k + 1) % 10 == 0:
                ts.append(rec.t)
                ratio.append(float(np.mean(hnorm(rec.w) / rec.diff0_xnorm)))
        ts, ratio = np.array(ts), np.array(ratio)
        mask = ts >= 5.0
        slope = np.polyfit(ts[mask], np.log(ratio[mask]), 1)[0]
        assert slope <= -1.0 / 16.0 + 0.01

    def test_hcost_quadratic_scaling(self):
        cfg = SimConfig(N=8, s=1.0, gamma=0.0, alpha=0.25, dt=0.1)
        costs = {}
        for amp in (0.02, 0.01):
            u2a = gaussian_bump_pair(8, amp)
            rec = coupling_init(cfg, None, u2a,
                                CouplingOptions(eps_every=10, dt_grid=1.0),
                                seed=[400 + i for i in range(10)], batch=(10,))
            rec = run_coupling(rec, 400)
            costs[amp] = float(rec.hcost.mean())
        ratio = costs[0.02] / costs[0.01]
        assert 3.2 <= ratio <= 4.8  # halving the data quarters the cost +-20%

    def test_hcost_nondecreasing(self):
        rec = make_record(amplitude=0.5)
        prev = 0.0
        for _ in range(10):
            rec = coupling_step(rec)
            cur = float(rec.hcost)
            assert cur >= prev
            prev = cur

    def test_s_zero_multiplier_is_identity(self):
        # with s = 0 the <grad>^s factor in h is the identity
        rec = make_record(amplitude=0.5, steps=2)
        q, _ = cp._plain_bracket(rec)
        b_moll = cp._moll_bracket(rec, q, rec.eps)
        h0 = cp._h_from_bracket(b_moll, 0.0)
        assert np.max(np.abs(h0 - b_moll / np.sqrt(2.0))) < 1e-15


def assert_fields_equal(a, b, path="record"):
    """Every dataclass field of a and b equal, arrays bit for bit."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        assert type(a) is type(b), path
        for f in dataclasses.fields(a):
            assert_fields_equal(getattr(a, f.name), getattr(b, f.name), f"{path}.{f.name}")
    elif isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        assert np.array_equal(a, b), path
    else:
        assert type(a) is type(b) and a == b, path


class TestStickHandOff:
    """``coupling_step(rec, incr, stick=s)`` takes the flow's stick already
    advanced by a lockstep caller; it must equal the step that advances
    the stick itself."""

    @staticmethod
    def record(integrator):
        cfg = SimConfig(N=4, s=1.0, gamma=0.4, alpha=0.25, dt=0.05,
                        integrator=integrator)
        u1 = random_pair(4, np.random.default_rng(3))
        rec = coupling_init(cfg, u1, gaussian_bump_pair(4, 0.5),
                            CouplingOptions(eps_every=2), seed=[5, 6], batch=(2,),
                            monitor_M=3.0)
        return run_coupling(rec, 3)

    @pytest.mark.parametrize("integrator", ["euler", "midpoint"])
    def test_equals_own_stick_on_every_field(self, integrator):
        rec = self.record(integrator)
        incr = sample_increment(4, rec.flow.cfg.dt, [5, 6], rec.step)
        stick = stick_step_shared(rec.flow.stick, rec.flow.cfg.dt, incr)
        got = coupling_step(rec, incr, stick=stick)
        assert got.flow.stick is stick
        assert_fields_equal(got, coupling_step(rec, incr))
        assert not np.all(got.w == 0) and got.monitor.running_max.any()

    def test_stick_not_one_step_ahead_refused(self):
        rec = self.record("euler")
        dt = rec.flow.cfg.dt
        incr = sample_increment(4, dt, [5, 6], rec.step)
        for stale in (rec.flow.stick,
                      stick_step_shared(stick_step_shared(rec.flow.stick, dt, incr), dt)):
            with pytest.raises(ValueError, match="^stick: at step"):
                coupling_step(rec, incr, stick=stale)

    def test_stick_of_other_seeds_refused(self):
        rec = self.record("euler")
        dt = rec.flow.cfg.dt
        incr = sample_increment(4, dt, [5, 6], rec.step)
        other = coupling_init(rec.flow.cfg, None, gaussian_bump_pair(4, 0.5),
                              seed=[7, 8], batch=(2,))
        other = run_coupling(other, 3)
        with pytest.raises(ValueError, match="^stick: seeds"):
            coupling_step(rec, incr, stick=stick_step_shared(other.flow.stick, dt, incr))


class TestCouplingRegime:
    """Which regime the mollifier runs in at three pinned settings (N = 8,
    u2 a bump of amplitude 1): inert in floating point at criterion 10's
    and at the ``couple`` workload's, acting at criterion 06's.  A change
    to eps shows here."""

    @staticmethod
    def brackets(opts, seeds, n_steps=40):
        cfg = SimConfig(N=8, s=1.0, gamma=0.0, alpha=0.25, dt=0.05)
        rec = coupling_init(cfg, None, gaussian_bump_pair(8, 1.0), opts, seed=seeds,
                            batch=(len(seeds),))
        for _ in range(n_steps):
            Q, b_plain = cp._plain_bracket(rec)
            nxt = coupling_step(rec)  # nxt.eps is the eps this step used
            yield Q, nxt.eps, b_plain, cp._moll_bracket(rec, Q, nxt.eps)
            rec = nxt

    def test_inert_at_criterion_10(self):
        opts = CouplingOptions(eps_every=10, dt_grid=1.0)
        for Q, eps, b_plain, b_moll in self.brackets(opts, list(range(900, 920))):
            assert np.array_equal(mollify(Q, eps), Q)
            assert np.all(l2_norm(b_moll - b_plain) <= 1e-14 * l2_norm(b_plain))

    def test_inert_at_couple_defaults(self):
        # sdnlw couple --eps-every 1 --u2-perturbation 1.0 --t 1.0: 20 steps
        opts = CouplingOptions(eps_every=1)
        for Q, eps, b_plain, b_moll in self.brackets(opts, [0, 1, 7, 401], 20):
            assert np.array_equal(mollify(Q, eps), Q)
            assert np.all(l2_norm(b_moll - b_plain) <= 1e-14 * l2_norm(b_plain))

    def test_acting_at_criterion_06(self):
        opts = CouplingOptions(eps_every=5, dt_grid=0.5, norm_exp=5.0)
        ratio = max(float(np.max(l2_norm(b_moll - b_plain) / l2_norm(b_plain)))
                    for _, _, b_plain, b_moll in self.brackets(opts, list(range(30, 40))))
        assert ratio > 1e-8


class TestShiftedFlow:
    # the trapezoid tests run the two-pass oracle of tests/_utils.py
    def test_identical_data_roundoff(self):
        cfg = SimConfig(N=4, s=1.0, gamma=0.4, alpha=0.25, dt=0.02)
        out = trapezoid_shift_check(cfg, None, zero_pair(4), 0.5, seed=2)
        assert out["residual"][-1] < 1e-12

    def test_cubic_disabled_roundoff(self):
        cfg = SimConfig(N=4, s=1.0, linear_only=True, alpha=0.25, dt=0.02)
        u2 = gaussian_bump_pair(4, 1.0)
        out = trapezoid_shift_check(cfg, None, u2, 0.5, seed=2)
        assert out["residual"][-1] < 1e-11

    def test_residual_decreases_with_dt(self):
        # both step sizes see one white-noise path: the dt = 0.02 increments
        # are sums of pairs of the dt = 0.01 ones
        cfg = SimConfig(N=4, s=1.0, gamma=0.3, alpha=0.25)
        u2 = gaussian_bump_pair(4, 0.02)
        fine = fine_increments(4, 1e-2, 100, seed=1)
        res = {}
        for dt in (2e-2, 1e-2):
            c = dataclasses.replace(cfg, dt=dt)
            out = trapezoid_shift_check(c, None, u2, 1.0,
                                        CouplingOptions(eps_every=5, dt_grid=1.0),
                                        seed=1, sample_every=10,
                                        incr_table=coarsen(fine, round(dt / 1e-2), dt))
            res[dt] = out["residual"][-1]
        assert res[2e-2] / res[1e-2] >= 1.7

    def test_residual_at_couple_settings(self):
        # `sdnlw couple` defaults of the benchmark: eps every step, large h;
        # the trapezoid node at t = 0 must be the h the first step used
        cfg = SimConfig(N=8, s=1.0, gamma=0.0, alpha=0.25, dt=0.05)
        out = trapezoid_shift_check(cfg, None, gaussian_bump_pair(8, 1.0), 1.0,
                                    CouplingOptions(eps_every=1), seed=1)
        assert out["rel_residual"][-1] < 0.6

    def test_midpoint_gap_is_the_scheme_difference(self):
        # w is always integrated by Euler, the flows here by midpoint; under
        # Euler the same run reads round-off (the CLI test at these settings)
        cfg = SimConfig(N=8, s=1.0, gamma=0.0, alpha=0.25, dt=0.05,
                        integrator="midpoint")
        gap, _ = shifted_flow_check(cfg, None, gaussian_bump_pair(8, 1.0), 1.0,
                                    CouplingOptions(eps_every=1), seed=1)
        assert gap > 1e-3

    def test_check_record_is_the_coupling_run(self):
        cfg = SimConfig(N=4, s=1.0, gamma=0.3, alpha=0.25, dt=0.05, seed=3)
        u2 = gaussian_bump_pair(4, 0.5)
        _, rec = shifted_flow_check(cfg, None, u2, 0.5)
        ref = run_coupling(coupling_init(cfg, None, u2, seed=3), 10)
        for name in ("w", "hcost", "log_density", "h_last"):
            assert np.array_equal(getattr(rec, name), getattr(ref, name))
        assert np.array_equal(full_flow(rec.flow), full_flow(ref.flow))

    @pytest.mark.parametrize("gamma, s", [(0.0, 1.0), (0.7, 2.0)])
    def test_exact_injection_identity(self, gamma, s):
        # injecting dt * h_last, the h each step used, makes the identity
        # hold for the discrete schemes: round-off, not the trapezoid gap
        cfg = SimConfig(N=4, gamma=gamma, s=s, alpha=0.25, dt=0.05, seed=5)
        gap, _ = shifted_flow_check(cfg, None, gaussian_bump_pair(4), 0.5)
        assert gap < 1e-12
        # the verify line runs Euler whatever the config's integrator
        line = [r for r in verify.run_identity_suite(SimConfig(integrator="midpoint"))
                if r.name.startswith("coupling: exact shifted-flow")]
        assert len(line) == 1 and line[0].passed and line[0].threshold == 1e-12


class TestGirsanov:
    def test_zero_shift_density_one(self):
        incs = [sample_increment(4, 0.1, 7, k) for k in range(5)]
        dens = np.exp(girsanov_log_density([zero_field(4)] * 5, incs, 0.1))
        assert float(dens) == 1.0

    def test_in_step_density_matches_oracle(self):
        # the accumulation inside coupling_step, stopped paths included
        cfg = SimConfig(N=4, s=1.0, gamma=0.3, alpha=0.25, dt=0.1)
        seeds = list(range(16))
        rec = coupling_init(cfg, None, gaussian_bump_pair(4, 0.5),
                            CouplingOptions(eps_every=5, dt_grid=1.0),
                            seed=seeds, batch=(16,), monitor_M=2.0)
        incs = [sample_increment(4, cfg.dt, seeds, k) for k in range(12)]
        h_path = []
        for incr in incs:
            rec = coupling_step(rec, incr)
            h_path.append(rec.h_last)
        assert 0 < int(rec.monitor.stopped.sum()) < 16
        assert np.array_equal(rec.log_density,
                              girsanov_log_density(h_path, incs, cfg.dt))

    def test_deterministic_constant_shift(self):
        # h = c constant in space and time: E[E(h)] = 1 (exact lognormal)
        n, steps, delta, c = 100_000, 5, 0.1, 0.8
        h = constant_field(2, c)
        logs = np.empty(n)
        # one batched draw per step and chunk of seeds; a path's increments
        # do not depend on the batch it is drawn in
        chunk = 10_000
        for start in range(0, n, chunk):
            seeds = list(range(5000 + start, 5000 + start + chunk))
            incs = [sample_increment(2, delta, seeds, k) for k in range(steps)]
            logs[start:start + chunk] = girsanov_log_density([h] * steps, incs, delta)
        dens = np.exp(logs)
        se = dens.std(ddof=1) / np.sqrt(n)
        assert abs(dens.mean() - 1.0) <= 5 * se
        # mean of log E is exactly -1/2 int |h|^2
        expect = -0.5 * c**2 * delta * steps
        se_log = logs.std(ddof=1) / np.sqrt(n)
        assert abs(logs.mean() - expect) <= 5 * se_log

    def test_coupled_density_deterministic(self):
        a = make_record(amplitude=0.3, steps=10)
        b = make_record(amplitude=0.3, steps=10)
        assert float(a.log_density) == float(b.log_density)
        assert float(a.hcost) == float(b.hcost)


class TestTvBound:
    def test_zero_moment_edge(self):
        L = 0.7
        assert tv_bound(1.0, 0.0, L) == pytest.approx(2 * (1 - np.exp(-L)),
                                                      abs=1e-15)

    def test_large_L_limit(self):
        assert tv_bound(1.0, 5.0, 200.0) == pytest.approx(2.0, abs=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            tv_bound(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            tv_bound(1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            tv_bound(1.0, -1.0, 1.0)

    def test_dominates_gaussian_exponentials(self):
        rng = np.random.default_rng(8)
        for sigma in (0.1, 0.5):
            x = rng.normal(-sigma**2 / 2, sigma, 50_000)
            lhs = np.abs(np.exp(x) - 1.0).mean()
            bound = tv_bound(1.0, np.abs(x).mean(), 1.0)
            assert lhs <= bound


class TestDn:
    def test_zero_for_equal(self):
        x = random_pair(4, RNG)
        assert float(d_n(x, x, 3, 0.25)) == 0.0

    def test_linear_scaling_below_saturation(self):
        x = random_pair(4, RNG)
        y = x + 1e-3 * random_pair(4, RNG)
        gap = float(xalpha_norm(x - y, 0.25))
        assert float(d_n(x, y, 2, 0.25)) == pytest.approx(2 * gap, rel=1e-12)

    def test_saturation_at_one(self):
        x = random_pair(4, RNG)
        y = x + 100.0 * random_pair(4, RNG)
        assert float(d_n(x, y, 5, 0.25)) == 1.0

    def test_triangle_inequality(self):
        for _ in range(10):
            x, y, z = (random_pair(3, RNG) for _ in range(3))
            dxy = float(d_n(x, y, 2, 0.25))
            dyz = float(d_n(y, z, 2, 0.25))
            dxz = float(d_n(x, z, 2, 0.25))
            assert dxz <= dxy + dyz + 1e-12

    def test_requires_n_at_least_one(self):
        x = random_pair(3, RNG)
        with pytest.raises(ValueError):
            d_n(x, x, 0, 0.25)


class TestTauM:
    @pytest.mark.parametrize("M", [np.nan, -1.0])
    def test_invalid_M_rejected(self, M):
        with pytest.raises(ValueError, match=">= 0"):
            TauMMonitor(M, 0.25, 0.3)

    def test_infinite_never_stops(self):
        rec = make_record(amplitude=0.3, batch=(3,), steps=0)
        mon = TauMMonitor(np.inf, 0.25, 0.3, batch=(3,))
        for k in range(5):
            mon = mon.update(0.1 * k, rec.flow.stick.value)
            rec = coupling_step(rec)
        assert not mon.stopped.any()

    def test_zero_stops_immediately(self):
        rec = make_record(amplitude=0.3, batch=(3,), steps=2)
        mon = TauMMonitor(0.0, 0.25, 0.3, batch=(3,))
        mon = mon.update(0.2, rec.flow.stick.value)
        assert mon.stopped.all()
        assert np.all(mon.stop_time == 0.2)

    @pytest.mark.parametrize("name", ["stopped", "stop_time", "running_max", "M"])
    def test_fields_frozen(self, name):
        mon = TauMMonitor(1.0, 0.25, 0.3, batch=(2,))
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(mon, name, getattr(mon, name))

    def test_update_leaves_old_monitor_unchanged(self):
        rec = make_record(amplitude=0.3, batch=(3,), steps=2)
        old = TauMMonitor(0.0, 0.25, 0.3, batch=(3,))
        new = old.update(0.2, rec.flow.stick.value)
        assert new is not old and new.stopped.all()
        assert not old.stopped.any()
        assert np.all(old.stop_time == np.inf)
        assert np.all(old.running_max == 0.0)

    def test_monotone_in_M(self):
        rec = make_record(amplitude=0.3, batch=(2,))
        path = []
        for k in range(30):
            rec = coupling_step(rec)
            path.append((rec.t, rec.flow.stick.value))
        stop_times = []
        for M in (0.5, 1.5, 4.0):
            mon = TauMMonitor(M, 0.25, 0.3, batch=(2,))
            for t, val in path:
                mon = mon.update(t, val)
            stop_times.append(mon.stop_time.copy())
        assert np.all(stop_times[0] <= stop_times[1])
        assert np.all(stop_times[1] <= stop_times[2])

    def test_coupled_distance_decays(self):
        rec = make_record(amplitude=1.0, steps=0, eps_every=10, dt_grid=1.0)
        early = float(coupling_distance(rec, 1))
        rec = run_coupling(rec, 150)
        late = float(coupling_distance(rec, 1))
        assert late < early


MONITOR_FIELDS = ("running_max", "stopped", "stop_time")


def assert_monitors_equal(mon, ref):
    for name in MONITOR_FIELDS:
        assert np.array_equal(getattr(mon, name), getattr(ref, name), equal_nan=True), name


def replay(M, sticks, gamma=0.3, alpha=0.25):
    """Update a monitor and the unpruned oracle on the same (t, stick)
    sequence, checking them equal after every step."""
    batch = sticks[0][1].shape[:-3]
    mon = TauMMonitor(M, alpha, gamma, batch=batch)
    ref = TauMMonitor(M, alpha, gamma, batch=batch)
    for t, stick in sticks:
        mon = mon.update(t, stick)
        ref = tau_m_update(ref, t, stick)
        assert_monitors_equal(mon, ref)
    return mon


@pytest.fixture
def row_counts(monkeypatch):
    """Per update, the paths whose stick pair and whose samples were
    transformed."""
    counts = {"pair": [], "psi": []}
    pair_norm, wick_norms = cp.pair_norm, cp._wick_norms

    def counted_pair(stick, *args):
        counts["pair"].append(stick.shape[0])
        return pair_norm(stick, *args)

    def counted_wick(psi, gamma):
        counts["psi"].append(psi.shape[0])
        return wick_norms(psi, gamma)

    monkeypatch.setattr(cp, "pair_norm", counted_pair)
    monkeypatch.setattr(cp, "_wick_norms", counted_wick)
    return counts


def stick_path(n_paths, n_steps, seed=11):
    """(t, stick) at the start of each step of a coupling at the
    ``girsanov`` benchmark settings."""
    cfg = SimConfig(N=4, s=1.0, gamma=0.3, alpha=0.25, dt=0.1)
    rec = coupling_init(cfg, None, gaussian_bump_pair(4, 0.02),
                        CouplingOptions(eps_every=10, dt_grid=1.0),
                        seed=[seed + i for i in range(n_paths)], batch=(n_paths,))
    out = []
    for _ in range(n_steps):
        out.append((rec.t, rec.flow.stick.value))
        rec = coupling_step(rec)
    return out


def non_finite_sticks():
    """``stick_path(4, 8)`` with a NaN in row 1 and an inf in row 2 from
    step 3 on."""
    sticks = []
    for k, (t, s) in enumerate(stick_path(4, 8)):
        s = s.copy()
        if k >= 3:
            s[1, 0, 4, 4] = np.nan
            s[2, 1, 4, 5] = np.inf
        sticks.append((t, s))
    return sticks


class TestTauMSkip:
    """The certified skip in ``TauMMonitor.update`` against the oracle that
    evaluates every norm on every path."""

    def test_unbatched_stick_refused_by_batched_monitor(self):
        mon = TauMMonitor(1.0, 0.25, 0.3, batch=(3,))
        stick = make_record(amplitude=0.3).flow.stick.value
        with pytest.raises(ValueError, match=r"stick batch \(\) .* batch \(3,\)"):
            mon.update(0.0, stick)

    def test_batched_stick_refused_by_unbatched_monitor(self):
        mon = TauMMonitor(1.0, 0.25, 0.3)
        stick = make_record(amplitude=0.3, batch=(5,)).flow.stick.value
        with pytest.raises(ValueError, match=r"stick batch \(5,\) .* batch \(\)"):
            mon.update(0.0, stick)

    def test_unbatched_monitor(self):
        sticks = [(t, s[2]) for t, s in stick_path(4, 12)]
        replay(1.0, sticks)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns on the non-finite data
    def test_nan_and_inf_rows(self):
        mon = replay(30.0, non_finite_sticks())
        assert np.isnan(mon.running_max[1])
        assert not mon.stopped[1]

    def test_negative_gamma(self):
        replay(2.0, stick_path(16, 15), gamma=-0.7)

    @pytest.mark.parametrize("M", [0.0, np.inf])
    def test_extreme_M(self, M):
        mon = replay(M, stick_path(16, 10))
        assert mon.stopped.all() if M == 0.0 else not mon.stopped.any()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns on the non-finite data
    @pytest.mark.parametrize("scale", [1e20, 1e300])
    def test_overflowing_rows(self, scale):
        # the unpruned p-th powers overflow to inf on the scaled rows
        sticks = []
        for k, (t, s) in enumerate(stick_path(4, 8)):
            s = s.copy()
            s[1] *= scale * (1.0 + 0.5 * np.sin(k))
            s[3] *= 1e-3 if k % 2 else scale
            sticks.append((t, s))
        mon = replay(30.0, sticks)
        assert np.isinf(mon.running_max[1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns on the non-finite data
    def test_overflow_under_a_finite_running_max(self, row_counts):
        # a constant stick: |wick3| ~ c^3 sets a finite running max far above
        # the pair bound ~ c; doubling c overflows the pair's 16th powers,
        # so the pair must be transformed although its bound is below the max
        sticks = []
        for t, c in ((0.0, 1e19), (0.1, 2e19), (0.2, 1.0)):
            s = zero_pair(4)
            s[0, 4, 4] = c
            sticks.append((t, s))
        mon = replay(np.inf, sticks)
        assert np.isinf(mon.running_max)
        assert row_counts["pair"] == [1, 1]

    def test_crossing_right_after_a_skipped_step(self, row_counts):
        _, base = stick_path(1, 6)[-1]
        M = 2.0 * float(np.max(tau_m_norms(base, 0.25, 0.3)))
        sticks = [(0.0, base), (0.1, 1e-2 * base), (0.2, 10.0 * base)]
        mon = replay(M, sticks)
        # step 1 transformed nothing, and step 2 stops the path
        assert row_counts["pair"] == [1, 1] and row_counts["psi"] == [1, 1]
        assert mon.stopped[0] and mon.stop_time[0] == 0.2

    @pytest.mark.parametrize("M", [2.0, 30.0, np.inf])
    def test_benchmark_settings(self, M, row_counts):
        mon = replay(M, stick_path(64, 40))
        # the maxima still grow over these 40 steps, so over half the rows
        # transform; over the 100 steps of the benchmark about a third do
        assert sum(row_counts["pair"]) < 0.75 * 64 * 40
        assert sum(row_counts["psi"]) < 0.75 * 64 * 40
        if M == 2.0:
            assert mon.stopped.any()


class TestMonitorBlocks:
    """``TauMMonitor.update`` samples the rows it evaluates in path blocks of
    ``spectral.CHUNK_BYTES``; it must equal the whole-batch oracle."""

    BUDGETS = [1, spectral.CHUNK_BYTES, 1 << 40]

    @pytest.fixture(scope="class")
    def large_path(self):
        return stick_path(1000, 3)

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (2, 3)])
    def test_equals_whole_batch(self, monkeypatch, shape, budget):
        monkeypatch.setattr(spectral, "CHUNK_BYTES", budget)
        n = int(np.prod(shape))
        replay(2.0, [(t, s.reshape(shape + s.shape[1:])) for t, s in stick_path(n, 6)])

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_large_batch(self, monkeypatch, large_path, row_counts, budget):
        monkeypatch.setattr(spectral, "CHUNK_BYTES", budget)
        replay(30.0, large_path)
        # the psi rows go to _wick_norms one block at a time
        per_block = max(1, min(budget // (quad_grid_size(4) ** 2 * 16), 1000))
        assert max(row_counts["psi"]) == per_block

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns on the non-finite data
    def test_nan_and_inf_rows_one_path_a_block(self, monkeypatch):
        monkeypatch.setattr(spectral, "CHUNK_BYTES", 1)
        mon = replay(30.0, non_finite_sticks())
        assert np.isnan(mon.running_max[1])
        assert np.isfinite(mon.running_max[[0, 3]]).all()


class TestReplay:
    @pytest.mark.parametrize("M", [1.0, 2.0, 3.0])
    def test_two_continuations_agree(self, M):
        cfg = SimConfig(N=4, s=1.0, gamma=0.3, alpha=0.25, dt=0.1)
        u2 = gaussian_bump_pair(4, 0.5)
        rec = coupling_init(cfg, None, u2, CouplingOptions(eps_every=5, dt_grid=1.0),
                            seed=list(range(64)), batch=(64,), monitor_M=M)
        mid = run_coupling(rec, 5)
        mon = mid.monitor
        before = {k: getattr(mon, k).copy()
                  for k in ("running_max", "stopped", "stop_time")}
        a = run_coupling(mid, 5)
        b = run_coupling(mid, 5)
        for name in ("log_density", "h_last"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        for name in ("stopped", "stop_time"):
            assert np.array_equal(getattr(a.monitor, name), getattr(b.monitor, name))
        for k, v in before.items():
            assert np.array_equal(getattr(mon, k), v)


class TestCouplingBlowUp:
    def blowup_record(self, u2):
        # u1 = 0 with gamma = 0 keeps v exactly zero on the first step, so
        # only the w check can fire there
        cfg = SimConfig(N=4, s=1.0, gamma=0.0, alpha=0.25, dt=0.1,
                        blowup_threshold=1e-8)
        return coupling_init(cfg, None, u2, CouplingOptions(dt_grid=1.0), seed=3)

    def test_w_over_threshold_raises(self):
        rec = self.blowup_record(gaussian_bump_pair(4, 0.05))
        form = r"^blow-up signal at t=0\.1 \(\|w\|_H1 = \d\.\d{3}e[+-]\d+\)$"
        with pytest.raises(BlowUpError, match=form) as err:
            coupling_step(rec)
        assert err.value.t == 0.1
        assert 1e-8 < err.value.norm < np.inf

    def test_non_finite_w_reported_as_inf(self):
        u2 = gaussian_bump_pair(4, 0.05)
        u2[0, 4, 4] = np.nan
        with pytest.raises(BlowUpError, match=r"\|w\|_H1 = inf\)$"):
            coupling_step(self.blowup_record(u2))


class TestCouplingOptionsValidation:
    @pytest.mark.parametrize("kw,field", [
        ({"eps_every": 0}, "eps_every"),
        ({"eps_every": -3}, "eps_every"),
        ({"eps_every": 1.5}, "eps_every"),
        ({"dt_grid": float("nan")}, "dt_grid"),
        ({"dt_grid": 0.0}, "dt_grid"),
        ({"dt_grid": -0.25}, "dt_grid"),
    ])
    def test_rejected_with_field_name(self, kw, field):
        with pytest.raises(ValueError, match=field):
            CouplingOptions(**kw)
