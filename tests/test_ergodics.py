"""Observables, Birkhoff averages, error bars, and convergence experiments."""

import dataclasses

import numpy as np
import pytest

from sdnlw import coupling, dynamics, ergodics, noise
from sdnlw.config import ConfigError, SimConfig
from sdnlw.coupling import CouplingOptions, d_n
from sdnlw.ergodics import (
    ObservableSeries,
    autocorr_time,
    compare_starts,
    get_observable,
    krylov_bogolyubov_diagnostic,
    linear_moment_report,
    mean_with_error,
    register_observable,
    sample_trajectory,
    time_averages,
)
from sdnlw.noise import sample_stick_at
from sdnlw.spectral import gaussian_bump_pair, random_pair, zero_pair
from _utils import compare_starts_separately, two_start_convergence

RNG = np.random.default_rng(77)


class TestObservables:
    def test_registry_contents(self):
        for name in ("mean_u", "mean_u2", "mean_u4", "clipped_halpha",
                     "dn_to_ref"):
            assert callable(get_observable(name))

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_observable("nope")

    def test_constant_field_values(self):
        pair = zero_pair(4)
        pair[0, 4, 4] = 1.5
        cfg = SimConfig(N=4)
        assert float(get_observable("mean_u")(pair, cfg)) == pytest.approx(1.5)
        assert float(get_observable("mean_u2")(pair, cfg)) == pytest.approx(2.25)
        assert float(get_observable("mean_u4")(pair, cfg)) == pytest.approx(
            1.5**4, rel=1e-12)

    def test_clipped_norm_bounded(self):
        cfg = SimConfig(N=4)
        for _ in range(10):
            pair = 10.0 * np.random.default_rng(3).standard_normal((2, 9, 9)) \
                * (1.0 + 0j)
            val = get_observable("clipped_halpha")(pair, cfg)
            assert val <= 1.0

    def test_dn_to_ref_uses_config_pad(self):
        # the X^alpha quadrature of d_1 to the zero state follows cfg.M_pad
        pair = 1e-3 * random_pair(4, RNG)
        zero = np.zeros_like(pair)
        got = get_observable("dn_to_ref")(pair, SimConfig(N=4, M_pad=4.0))
        assert got == d_n(pair, zero, 1, 0.25, pad=4.0)
        assert got != d_n(pair, zero, 1, 0.25, pad=2.0)

    def test_user_extension_point(self):
        register_observable("test_zero_obs", lambda pair, cfg: 0.0)
        assert get_observable("test_zero_obs")(zero_pair(2), SimConfig()) == 0.0

    def test_stick_mean_u2_matches_stationary_sum(self):
        # mean of u^2 for a (near-)stationary stick sample vs closed form
        s, N, n, t = 1.0, 8, 1000, 30.0
        vals = sample_stick_at(N, s, t, [900 + i for i in range(n)])
        m2 = np.sum(np.abs(vals[:, 0]) ** 2, axis=(-2, -1))
        from sdnlw.noise import lattice_covariance
        expect = float(np.sum(lattice_covariance(N, t, s)[..., 0, 0]))
        se = m2.std(ddof=1) / np.sqrt(n)
        assert abs(m2.mean() - expect) <= 5 * se


def _average(values, t, T, burn=0.0):
    return time_averages({"f": ObservableSeries("f", t, values)}, burn, T)["f"]


class TestBirkhoff:
    def test_constant_functional(self):
        t = np.linspace(0.0, 10.0, 101)
        for T in (2.5, 10.0):
            avg = _average(np.ones_like(t), t, T)
            assert float(avg) == pytest.approx(1.0, rel=1e-14)

    def test_frozen_state(self):
        t = np.linspace(0.0, 4.0, 41)
        avg = _average(np.full_like(t, 3.7), t, 4.0)
        assert float(avg) == pytest.approx(3.7, rel=1e-14)

    def test_linear_in_functional(self):
        t = np.linspace(0.0, 1.0, 11)
        v1, v2 = RNG.standard_normal(11), RNG.standard_normal(11)
        a = _average(v1, t, 1.0)
        b = _average(v2, t, 1.0)
        ab = _average(2 * v1 - 3 * v2, t, 1.0)
        assert float(ab) == pytest.approx(2 * a - 3 * b, rel=1e-12)

    def test_running_average_consistent(self):
        # (1/t) int_0^t F by a cumulative trapezoid at stored times t
        # against the average over [0, t]; then a burn-in window
        t = np.linspace(0.0, 5.0, 51)
        vals = np.sin(t)
        running = np.cumsum(0.5 * np.diff(t) * (vals[1:] + vals[:-1])) / t[1:]
        for k in (1, 10, 50):
            avg = _average(vals, t, t[k])
            assert float(avg) == pytest.approx(running[k - 1], rel=1e-12)
        window = (running[-1] * 5.0 - running[19] * 2.0) / 3.0
        avg = _average(vals, t, 5.0, burn=2.0)
        assert float(avg) == pytest.approx(window, rel=1e-12)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="horizon"):
            _average(np.array([1.0, 2.0]), np.array([0.0, 1.0]), 2.0)


class TestErrorBars:
    def test_iid_tau_one(self):
        x = RNG.standard_normal(20_000)
        assert autocorr_time(x) < 1.3

    def test_correlated_tau(self):
        # AR(1) with rho: tau_int = (1+rho)/(1-rho)
        rho, n = 0.9, 200_000
        eps = RNG.standard_normal(n)
        x = np.empty(n)
        x[0] = eps[0]
        for i in range(1, n):
            x[i] = rho * x[i - 1] + eps[i]
        tau = autocorr_time(x)
        expect = (1 + rho) / (1 - rho)
        assert 0.7 * expect < tau < 1.4 * expect

    def test_stderr_uses_effective_size(self):
        x = np.repeat(RNG.standard_normal(500), 40)  # strongly correlated
        _, se_corr, tau = mean_with_error(x)
        se_naive = x.std(ddof=1) / np.sqrt(x.size)
        assert tau > 10.0 and se_corr > 3 * se_naive


class TestEnsembleSummary:
    def test_fields_and_effective_size(self):
        from sdnlw.ergodics import ensemble_summary
        t = np.linspace(0.0, 100.0, 2001)
        rng = np.random.default_rng(4)
        vals = np.repeat(rng.standard_normal((201, 2)), 10, axis=0)[:2001]
        series = {"obs": ObservableSeries("obs", t, vals)}
        d = ensemble_summary(series, burn=0.0)["obs"]
        naive = np.sqrt(vals.var(ddof=1) / vals.size)
        assert d["act"] > 3.0          # strong correlation detected
        assert d["stderr"] > naive     # and reflected in the error bar
        assert d["n_eff"] < vals.size


class TestExperiments:
    def test_linear_moment_oracle(self):
        rep = linear_moment_report(N=4, s=1.0, T=250.0, dt_sample=0.25,
                                   seed=5, n_paths=4)
        assert rep["max_dev_sigma"] <= 5.0

    def test_two_start_same_data_zero_difference(self):
        cfg = SimConfig(N=4, s=1.0, gamma=0.0, dt=0.05, obs_interval=0.25,
                        observables=("mean_u2",))
        u0 = gaussian_bump_pair(4, 0.5)
        rep = compare_starts(cfg, u0, u0, T=2.0, seeds=[3, 4, 5],
                             coupling_opts=CouplingOptions(eps_every=10), dn_every=1.0)
        d = rep["observables"]["mean_u2"]
        assert d["diff"] == 0.0
        assert rep["coupled_dn"]["final"] == 0.0

    def test_two_start_statistics(self):
        cfg = SimConfig(N=4, s=1.0, gamma=0.0, dt=0.05, obs_interval=0.25,
                        observables=("mean_u2", "clipped_halpha"))
        u2 = gaussian_bump_pair(4, 1.0)
        rep = compare_starts(cfg, None, u2, T=40.0, seeds=[100 + i for i in range(6)],
                             coupling_opts=CouplingOptions(eps_every=10), dn_every=5.0)
        for d in rep["observables"].values():
            assert d["within_3se"]
        dn = rep["coupled_dn"]["values"]
        # nonincreasing after the initial transient
        tail = dn[2:]
        assert np.all(np.diff(tail) <= 1e-12)

    def test_krylov_bogolyubov_shape(self):
        cfg = SimConfig(N=8, s=1.0, gamma=0.0, dt=0.05)
        rep = krylov_bogolyubov_diagnostic(cfg, radii=[0.0, 1.0, 2.0, 4.0, 8.0],
                                           n_samples=300, t_sample=5.0, seed=2)
        fr = rep["fractions"]
        assert fr[0] == 1.0
        assert np.all(np.diff(fr) <= 0.0)
        # Chebyshev/Markov shape: fraction(R) * R stays below the mean size
        assert np.all(rep["fraction_times_R"] <= rep["sizes"].mean() + 1e-12)

    def test_birkhoff_two_seeds_agree(self):
        # two seeds, same config: long-run averages agree within 3 combined
        # autocorrelation-aware standard errors
        from sdnlw.ergodics import mean_with_error
        cfg = SimConfig(N=4, s=1.0, gamma=0.0, dt=0.05, obs_interval=0.25,
                        observables=("mean_u2",))
        run = sample_trajectory(cfg, None, seeds=[11, 12], T=60.0)
        vals = run["series"]["mean_u2"].values  # (T, 2)
        burn = vals.shape[0] // 4
        m1, se1, _ = mean_with_error(vals[burn:, 0])
        m2, se2, _ = mean_with_error(vals[burn:, 1])
        assert abs(m1 - m2) <= 3.0 * np.hypot(se1, se2)

    def test_trajectory_sampling_cadence(self):
        cfg = SimConfig(N=2, s=1.0, dt=0.05, obs_interval=0.25, T=1.0,
                        observables=("mean_u2",))
        run = sample_trajectory(cfg, None, seeds=5)
        s = run["series"]["mean_u2"]
        assert s.times[0] == 0.0 and s.times[-1] == pytest.approx(1.0)
        assert len(s.times) == 5


class TestLockstep:
    """``compare_starts`` steps both starts on one draw and one stick per
    step; each start's numbers must equal its own run's."""

    @staticmethod
    def config(integrator="euler"):
        return SimConfig(N=4, s=1.0, gamma=0.3, dt=0.05, obs_interval=0.25,
                         integrator=integrator,
                         observables=("mean_u2", "mean_u4", "clipped_halpha"))

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("integrator", ["euler", "midpoint"])
    def test_equals_one_run_per_start(self, monkeypatch, integrator, workers):
        # uneven chunks at two workers (5 seeds: 3 + 2), a nonzero first start
        monkeypatch.setenv("SDNLW_WORKERS", workers)
        cfg = self.config(integrator)
        u1 = 0.3 * random_pair(4, np.random.default_rng(5), decay=2.0)
        u2 = gaussian_bump_pair(4, 1.0)
        seeds = [21, 22, 23, 24, 25]
        got = compare_starts(cfg, u1, u2, 1.0, seeds)
        assert got == compare_starts_separately(cfg, u1, u2, 1.0, seeds)

    def test_one_draw_per_step(self, monkeypatch):
        monkeypatch.setenv("SDNLW_WORKERS", "1")
        calls = []
        real = noise.sample_increment

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        for mod in (noise, dynamics):
            monkeypatch.setattr(mod, "sample_increment", counting)
        compare_starts(self.config(), None, gaussian_bump_pair(4, 1.0), 1.0, [3, 4, 5])
        assert len(calls) == 20  # T / dt, for the one seed chunk

    @pytest.mark.parametrize("coupled", [False, True])
    def test_one_half_step_stick_per_step(self, monkeypatch, coupled):
        # midpoint: one half-step advance per step serves both starts (and
        # the record's flow), beside the one full-step advance
        monkeypatch.setenv("SDNLW_WORKERS", "1")
        cfg = self.config("midpoint")
        deltas = []
        real = noise.stick_step_shared

        def counting(state, delta, incr=None):
            deltas.append(delta)
            return real(state, delta, incr)

        monkeypatch.setattr(noise, "stick_step_shared", counting)
        opts = CouplingOptions(eps_every=10) if coupled else None
        compare_starts(cfg, None, gaussian_bump_pair(4, 1.0), 1.0, [3, 4, 5], opts,
                       dn_every=0.5)
        assert deltas.count(0.5 * cfg.dt) == 20 and deltas.count(cfg.dt) == 20


class TestCoupledStarts:
    """With ``coupling_opts`` the coupling record carries the first start's
    flow inside ``compare_starts``; its report must equal the oracle that
    steps that flow a second time in its own record loop."""

    CFG = SimConfig(N=4, s=1.0, gamma=0.3, dt=0.05, obs_interval=0.25,
                    observables=("mean_u2", "clipped_halpha"))
    OPTS = CouplingOptions(eps_every=10)

    @staticmethod
    def starts():
        u1 = 0.3 * random_pair(4, np.random.default_rng(5), decay=2.0)
        return u1, u1 + gaussian_bump_pair(4, 0.05)

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_equals_the_oracle(self, monkeypatch, workers):
        # uneven chunks at two workers (5 seeds: 3 + 2), two different starts
        monkeypatch.setenv("SDNLW_WORKERS", "1")
        u1, u2 = self.starts()
        seeds = [21, 22, 23, 24, 25]
        want = two_start_convergence(self.CFG, u1, u2, 2.0, seeds, self.OPTS, 1, 0.5)
        monkeypatch.setenv("SDNLW_WORKERS", workers)
        got = compare_starts(self.CFG, u1, u2, 2.0, seeds, self.OPTS, 1, 0.5)
        assert got.keys() == want.keys()
        assert got["observables"] == want["observables"]
        assert (got["seeds"], got["T"]) == (want["seeds"], want["T"])
        dn, dn_want = got["coupled_dn"], want["coupled_dn"]
        assert dn.keys() == dn_want.keys()
        for key in ("times", "values"):
            assert dn[key].dtype == dn_want[key].dtype
            assert np.array_equal(dn[key], dn_want[key])
        for key in ("n", "final"):
            assert type(dn[key]) is type(dn_want[key]) and dn[key] == dn_want[key]
        assert 0.0 < dn["final"] < 1.0  # d_1 neither zero nor saturated

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_midpoint_equals_the_oracle(self, monkeypatch, workers):
        # the record's flow and start 2 share one half-step stick per step
        monkeypatch.setenv("SDNLW_WORKERS", "1")
        cfg = dataclasses.replace(self.CFG, integrator="midpoint")
        u1, u2 = self.starts()
        seeds = [21, 22, 23, 24, 25]
        want = two_start_convergence(cfg, u1, u2, 1.0, seeds, self.OPTS, 1, 0.5)
        monkeypatch.setenv("SDNLW_WORKERS", workers)
        got = compare_starts(cfg, u1, u2, 1.0, seeds, self.OPTS, 1, 0.5)
        assert got["observables"] == want["observables"]
        for key in ("times", "values"):
            assert np.array_equal(got["coupled_dn"][key], want["coupled_dn"][key])

    def test_one_draw_and_one_flow_step_per_start(self, monkeypatch):
        # the record's flow is start 1's flow: 20 steps draw 20 increments
        # and make 40 flow steps, none of them a second run of start 1
        monkeypatch.setenv("SDNLW_WORKERS", "1")
        draws, flow_steps = [], []

        def counting(calls, real):
            return lambda *args, **kw: calls.append(args) or real(*args, **kw)

        draw = counting(draws, noise.sample_increment)
        step = counting(flow_steps, dynamics.v_step)
        for mod in (noise, dynamics):
            monkeypatch.setattr(mod, "sample_increment", draw)
        for mod in (coupling, ergodics):
            monkeypatch.setattr(mod, "v_step", step)
        u1, u2 = self.starts()
        compare_starts(self.CFG, u1, u2, 1.0, [3, 4, 5], self.OPTS, 1, 0.5)
        assert (len(draws), len(flow_steps)) == (20, 40)

    @pytest.mark.parametrize("T, dn_every, match", [
        (2.0, 0.0, "dn_every: must be > 0"),
        (2.0, -1.0, "dn_every: must be > 0"),
        (2.0, 0.75, "dn_every: 2.0 is not a whole multiple of 0.75"),
        (2.1, 0.07, "dn_every: 0.07 is not a whole multiple of 0.05"),
    ])
    def test_bad_dn_every_refused_before_any_step(self, monkeypatch, T, dn_every, match):
        def no_worker(payload):
            raise AssertionError("a seed chunk started")

        monkeypatch.setenv("SDNLW_WORKERS", "1")
        monkeypatch.setattr(ergodics, "_averages_worker", no_worker)
        u1, u2 = self.starts()
        with pytest.raises(ConfigError, match=match):
            compare_starts(self.CFG, u1, u2, T, [3, 4], self.OPTS, 1, dn_every)

    @pytest.mark.parametrize("dn_n", [0, -3, 0.5])
    def test_bad_dn_n_refused(self, monkeypatch, dn_n):
        def no_step(*args, **kw):
            raise AssertionError("a coupling step ran")

        # refused at the d_n of t = 0, before the first step
        monkeypatch.setenv("SDNLW_WORKERS", "1")
        monkeypatch.setattr(ergodics, "coupling_step", no_step)
        u1, u2 = self.starts()
        with pytest.raises(ValueError, match="n must be >= 1"):
            compare_starts(self.CFG, u1, u2, 1.0, [3, 4], self.OPTS, dn_n, 0.5)
