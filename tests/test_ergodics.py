"""Observables, Birkhoff averages, error bars, and convergence experiments."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter

from sdnlw import coupling, dynamics, ergodics, noise
from sdnlw.config import ConfigError, SimConfig
from sdnlw.coupling import CouplingOptions
from sdnlw.ergodics import (
    _REGISTRY,
    autocorr_time,
    compare_averages,
    compare_starts,
    ensemble_summary,
    krylov_bogolyubov_diagnostic,
    linear_moment_report,
    mean_with_error,
    sample_trajectory,
    time_averages,
)
from sdnlw.noise import sample_stick_at
from sdnlw.spectral import gaussian_bump_pair, random_pair, zero_pair
from _utils import autocorr_time_loop, compare_starts_separately, two_start_convergence

RNG = np.random.default_rng(77)


class TestObservables:
    def test_registry_contents(self):
        assert set(_REGISTRY) == {"mean_u", "mean_u2", "mean_u4", "clipped_halpha",
                                  "dn_to_ref"}
        assert all(callable(fn) for fn in _REGISTRY.values())

    def test_unknown_name(self):
        with pytest.raises(ConfigError, match="^observables: unknown observable 'nope'; "
                                              "known: \\['clipped_halpha'"):
            sample_trajectory(SimConfig(N=2, dt=0.05, T=1.0, observables=("nope",)))

    def test_constant_field_values(self):
        pair = zero_pair(4)
        pair[0, 4, 4] = 1.5
        cfg = SimConfig(N=4)
        assert float(_REGISTRY["mean_u"](pair, cfg)) == pytest.approx(1.5)
        assert float(_REGISTRY["mean_u2"](pair, cfg)) == pytest.approx(2.25)
        assert float(_REGISTRY["mean_u4"](pair, cfg)) == pytest.approx(
            1.5**4, rel=1e-12)

    def test_clipped_norm_bounded(self):
        cfg = SimConfig(N=4)
        for _ in range(10):
            pair = 10.0 * np.random.default_rng(3).standard_normal((2, 9, 9)) \
                * (1.0 + 0j)
            val = _REGISTRY["clipped_halpha"](pair, cfg)
            assert val <= 1.0

    def test_table_is_read_when_a_run_starts(self, monkeypatch):
        # the benchmark's tracer wraps the table's entries in place
        monkeypatch.setitem(_REGISTRY, "zero_obs", lambda pair, cfg: 0.0)
        cfg = SimConfig(N=2, dt=0.05, T=1.0, observables=("zero_obs", "mean_u2"))
        run = sample_trajectory(cfg, None, 3)
        assert list(run["series"]) == ["zero_obs", "mean_u2"]
        assert np.array_equal(run["series"]["zero_obs"], np.zeros(5))

    @pytest.mark.parametrize("name", ["", "a, b", "a,b", "a#b", "a=b", "a b",
                                      "tab\t", "line\n", None])
    def test_unselectable_name_refused(self, name):
        # a name a config line cannot select, or one that splits the CSV header
        with pytest.raises(ConfigError, match=re.escape(f"observables: [{name!r}] cannot")):
            SimConfig(observables=("mean_u", name))

    def test_stick_mean_u2_matches_stationary_sum(self):
        # mean of u^2 for a (near-)stationary stick sample vs closed form
        s, N, n, t = 1.0, 8, 1000, 30.0
        vals = sample_stick_at(N, s, t, [900 + i for i in range(n)])
        m2 = np.sum(np.abs(vals[:, 0]) ** 2, axis=(-2, -1))
        from sdnlw.noise import lattice_covariance
        expect = float(np.sum(lattice_covariance(N, t, s)[..., 0, 0]))
        se = m2.std(ddof=1) / np.sqrt(n)
        assert abs(m2.mean() - expect) <= 5 * se


def _average(values, t, burn=0.0):
    return time_averages(t, {"f": values}, burn)["f"]


class TestBirkhoff:
    def test_constant_functional(self):
        t = np.linspace(0.0, 10.0, 101)
        for k in (26, 101):  # T = 2.5 and 10
            avg = _average(np.ones(k), t[:k])
            assert float(avg) == pytest.approx(1.0, rel=1e-14)

    def test_frozen_state(self):
        t = np.linspace(0.0, 4.0, 41)
        avg = _average(np.full_like(t, 3.7), t)
        assert float(avg) == pytest.approx(3.7, rel=1e-14)

    def test_linear_in_functional(self):
        t = np.linspace(0.0, 1.0, 11)
        v1, v2 = RNG.standard_normal(11), RNG.standard_normal(11)
        a = _average(v1, t)
        b = _average(v2, t)
        ab = _average(2 * v1 - 3 * v2, t)
        assert float(ab) == pytest.approx(2 * a - 3 * b, rel=1e-12)

    def test_running_average_consistent(self):
        # (1/t) int_0^t F by a cumulative trapezoid at stored times t
        # against the average over [0, t]; then a burn-in window
        t = np.linspace(0.0, 5.0, 51)
        vals = np.sin(t)
        running = np.cumsum(0.5 * np.diff(t) * (vals[1:] + vals[:-1])) / t[1:]
        for k in (1, 10, 50):
            avg = _average(vals[:k + 1], t[:k + 1])
            assert float(avg) == pytest.approx(running[k - 1], rel=1e-12)
        window = (running[-1] * 5.0 - running[19] * 2.0) / 3.0
        avg = _average(vals, t, burn=2.0)
        assert float(avg) == pytest.approx(window, rel=1e-12)

    def test_out_of_range(self):
        # a window that starts past the stored horizon holds no sample
        with pytest.raises(ValueError, match=r"window \[2\.0, 1\.0\] holds under two"):
            _average(np.array([1.0, 2.0]), np.array([0.0, 1.0]), burn=2.0)

    def test_one_sample_window_is_refused(self):
        with pytest.raises(ValueError, match=r"window \[1\.0, 1\.0\] holds under two"):
            _average(np.array([1.0, 2.0]), np.array([0.0, 1.0]), burn=1.0)


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

    @pytest.mark.parametrize("phi", [0.0, 0.9], ids=["iid", "AR(1) 0.9"])
    def test_stderr_calibrated(self, phi):
        # the reported SE against the scatter of the means of 400 stationary
        # AR(1) series of 4,000; n_eff = n / (2 tau) read 1.43x on iid data
        rng = np.random.default_rng(5)
        eps = rng.standard_normal((400, 4000))
        eps[:, 0] /= np.sqrt(1.0 - phi**2)
        x = lfilter([1.0], [1.0, -phi], eps, axis=1)
        means, errs, _ = mean_with_error(x.T)
        assert 0.85 <= errs.mean() / means.std(ddof=1) <= 1.15

    @staticmethod
    def series(kind, n=4000):
        rng = np.random.default_rng(11)
        if kind == "iid":
            return rng.standard_normal(n)
        if kind == "AR(1) 0.9":
            return lfilter([1.0], [1.0, -0.9], rng.standard_normal(n))
        if kind == "blocks":
            return np.repeat(rng.standard_normal(n // 40), 40)
        if kind == "random walk":
            return np.cumsum(rng.standard_normal(n))
        if kind == "constant":  # 2.5 sums exactly, so x - mean is 0
            return np.full(n, 2.5)
        return rng.standard_normal(int(kind[2:]))  # "n=2", "n=3", "n=4"

    @pytest.mark.parametrize("kind", ["iid", "AR(1) 0.9", "blocks", "random walk",
                                      "constant", "n=2", "n=3", "n=4"])
    def test_window_matches_the_loop(self, kind):
        # a window one off moves tau by 2 rho_W, far above 1e-12
        x = self.series(kind)
        tau = autocorr_time(x)
        assert tau.shape == ()
        assert tau == pytest.approx(autocorr_time_loop(x), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("shape", [(999, 7), (300, 2, 3, 3)])
    def test_each_series_as_alone(self, shape):
        # random walks, iid columns, and a constant one whose 0 / 0 is ignored
        rng = np.random.default_rng(12)
        x = rng.standard_normal(shape)
        x[:, 0] = np.cumsum(x[:, 0], axis=0)
        x[:, 1] = 2.5
        together = mean_with_error(x)
        cols = x.reshape(shape[0], -1)
        for j in range(cols.shape[1]):
            alone = mean_with_error(cols[:, j])
            for got, want in zip(together, alone):
                assert got.shape == shape[1:] and want.shape == ()
                assert got.reshape(-1)[j] == want, j

    def test_nan_sample_gives_nan(self):
        x = np.full(500, 0.3)  # constant but for the NaN
        x[17] = np.nan
        assert all(np.isnan(v) for v in mean_with_error(x))
        assert np.isnan(mean_with_error(np.stack([x, RNG.standard_normal(500)], 1))[2][0])

    @pytest.mark.parametrize("T", [0.25, 0.0])
    def test_under_two_samples_refused(self, T):
        # one sample warned "Degrees of freedom <= 0", none "Mean of empty
        # slice", and both returned nan error bars
        with pytest.raises(ValueError, match=f"^a series of {int(T / 0.25)} samples has no"):
            linear_moment_report(2, 1.0, T, 0.25, n_paths=2)


class TestEnsembleSummary:
    def test_fields_and_effective_size(self):
        t = np.linspace(0.0, 100.0, 2001)
        rng = np.random.default_rng(4)
        vals = np.repeat(rng.standard_normal((201, 2)), 10, axis=0)[:2001]
        d = ensemble_summary(t, {"obs": vals}, burn=0.0)["obs"]
        naive = np.sqrt(vals.var(ddof=1) / vals.size)
        assert d["act"] > 3.0          # strong correlation detected
        assert d["stderr"] > naive     # and reflected in the error bar
        assert d["n_eff"] < vals.size

    def test_one_sample_window_is_refused(self):
        with pytest.raises(ValueError, match=r"window \[1\.0, 1\.0\] holds under two"):
            ensemble_summary(np.array([0.0, 1.0]), {"obs": np.array([1.0, 2.0])}, 1.0)

    def test_pools_the_paths_alone(self):
        cfg = SimConfig(N=4, s=1.0, gamma=0.0, dt=0.05, T=10.0, obs_interval=0.05)
        run = sample_trajectory(cfg, None, [3, 4, 5])
        pooled = ensemble_summary(run["times"], run["series"], 2.5)
        for name, values in run["series"].items():
            alone = [ensemble_summary(run["times"], {name: values[:, j]}, 2.5)[name]
                     for j in range(3)]
            se = np.array([a["stderr"] for a in alone])
            assert pooled[name]["stderr"] == np.sqrt(np.sum(se**2)) / 3
            assert pooled[name]["act"] == np.mean([a["act"] for a in alone])

    def test_nan_sample_gives_nan_act(self):
        vals = np.ones((40, 2))
        vals[9, 1] = np.nan
        d = ensemble_summary(np.arange(40.0), {"obs": vals}, 0.0)["obs"]
        assert np.isnan(d["act"]) and np.isnan(d["stderr"]) and np.isnan(d["mean"])


class TestSamplingMemory:
    """A run holds its states and its float series, and no sampled state:
    the traced peak grows with the samples by the series' own bytes."""

    SLACK = 256 * 1024

    @staticmethod
    def traced_peak(run) -> int:
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def assert_flat(self, run, series_bytes):
        """``run(T)`` samples T / 0.01 + 1 times; the peak at 400 samples
        exceeds the one at 20 by at most the 380 extra rows."""
        run(0.19)  # plans and tables cached first
        low = self.traced_peak(lambda: run(0.19))
        high = self.traced_peak(lambda: run(3.99))
        assert high - low <= 380 * series_bytes + self.SLACK

    @staticmethod
    def config(**kw):  # the default observables unless overridden
        return SimConfig(N=16, dt=0.01, obs_interval=0.01, **kw)

    def test_sample_trajectory(self):
        cfg = self.config()
        self.assert_flat(lambda T: sample_trajectory(replace(cfg, T=T), None, 7),
                         8 * (len(cfg.observables) + 1))

    def test_compare_starts(self):
        cfg, seeds = self.config(), [7, 8, 9]
        u2 = gaussian_bump_pair(cfg.N, 1.0)
        self.assert_flat(lambda T: compare_starts(cfg, None, u2, T, seeds),
                         8 * (2 * len(cfg.observables) * len(seeds) + 1))

    def test_observable_returning_a_view(self, monkeypatch):
        monkeypatch.setitem(_REGISTRY, "view_u",
                            lambda pair, cfg: pair[..., 0, cfg.N, cfg.N].real)
        cfg = self.config(observables=("view_u",))
        self.assert_flat(lambda T: sample_trajectory(replace(cfg, T=T), None, 7), 8 * 2)


class TestExperiments:
    def test_zero_scatter_compares_the_averages(self):
        same = compare_averages([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
        assert same["combined_se"] == 0.0 and same["within_3se"]
        differ = compare_averages([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])
        assert differ["combined_se"] == 0.0 and differ["diff"] == -1.0
        assert not differ["within_3se"]

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

    def test_krylov_bogolyubov_samples_no_observable(self):
        # T = 0.3 is no multiple of obs_interval 0.25, but nothing is sampled
        rep = krylov_bogolyubov_diagnostic(SimConfig(N=2, dt=0.05), [1, 2], 4, 0.3)
        assert rep["sizes"].shape == (4,)

    def test_krylov_bogolyubov_horizon_names_t_sample(self):
        with pytest.raises(ConfigError, match="^t_sample: 0.33 is not a whole multiple of 0.05"):
            krylov_bogolyubov_diagnostic(SimConfig(N=2, dt=0.05), [1.0], 4, 0.33)

    @pytest.mark.parametrize("run", [
        lambda cfg: krylov_bogolyubov_diagnostic(cfg, [1.0], 0, 0.5),
        lambda cfg: sample_trajectory(cfg, None, []),
        lambda cfg: linear_moment_report(2, 1.0, 2.0, n_paths=0),
    ], ids=["krylov_bogolyubov", "sample_trajectory", "linear_moment_report"])
    def test_no_paths_refused(self, run):
        # no seed ran NaN fractions, empty series or an unpacking error
        with pytest.raises(ValueError, match="^seed: an empty sequence"):
            run(SimConfig(N=2, dt=0.05, T=1.0))

    def test_negative_horizon_refused(self):
        # T = -1 was a whole number of steps, -20, and died on an empty series
        with pytest.raises(ConfigError, match="^T: must be finite and >= 0"):
            sample_trajectory(SimConfig(N=2, dt=0.05, T=-1.0), None, 3)

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
        cfg = SimConfig(N=4, s=1.0, gamma=0.0, dt=0.05, T=60.0, obs_interval=0.25,
                        observables=("mean_u2",))
        run = sample_trajectory(cfg, None, seeds=[11, 12])
        vals = run["series"]["mean_u2"]  # (T, 2)
        burn = vals.shape[0] // 4
        m1, se1, _ = mean_with_error(vals[burn:, 0])
        m2, se2, _ = mean_with_error(vals[burn:, 1])
        assert abs(m1 - m2) <= 3.0 * np.hypot(se1, se2)

    def test_trajectory_sampling_cadence(self):
        cfg = SimConfig(N=2, s=1.0, dt=0.05, obs_interval=0.25, T=1.0,
                        observables=("mean_u2",))
        run = sample_trajectory(cfg, None, seeds=5)
        times = run["times"]
        assert times[0] == 0.0 and times[-1] == pytest.approx(1.0)
        assert len(times) == 5 and run["series"]["mean_u2"].shape == (5,)

    def test_sample_times_are_the_states_clock(self):
        cfg = SimConfig(N=2, s=1.0, dt=0.05, obs_interval=0.25, T=3.0,
                        observables=("mean_u2",))
        run = sample_trajectory(cfg, None, seeds=5)
        st = dynamics.flow_init(cfg, seed=5)
        clock = [st.t]
        for _ in range(12):
            st = dynamics.run_steps(st, 5)
            clock.append(st.t)
        assert np.array_equal(run["times"], clock)
        assert run["state"].t == clock[-1]

    def test_burn_in_sample_kept_at_dt_0025(self):
        # the summed clock read 49.99999999999823 at step 2000 and the
        # window [50, 200] began at 50.25; F(t) = t averages to 125 over it
        cfg = SimConfig(N=1, s=1.0, dt=0.025, obs_interval=0.25, T=200.0,
                        observables=("mean_u2",))
        times = sample_trajectory(cfg, None, seeds=1)["times"]
        assert times[200] == 50.0 and times[-1] == 200.0
        ramp = {"t": times.copy()}
        assert time_averages(times, ramp, 50.0)["t"] == pytest.approx(125.0, abs=1e-9)


class TestLockstep:
    """``compare_starts`` steps both starts on one draw and one stick per
    step; each start's numbers must equal its own run's."""

    @staticmethod
    def config():
        return SimConfig(N=4, s=1.0, gamma=0.3, dt=0.05, obs_interval=0.25,
                         observables=("mean_u2", "mean_u4", "clipped_halpha"))

    @pytest.mark.parametrize("T", [1, 2])
    def test_equals_one_run_per_start(self, T):
        # five seeds, a nonzero first start, and windows of 4 and 7 samples
        cfg = self.config()
        u1 = 0.3 * random_pair(4, np.random.default_rng(5), decay=2.0)
        u2 = gaussian_bump_pair(4, 1.0)
        seeds = [21, 22, 23, 24, 25]
        got = compare_starts(cfg, u1, u2, float(T), seeds)
        assert got == compare_starts_separately(cfg, u1, u2, float(T), seeds)

    def test_one_draw_per_step(self, monkeypatch):
        calls = []
        real = noise.sample_increment

        def counting(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        for mod in (noise, dynamics):
            monkeypatch.setattr(mod, "sample_increment", counting)
        compare_starts(self.config(), None, gaussian_bump_pair(4, 1.0), 1.0, [3, 4, 5])
        assert len(calls) == 20  # T / dt, for the one batch of seeds


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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_equals_the_oracle(self, monkeypatch, threads):
        # five seeds and two different starts; on two threads the coupling
        # steps run split in uneven row blocks (2 + 3), on one thread whole
        u1, u2 = self.starts()
        seeds = [21, 22, 23, 24, 25]
        want = two_start_convergence(self.CFG, u1, u2, 2.0, seeds, self.OPTS, 1, 0.5)
        monkeypatch.setattr(coupling, "_thread_count", lambda: threads)
        monkeypatch.setattr(coupling, "_MIN_BLOCK_SAMPLES",
                            len(seeds) * coupling.cube_grid_size(4) ** 2 // 2)
        split = []
        real_blocks = coupling._row_blocks
        monkeypatch.setattr(coupling, "_row_blocks",
                            lambda rec: split.append(real_blocks(rec)) or split[-1])
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
        want_blocks = [] if threads == 1 else [slice(0, 2), slice(2, 5)]
        assert split and all(blocks == want_blocks for blocks in split)

    def test_one_draw_and_one_flow_step_per_start(self, monkeypatch):
        # the record's flow is start 1's flow: 20 steps draw 20 increments
        # and make 40 flow steps, none of them a second run of start 1
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
        (-1.0, 0.5, "T: must be >= 0, got -1.0"),
    ])
    def test_bad_dn_every_refused_before_any_step(self, monkeypatch, T, dn_every, match):
        def no_run(*args, **kw):
            raise AssertionError("a run started")

        monkeypatch.setattr(ergodics, "_sample_starts", no_run)
        u1, u2 = self.starts()
        with pytest.raises(ConfigError, match=match):
            compare_starts(self.CFG, u1, u2, T, [3, 4], self.OPTS, 1, dn_every)

    @pytest.mark.parametrize("dn_n", [0, -3, 0.5, 2.5, True])
    def test_bad_dn_n_refused(self, monkeypatch, dn_n):
        def no_step(*args, **kw):
            raise AssertionError("a coupling step ran")

        # refused at the d_n of t = 0, before the first step
        monkeypatch.setattr(ergodics, "coupling_step", no_step)
        u1, u2 = self.starts()
        with pytest.raises(ValueError, match="n must be an integer >= 1"):
            compare_starts(self.CFG, u1, u2, 1.0, [3, 4], self.OPTS, dn_n, 0.5)
