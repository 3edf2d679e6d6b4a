"""White-noise increments and the stochastic convolution's exact law."""

import re
import sys
import threading

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import solve_discrete_lyapunov

from sdnlw import noise
from sdnlw.noise import (
    lattice_covariance,
    sample_increment,
    shared_covariance,
    shared_moment_report,
    stationary_covariance,
    step_covariance,
    stick_init,
    stick_step_exact,
    stick_step_shared,
)
from sdnlw.propagator import T_STAR, propagator_tables
from sdnlw.spectral import bracket_table, omega_table
from _utils import FFT_BACKENDS, fft_backend, hermitian_defect, unit_hermitian_fft2


def quad_covariance(omega: float, delta: float, s: float) -> np.ndarray:
    """Independent adaptive-quadrature oracle for the step covariance."""
    w = float(omega)

    def m(r):
        return np.array([np.sin(r * w) / w,
                         np.cos(r * w) - np.sin(r * w) / (2 * w)])

    upper = 60.0 if np.isinf(delta) else delta
    out = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            val, err = quad(lambda r: np.exp(-r) * m(r)[i] * m(r)[j],
                            0.0, upper, limit=400, epsabs=1e-13, epsrel=1e-13)
            out[i, j] = 2.0 * w ** (-2.0 * s) * val
    return out


class TestIncrements:
    def test_variance_law(self):
        n, delta = 100_000, 0.01
        vals = np.stack([sample_increment(4, delta, 1000 + i, 0).coeffs
                         for i in range(0, n, 50)])  # 2000 fields is plenty
        n_eff = vals.shape[0]
        var = np.mean(np.abs(vals[:, 4 + 1, 4]) ** 2)
        se = delta / np.sqrt(n_eff)
        assert abs(var - delta) <= 5 * se

    def test_zero_mode_real(self):
        inc = sample_increment(4, 0.1, 3, 0)
        assert inc.coeffs[4, 4].imag == 0.0

    def test_hermitian_exact(self):
        inc = sample_increment(5, 0.1, 9, 2)
        assert hermitian_defect(inc.coeffs) < 1e-14

    def test_seed_determinism(self):
        a = sample_increment(4, 0.1, 9, 7).coeffs
        b = sample_increment(4, 0.1, 9, 7).coeffs
        assert np.array_equal(a, b)
        c = sample_increment(4, 0.1, 9, 8).coeffs
        assert not np.allclose(a, c)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            sample_increment(4, 0.0, 1, 0)

    @pytest.mark.parametrize("delta", [np.nan, np.inf])
    def test_refuses_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be finite and > 0"):
            sample_increment(4, delta, 1, 0)

    @pytest.mark.parametrize("N, seed", [(0, 5), (4, 3), (8, -2), (4, [3, -2**63, 2**63 - 1]),
                                         (3, np.arange(20)), (1, [7])])
    def test_unit_hermitian_equals_fft2_route(self, N, seed):
        # the stream and the transform bit for bit, under either FFT backend
        for backend in FFT_BACKENDS:
            with fft_backend(backend):
                for step, block in ((0, 0), (7, 2)):
                    assert np.array_equal(noise.unit_hermitian(N, seed, step, block),
                                          unit_hermitian_fft2(N, seed, step, block))


# the ends of the signed 64-bit range, both signs and zero
PINNED_SEEDS = [0, 5, -3, 2**63 - 1, -2**63]


def fresh_normals(seed: int, step: int, block: int, shape: tuple) -> np.ndarray:
    """The stream's definition: a new Philox keyed by seed mod 2**64 at
    counter (0, 0, block, step), its standard normals in order."""
    bitgen = np.random.Philox(key=seed % 2**64, counter=[0, 0, block, step])
    return np.random.Generator(bitgen).standard_normal(shape)


class TestStream:
    @pytest.mark.parametrize("step", [0, 1, 99])
    @pytest.mark.parametrize("block", [0, 1, 2])
    def test_draw_equals_fresh_generator(self, step, block):
        want = np.stack([fresh_normals(s, step, block, (9, 9)) for s in PINNED_SEEDS])
        assert np.array_equal(noise._batched_normals(PINNED_SEEDS, step, block, (9, 9)),
                              want)
        for s, row in zip(PINNED_SEEDS, want):
            assert np.array_equal(noise._batched_normals(s, step, block, (9, 9)), row)

    def test_threads_draw_the_serial_rows(self):
        # 4 threads draw interleaved seeds, switching every microsecond
        seeds = list(range(-40, 40))
        keys = [(k, step) for k in range(4) for step in range(20)]
        serial = {(k, step): noise._batched_normals(seeds[k::4], step, 0, (9, 9))
                  for k, step in keys}
        got = {}

        def draw(k):
            for step in range(20):
                got[k, step] = noise._batched_normals(seeds[k::4], step, 0, (9, 9))

        threads = [threading.Thread(target=draw, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert sorted(got) == keys
        assert all(np.array_equal(got[key], serial[key]) for key in keys)


class TestStepCovariance:
    def test_small_delta_limit(self):
        # Sigma(d)/d -> 2 <n>^{-2s} diag(0, 1): only the velocity is forced
        for s in (0.5, 2.0):
            cov = step_covariance(np.array(2.0), 1e-7, s) / 1e-7
            pref = 2.0 * 2.0 ** (-2 * s)
            assert abs(cov[1, 1] - pref) < 1e-5 * pref
            # position block is O(d^2); at d = 1e-7 the cancellation floor
            # of the closed form dominates but stays far below the diagonal
            assert abs(cov[0, 0]) < 1e-9
            assert abs(cov[0, 1]) < 1e-6

    def test_closed_form_vs_quadrature(self):
        for s in (0.5, 1.0):
            for omega in (np.sqrt(0.75), 5.0, 30.0):
                for delta in (0.1, 1.3, np.inf):
                    closed = step_covariance(np.array(omega), delta, s)
                    oracle = quad_covariance(omega, delta, s)
                    assert np.max(np.abs(closed - oracle)) < 1e-10

    def test_stationary_closed_form(self):
        # Sigma_11(inf) = <n>^{-2s} / (1 + |2 pi n|^2), Sigma_22 = <n>^{-2s}
        for s in (0.5, 1.0, 4.0):
            stat = stationary_covariance(4, s)
            w = omega_table(4)
            assert np.max(np.abs(stat[..., 0, 0]
                                 - w ** (-2 * s) / (w**2 + 0.25))) < 1e-13
            assert np.max(np.abs(stat[..., 1, 1] - w ** (-2 * s))) < 1e-13
            assert np.max(np.abs(stat[..., 0, 1])) < 1e-14

    @pytest.mark.parametrize("delta", [np.nan, -np.inf, 0.0])
    def test_refuses_delta_not_above_zero(self, delta):
        # +inf is the stationary law; -inf is not
        with pytest.raises(ValueError, match="delta must be > 0"):
            step_covariance(np.array(2.0), delta, 1.0)

    def test_psd(self):
        for delta in (1e-3, 0.1, 2.0, np.inf):
            eig = np.linalg.eigvalsh(lattice_covariance(6, delta, 1.0))
            assert eig.min() >= -1e-14

    def test_exactness_of_exact_step(self):
        # one step of size d has the same law as two of size d/2
        cov = lattice_covariance(5, 0.8, 1.0)
        half = lattice_covariance(5, 0.4, 1.0)
        tab = propagator_tables(5, 0.4)
        m = np.stack([np.stack([tab.m11, tab.m12], -1),
                      np.stack([tab.m21, tab.m22], -1)], -2)
        comp = m @ half @ np.swapaxes(m, -1, -2) + half
        assert np.max(np.abs(comp - cov)) < 1e-12


class TestStickStepping:
    def test_starts_at_zero(self):
        st = stick_init(4, 1.0, 0)
        assert np.all(st.value == 0) and st.step == 0

    def test_zero_mean(self):
        n = 4000
        st = stick_init(2, 1.0, [i for i in range(n)], (n,))
        for _ in range(3):
            st = stick_step_exact(st, 0.5)
        mean = st.value.mean(axis=0)
        cov = lattice_covariance(2, 1.5, 1.0)
        se = np.sqrt(np.stack([cov[..., 0, 0], cov[..., 1, 1]]) / n)
        assert np.max(np.abs(mean) / se) < 5.0

    def test_exact_step_matches_covariance(self):
        n, delta, s = 60_000, 0.1, 1.0
        st = stick_init(2, s, [7 + i for i in range(n)], (n,))
        st = stick_step_exact(st, delta)
        cov = lattice_covariance(2, delta, s)
        for a, b in ((2, 2), (3, 2), (4, 4)):
            u, ut = st.value[:, 0, a, b], st.value[:, 1, a, b]
            for emp_s, th in (((np.abs(u) ** 2), cov[a, b, 0, 0]),
                              ((np.abs(ut) ** 2), cov[a, b, 1, 1]),
                              (((u * np.conj(ut)).real), cov[a, b, 0, 1])):
                se = emp_s.std(ddof=1) / np.sqrt(n)
                assert abs(emp_s.mean() - th) <= 5 * se

    def test_restart_identity_in_law(self):
        # stepping to t+h equals S(h) (state at t) plus an independent stick
        # of length h; verified through the covariance composition already
        # checked exactly, plus a Monte-Carlo spot check of the marginal.
        n, s = 30_000, 1.0
        st = stick_init(2, s, [11 + i for i in range(n)], (n,))
        st = stick_step_exact(st, 0.6)
        st = stick_step_exact(st, 0.4)
        cov = lattice_covariance(2, 1.0, s)
        u = st.value[:, 0, 3, 2]
        emp = np.abs(u) ** 2
        se = emp.std(ddof=1) / np.sqrt(n)
        assert abs(emp.mean() - cov[3, 2, 0, 0]) <= 5 * se

    def test_shared_step_reproducible_and_consistent(self):
        st = stick_init(4, 1.0, 21)
        own = sample_increment(4, 0.05, 21, 0)
        a = stick_step_shared(st, 0.05, own)
        b = stick_step_shared(st, 0.05, sample_increment(4, 0.05, 21, 0))
        assert np.array_equal(a.value, b.value)
        # another increment gives another stick
        inc = sample_increment(4, 0.05, 99, 0)
        c = stick_step_shared(st, 0.05, inc)
        assert not np.allclose(a.value, c.value)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, 0.0])
    def test_exact_step_refuses_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be finite and > 0"):
            stick_step_exact(stick_init(4, 1.0, 3), delta)

    @pytest.mark.parametrize("delta", [np.nan, np.inf, 0.0])
    def test_shared_step_refuses_non_finite_delta(self, delta):
        incr = sample_increment(4, 0.01, 3)
        with pytest.raises(ValueError, match="delta must be finite and > 0"):
            stick_step_shared(stick_init(4, 1.0, 3), delta, incr)

    @pytest.mark.parametrize("t", [np.nan, -np.inf])
    def test_sample_at_refuses_time(self, t):
        with pytest.raises(ValueError, match="delta must be > 0"):
            noise.sample_stick_at(4, 1.0, t, 3)

    def test_shared_step_refuses_increment_for_another_delta(self):
        st = stick_init(4, 1.0, 3)
        with pytest.raises(ValueError, match=r"0\.02.*0\.01"):
            stick_step_shared(st, 0.01, sample_increment(4, 0.02, 3))

    @pytest.mark.parametrize("seed, batch", [(3, (3,)), ([1, 2, 3], (1,)),
                                             ([1, 2, 3], ()), (list(range(5)), (3,)),
                                             (np.arange(4).reshape(2, 2), (2, 2))])
    def test_init_refuses_seed_not_matching_batch(self, seed, batch):
        # one stream per path: a mismatch would repeat or grow the paths
        with pytest.raises(ValueError, match=r"seed of shape .* batch"):
            stick_init(2, 1.0, seed, batch)

    def test_init_refuses_an_empty_seed_sequence(self):
        with pytest.raises(ValueError, match="^seed: an empty sequence"):
            stick_init(2, 1.0, [], (0,))

    DRAWS = pytest.mark.parametrize("draw", [
        lambda seed: sample_increment(2, 0.1, seed),
        lambda seed: noise.unit_hermitian(2, seed, 0, 0),
        lambda seed: noise.sample_stick_at(2, 1.0, 0.5, seed),
    ], ids=["sample_increment", "unit_hermitian", "sample_stick_at"])

    @DRAWS
    def test_draws_refuse_multi_dimensional_seed(self, draw):
        # a (2, 2) seed array would silently become a batch of 4
        with pytest.raises(ValueError, match=r"seed of shape \(2, 2\)"):
            draw(np.arange(4).reshape(2, 2))

    @DRAWS
    @pytest.mark.parametrize("seed", [2**64 + 5, -2**63 - 1, [1, 2**64 + 5],
                                      np.array([2**63], dtype=np.uint64), [1, 2**63]],
                             ids=["scalar", "negative", "list", "uint64", "float64 list"])
    def test_draws_refuse_seed_outside_64_bits(self, draw, seed):
        # reduced mod 2**64, the key 2**64 + 5 drew seed 5's stream
        with pytest.raises(ValueError, match=r"^seed -?\d+ lies outside \[-2\*\*63, 2\*\*63\)"):
            draw(seed)

    @pytest.mark.parametrize("seed, batch", [(2**63, ()), (-2**63 - 1, ()), (2**64, ()),
                                             ([0, 2**64, 1], (3,)),
                                             (np.array([2**64 - 1], dtype=np.uint64), (1,)),
                                             ([1, 2**63], (2,))])
    def test_init_refuses_seed_outside_64_bits(self, seed, batch):
        # a key reduced mod 2**64 would repeat a stream: 2**64 drew seed 0's
        with pytest.raises(ValueError, match=r"^seed -?\d+ lies outside \[-2\*\*63, 2\*\*63\)"):
            stick_init(2, 1.0, seed, batch)

    # (seed, batch, the refused seed's repr): numpy would round or cast each
    NOT_INTEGERS = pytest.mark.parametrize("seed, batch, shown", [
        (1.5, (), "1.5"), (True, (), "True"), ("3", (), "'3'"),
        ([1.5, 2.0], (2,), "1.5"), ([1, True], (2,), "True"),
        (np.array([1.0, 2.0]), (2,), "1.0"), (np.array(["3"]), (1,), "'3'"),
    ], ids=["float", "bool", "str", "float list", "bool in list", "float array",
            "str array"])

    @DRAWS
    @NOT_INTEGERS
    def test_draws_refuse_seed_not_an_integer(self, draw, seed, batch, shown):
        with pytest.raises(ValueError, match=rf"^seed {re.escape(shown)} is not an integer$"):
            draw(seed)

    @NOT_INTEGERS
    def test_init_refuses_seed_not_an_integer(self, seed, batch, shown):
        # seed=1.5 drew seed 1's stream, and [1.5, 2.0] stepped like [1, 2]
        with pytest.raises(ValueError, match=rf"^seed {re.escape(shown)} is not an integer$"):
            stick_init(2, 1.0, seed, batch)

    def test_uint64_seeds_in_range_accepted(self):
        seeds = np.array([0, 2**63 - 1], dtype=np.uint64)
        assert stick_init(2, 1.0, seeds, (2,)).seed.dtype == np.int64
        assert stick_init(2, 1.0, np.uint64(7)).batch == ()
        assert np.array_equal(sample_increment(2, 0.1, seeds).coeffs,
                              sample_increment(2, 0.1, [0, 2**63 - 1]).coeffs)

    def test_init_accepts_one_seed_per_path(self):
        assert stick_init(2, 1.0, 3).batch == ()
        assert stick_init(2, 1.0, [4, 5, 6], (3,)).batch == (3,)
        assert stick_init(2, 1.0, [-2**63, 2**63 - 1, -1], (3,)).batch == (3,)
        assert stick_init(2, 1.0, np.arange(2), (2,)).batch == (2,)

    def test_shared_step_covariance_first_order(self):
        # one shared step from zero has the kick's covariance dt f^2 k k^T
        # exactly, which is Sigma(d) only up to O(d^2); every mode's three
        # moments lie within 5 SE of it
        n, delta, s = 40_000, 0.05, 1.0
        seeds = [31 + i for i in range(n)]
        st = stick_init(2, s, seeds, (n,))
        st = stick_step_shared(st, delta, sample_increment(2, delta, seeds))
        u, ut = st.value[:, 0], st.value[:, 1]
        law = shared_covariance(2, s, delta, 1)
        for emp, want in [(np.abs(u) ** 2, law[..., 0, 0]), (np.abs(ut) ** 2, law[..., 1, 1]),
                          ((u * ut.conj()).real, law[..., 0, 1])]:
            se = emp.std(axis=0, ddof=1) / np.sqrt(n)
            assert np.all(np.abs(emp.mean(axis=0) - want) <= 5 * se)


def mode_matrices(N: int, t: float) -> np.ndarray:
    """S(t) as a (K, K, 2, 2) field of mode matrices."""
    tab = propagator_tables(N, t)
    return np.stack([np.stack([tab.m11, tab.m12], -1), np.stack([tab.m21, tab.m22], -1)], -2)


def stationary_gap(N: int, dt: float, s: float = 1.0) -> np.ndarray:
    """C_delta's relative gap to Sigma(inf) in the u and u_t variances."""
    stat = shared_covariance(N, s, dt, int(np.ceil(T_STAR / dt)))
    cont = stationary_covariance(N, s)
    return np.stack([stat[..., 0, 0] / cont[..., 0, 0],
                     stat[..., 1, 1] / cont[..., 1, 1]]) - 1.0


class TestSharedLaw:
    """The closed-form law of the stick the runs step, with no sampling."""

    @pytest.mark.parametrize("N, dt", [(2, 0.05), (8, 0.01), (4, 0.1)])
    def test_one_step_is_the_kick_covariance(self, N, dt):
        tab = propagator_tables(N, dt)
        k = np.stack([tab.m12, tab.m22], axis=-1)
        f = np.sqrt(2.0) * bracket_table(N, -1.0)
        want = dt * f[..., None, None] ** 2 * k[..., :, None] * k[..., None, :]
        assert np.array_equal(shared_covariance(N, 1.0, dt, 1), want)

    def test_steps_compose(self):
        # C_{3+5} = S^5 C_3 (S^5)^T + C_5, with S^5 = S(5 dt)
        N, s, dt = 3, 0.7, 0.05
        S = mode_matrices(N, 5 * dt)
        c3, c5 = shared_covariance(N, s, dt, 3), shared_covariance(N, s, dt, 5)
        want = S @ c3 @ np.swapaxes(S, -1, -2) + c5
        assert np.allclose(shared_covariance(N, s, dt, 8), want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("N, dt", [(8, 0.05), (4, 0.1)])
    def test_stationary_solves_the_lyapunov_equation(self, N, dt):
        # the recursion run to T_STAR against scipy's direct solve, mode by mode
        s = 1.0
        S = mode_matrices(N, dt)
        q = shared_covariance(N, s, dt, 1)
        stat = shared_covariance(N, s, dt, int(np.ceil(T_STAR / dt)))
        for idx in np.ndindex(S.shape[:2]):
            want = solve_discrete_lyapunov(S[idx], q[idx])
            assert np.allclose(stat[idx], want, rtol=1e-9, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("N, dt, n_off", [(8, 0.05, 12), (4, 0.1, 8), (8, 0.01, 0)],
                             ids=["criterion 10, ergodic", "criterion 07, girsanov",
                                  "default"])
    def test_resonance_table(self, N, dt, n_off):
        # modes where sin(omega dt) ~ 0 are over 10% off the continuum
        off = (np.abs(stationary_gap(N, dt)) > 0.1).any(axis=0)
        assert off.sum() == n_off
        if N == 8 and dt == 0.05:
            n = np.argwhere(off) - N
            assert sorted(map(tuple, np.abs(n))) == [(6, 8)] * 4 + [(7, 7)] * 4 + [(8, 6)] * 4

    @pytest.mark.parametrize("dt, gap", [(0.05, -0.0492), (0.1, -0.0967)])
    def test_zero_mode_velocity_variance_low_by_about_dt(self, dt, gap):
        N = 2
        assert stationary_gap(N, dt)[1, N, N] == pytest.approx(gap, abs=5e-5)


class TestMomentReport:
    def test_correct_stick_flags_no_mode(self):
        rep = shared_moment_report(3, 1.0, 0.05, 3000, 4)
        assert rep["mean"].shape == rep["law"].shape == (7, 7, 3)
        assert not rep["flags"].any()

    def test_velocity_variance_candidate_via_quadrature(self):
        # 2 <n>^{-2s} int e^{-r} (cos - sin/2w)^2 dr = <n>^{-2s}
        s, w = 1.0, 7.0
        val, _ = quad(lambda r: np.exp(-r)
                      * (np.cos(r * w) - np.sin(r * w) / (2 * w)) ** 2,
                      0, 80, limit=400)
        assert 2 * w ** (-2 * s) * val == pytest.approx(w ** (-2 * s), rel=1e-9)

    def test_large_s_decay(self):
        stat = stationary_covariance(4, 4.0)
        w = omega_table(4)
        # variances decay at least like <n>^{-8} across modes
        ratio = stat[..., 1, 1] * w**8
        assert np.max(ratio) <= 1.0 + 1e-12

    def test_requires_samples(self):
        with pytest.raises(ValueError, match="^samples: a standard error needs 2"):
            shared_moment_report(2, 1.0, 0.05, 1, 0)
