"""Remainder integration, full-flow assembly, energies, restart identity."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from sdnlw.checkpoint import load_checkpoint, save_checkpoint
from sdnlw.config import SimConfig
from sdnlw.dynamics import (
    BlowUpError,
    _midpoint_stick,
    cube_grid_size,
    energy,
    flow_init,
    full_flow,
    modified_energy_F,
    next_increment,
    nonlinearity_field,
    restart_check,
    run_steps,
    v_step,
)
from sdnlw.noise import NoiseIncrement, sample_increment, stick_step_shared
from sdnlw.propagator import apply_S, xalpha_norm
from sdnlw.renorm import cubic_coefficients
from sdnlw.spectral import (
    dealiased_product,
    grad2_table,
    hnorm,
    integral,
    omega_table,
    project_leq,
    random_field,
    random_pair,
    to_physical,
    zero_field,
    zero_pair,
)
from sdnlw import spectral
from _utils import coarsen, fine_increments, nonlinearity, run_table, zero_increments

RNG = np.random.default_rng(12)


class TestNonlinearity:
    def test_v_zero_returns_projected_c(self):
        u0 = random_pair(4, RNG)
        psi = random_field(4, RNG)
        coeffs = cubic_coefficients(u0, psi, 0.4, 0.6, 4)
        out = nonlinearity(zero_pair(4), coeffs, 4)
        assert np.max(np.abs(out - spectral.resize(coeffs.c, 4))) < 1e-13

    def test_pure_cube_of_constant(self):
        zero = cubic_coefficients(zero_pair(2), zero_field(2), 0.0, 0.0, 2)
        v = zero_pair(2)
        v[0, 2, 2] = 2.0
        out = nonlinearity(v, zero, 2)
        assert integral(out) == pytest.approx(8.0, abs=1e-13)

    def test_coefficient_form_equals_direct(self):
        u0 = random_pair(4, RNG)
        psi = random_field(4, RNG)
        v = random_pair(4, RNG)
        gamma, t = 0.9, 1.3
        coeffs = cubic_coefficients(u0, psi, t, gamma, 4)
        via_coeffs = nonlinearity(v, coeffs, 4)
        lin = apply_S(u0, t)
        stick = zero_pair(4)
        stick[0] = psi
        direct = nonlinearity_field(lin, stick, v, gamma, 4)
        assert np.max(np.abs(via_coeffs - direct)) < 1e-12

    def test_presampled_flow_gives_the_same_bits(self):
        lin, stick, v = (random_pair(4, RNG, batch=(3,)) for _ in range(3))
        x = (lin + stick + v)[..., 0, :, :]
        x_phys = to_physical(x, cube_grid_size(4))
        expect = dealiased_product(x, x, x, out_N=4) - 3.0 * 0.4 * x
        assert np.array_equal(nonlinearity_field(lin, stick, v, 0.4, 4, x_phys), expect)
        assert np.array_equal(nonlinearity_field(lin, stick, v, 0.4, 4), expect)
        with pytest.raises(ValueError, match="sampled on"):
            nonlinearity_field(lin, stick, v, 0.4, 4, to_physical(x, 9))


class TestVStep:
    def test_zero_fixed_point(self):
        cfg = SimConfig(N=4, gamma=0.0, dt=0.05).check()
        st = flow_init(cfg)
        st = run_table(v_step, st, zero_increments(4, cfg.dt, 40))
        assert np.all(st.v == 0)
        assert np.all(full_flow(st) == 0)

    def test_self_convergence_order_one(self):
        cfg = SimConfig(N=8, s=1.0, gamma=0.5, alpha=0.25)
        u0 = random_pair(8, RNG)
        T, deltas = 1.0, [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        fine = fine_increments(8, min(deltas), round(T / min(deltas)), 42)
        sols = {}
        for d in deltas:
            c = dataclasses.replace(cfg, dt=d)
            st = flow_init(c, u0, seed=42)
            table = coarsen(fine, round(d / min(deltas)), d)
            sols[d] = full_flow(run_table(v_step, st, table))
        errs = [float(hnorm(sols[d] - sols[d / 2])) for d in deltas[:3]]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(1.7 <= r <= 2.3 for r in ratios)

    def test_midpoint_order_two_deterministic(self):
        cfg = SimConfig(N=8, s=1.0, gamma=0.5, alpha=0.25, integrator="midpoint")
        u0 = random_pair(8, RNG)
        T, deltas = 1.0, [1e-2, 5e-3, 2.5e-3, 1.25e-3]
        sols = {}
        for d in deltas:
            c = dataclasses.replace(cfg, dt=d)
            st = flow_init(c, u0, seed=1)
            n = round(T / d)
            sols[d] = full_flow(run_table(v_step, st, zero_increments(8, d, n)))
        errs = [float(hnorm(sols[d] - sols[d / 2])) for d in deltas[:3]]
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(3.4 <= r <= 4.6 for r in ratios)

    def test_against_dense_ode_oracle(self):
        # noise off, N=2: compare with an adaptive ODE solve of the full
        # 2 (2N+1)^2 spectral system (midpoint keeps the gap below 1e-6)
        N, T = 2, 1.0
        cfg = SimConfig(N=N, s=1.0, gamma=0.3, dt=2.5e-4, integrator="midpoint")
        u0 = random_pair(N, RNG, decay=2.0)
        K = 2 * N + 1
        lam = 1.0 + grad2_table(N)

        def rhs(t, y):
            z = y.reshape(2, K, K, 2)
            pair = z[..., 0] + 1j * z[..., 1]
            nl = nonlinearity_field(zero_pair(N), zero_pair(N), pair, cfg.gamma, N)
            # remainder ODE: u' = ut, ut' = -ut - lam u - NL(u)
            du = pair[1]
            dut = -pair[1] - lam * pair[0] - nl
            out = np.stack([du, dut])
            return np.stack([out.real, out.imag], axis=-1).ravel()

        y0 = np.stack([u0.real, u0.imag], axis=-1).ravel()
        sol = solve_ivp(rhs, (0.0, T), y0, rtol=1e-10, atol=1e-12,
                        method="RK45", dense_output=False)
        zT = sol.y[:, -1].reshape(2, K, K, 2)
        oracle = zT[..., 0] + 1j * zT[..., 1]

        # same dynamics through v_step: u0 enters as the v initial value by
        # driving with zero data/noise and nonzero v -- emulate by folding
        # u0 into the flow's initial data, so full_flow solves the same ODE
        st = flow_init(cfg, u0, seed=0)
        n = round(T / cfg.dt)
        st = run_table(v_step, st, zero_increments(N, cfg.dt, n))
        got = full_flow(st)
        assert float(hnorm(got - oracle)) < 1e-6

    def test_blowup_signal(self):
        cfg = SimConfig(N=2, dt=0.5, blowup_threshold=1e3)
        huge = zero_pair(2)
        huge[0, 2, 2] = 50.0
        st = flow_init(cfg, huge, seed=0)
        with pytest.raises(BlowUpError):
            run_table(v_step, st, zero_increments(2, cfg.dt, 50))

    @pytest.mark.parametrize("seed, batch", [(3, (3,)), ([1, 2, 3], (1,)),
                                             ([1, 2, 3], ()), (list(range(5)), (3,))])
    def test_seed_must_match_batch(self, seed, batch):
        # a scalar seed for 3 paths would give 3 identical paths; 3 seeds
        # for one path would grow the batch after the first step
        with pytest.raises(ValueError, match=r"seed of shape .* batch"):
            flow_init(SimConfig(N=2), None, seed=seed, batch=batch)

    def test_scalar_seed_refused_for_batched_data(self):
        u0 = random_pair(2, RNG, batch=(3,))
        with pytest.raises(ValueError, match=r"batch \(3,\)"):
            flow_init(SimConfig(N=2), u0, seed=4)
        assert flow_init(SimConfig(N=2), u0, seed=[4, 5, 6]).batch == (3,)

    def test_increment_for_another_dt_rejected(self):
        cfg = SimConfig(N=4, dt=0.01)
        incr = sample_increment(4, 0.02, 3, 0)
        with pytest.raises(ValueError, match=r"0\.02.*0\.01"):
            v_step(flow_init(cfg, seed=3), incr)

    def test_odd_symmetry(self):
        # negating data and noise path negates the solution
        cfg = SimConfig(N=4, s=1.0, gamma=0.7, dt=0.02)
        u0 = random_pair(4, RNG)
        incr = fine_increments(4, cfg.dt, 50, 17)
        plus = flow_init(cfg, u0, seed=17)
        minus = flow_init(cfg, -u0, seed=17)
        plus = run_table(v_step, plus, [NoiseIncrement(c, cfg.dt) for c in incr])
        minus = run_table(v_step, minus, [NoiseIncrement(-c, cfg.dt) for c in incr])
        assert float(hnorm(full_flow(plus) + full_flow(minus))) < 1e-12

    def test_linearity_with_cubic_disabled(self):
        cfg = SimConfig(N=4, s=1.0, linear_only=True, dt=0.05)
        u0 = random_pair(4, RNG)
        st = flow_init(cfg, u0, seed=9)
        st = run_steps(st, 30)
        from sdnlw.propagator import apply_S
        expect = apply_S(u0, st.t) + st.stick.value
        assert float(hnorm(full_flow(st) - expect)) < 1e-12
        assert np.all(st.v == 0)

    def test_n_convergence_of_remainder(self):
        # sup_t |v_N - v_{2N}|_{H1} decreases monotonically over N = 4, 8, 16
        # for fixed smooth data and one fixed noise realization
        from sdnlw.spectral import embed
        T, dt = 1.0, 5e-3
        fine = fine_increments(16, dt, round(T / dt), 23)
        u0_full = random_pair(16, np.random.default_rng(2), decay=3.0)
        snaps = {}
        for N in (4, 8, 16):
            cfg = SimConfig(N=N, s=1.0, gamma=0.2, dt=dt)
            st = flow_init(cfg, u0_full, seed=23)
            vs = []
            for k, c in enumerate(fine):
                st = v_step(st, incr=NoiseIncrement(spectral.resize(c, N), dt))
                if (k + 1) % 10 == 0:
                    vs.append(embed(st.v, 16))
            snaps[N] = np.stack(vs)
        d48 = float(np.max(hnorm(snaps[4] - snaps[8])))
        d816 = float(np.max(hnorm(snaps[8] - snaps[16])))
        assert d816 < d48


class TestOneClock:
    def test_stepping_twice_from_one_state_agrees(self):
        cfg = SimConfig(N=4, s=1.0, gamma=0.3, dt=0.05, seed=8)
        st = run_steps(flow_init(cfg, random_pair(4, RNG)), 3)
        a, b = v_step(st), v_step(st)
        for name in ("lin", "v"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert np.array_equal(a.stick.value, b.stick.value)
        assert (a.t, a.step) == (b.t, b.step) == (st.stick.t + cfg.dt, 4)

    def test_clock_is_the_sticks(self):
        cfg = SimConfig(N=4, s=1.0, gamma=0.3, dt=0.05, seed=8)
        st = flow_init(cfg, step0=6)
        assert (st.t, st.step) == (st.stick.t, st.stick.step) == (0.0, 6)
        st = run_steps(st, 7)
        assert (st.t, st.step) == (st.stick.t, st.stick.step)
        back = load_checkpoint(save_checkpoint(st))
        assert (back.t, back.step) == (back.stick.t, back.stick.step) \
            == (st.t, st.step)
        assert np.array_equal(full_flow(v_step(back)), full_flow(v_step(st)))


def _advanced(stick, dt, n=1):
    """The stick n steps further along its own lineage."""
    for _ in range(n):
        stick = stick_step_shared(stick, dt,
                                  sample_increment(stick.N, dt, stick.seed, stick.step))
    return stick


class TestSharedStick:
    """``v_step(state, incr, stick=...)``: a stick the caller advanced once
    for several states on the same noise."""

    cfg = SimConfig(N=2, s=1.0, gamma=0.3, dt=0.05)

    @pytest.mark.parametrize("integrator", ["euler", "midpoint"])
    def test_equals_own_stick(self, integrator):
        cfg = dataclasses.replace(self.cfg, integrator=integrator)
        st = run_steps(flow_init(cfg, random_pair(2, RNG, batch=(2,)), seed=[4, 5]), 2)
        incr = next_increment(st)
        got = v_step(st, incr, stick=stick_step_shared(st.stick, cfg.dt, incr))
        want = v_step(st)
        for name in ("lin", "v"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(got.stick.value, want.stick.value)
        assert (got.t, got.step) == (want.t, want.step)

    @pytest.mark.parametrize("seeds, ahead, message", [
        ([4, 5], 0, "at step 1, the state's next step is 2"),
        ([4, 5], 2, "at step 3"),
        ([4, 5, 6], 1, r"batch \(3,\)"),
        ([4, 6], 1, r"seeds \[4, 6\]"),
    ])
    def test_foreign_stick_refused(self, seeds, ahead, message):
        st = run_steps(flow_init(self.cfg, seed=[4, 5], batch=(2,)), 1)
        other = flow_init(self.cfg, seed=seeds, batch=(len(seeds),), step0=1).stick
        with pytest.raises(ValueError, match=f"^stick: .*{message}"):
            v_step(st, next_increment(st), stick=_advanced(other, self.cfg.dt, ahead))


class TestHalfStick:
    """``v_step(state, incr, half_stick=...)``: the midpoint integrator's
    half-step stick, advanced once by a caller for several states."""

    cfg = SimConfig(N=2, s=1.0, gamma=0.3, dt=0.05, integrator="midpoint")

    def state(self):
        return run_steps(flow_init(self.cfg, random_pair(2, RNG), seed=[4, 5],
                                   batch=(2,)), 2)

    def test_equals_own_half_stick(self):
        st = self.state()
        incr = next_increment(st)
        got = v_step(st, incr, stick=stick_step_shared(st.stick, self.cfg.dt, incr),
                     half_stick=_midpoint_stick(st.stick, self.cfg.dt, incr))
        want = v_step(st, incr)
        for name in ("lin", "v"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(got.stick.value, want.stick.value)

    @pytest.mark.parametrize("seeds, ahead, message", [
        ([4, 5], 0, "at step 1, the state's next step is 2"),
        ([4, 5, 6], 1, r"batch \(3,\)"),
        ([4, 6], 1, r"seeds \[4, 6\]"),
    ])
    def test_foreign_half_stick_refused(self, seeds, ahead, message):
        st = run_steps(flow_init(self.cfg, seed=[4, 5], batch=(2,)), 1)
        other = flow_init(self.cfg, seed=seeds, batch=(len(seeds),), step0=1).stick
        with pytest.raises(ValueError, match=f"^half_stick: .*{message}"):
            v_step(st, next_increment(st), half_stick=_advanced(other, self.cfg.dt, ahead))

    def test_full_step_stick_refused(self):
        st = self.state()
        incr = next_increment(st)
        full = stick_step_shared(st.stick, self.cfg.dt, incr)
        with pytest.raises(ValueError, match=r"^half_stick: at t = 0\.15.*0\.125"):
            v_step(st, incr, half_stick=full)

    def test_refused_by_euler(self):
        cfg = dataclasses.replace(self.cfg, integrator="euler")
        st = flow_init(cfg, seed=[4, 5], batch=(2,))
        incr = next_increment(st)
        with pytest.raises(ValueError, match="^half_stick: the euler integrator"):
            v_step(st, incr, half_stick=_midpoint_stick(st.stick, cfg.dt, incr))


class TestHeldOnce:
    """u0 and S(t) u0 carry no noise: they keep the data's batch shape, and
    the state keeps its own copy of the caller's data."""

    @pytest.mark.parametrize("data_batch", [(), (3,)])
    def test_parts_keep_the_data_batch(self, data_batch):
        cfg = SimConfig(N=2, s=1.0, gamma=0.3, dt=0.05)
        st = run_steps(flow_init(cfg, random_pair(2, RNG, batch=data_batch),
                                 seed=[4, 5, 6], batch=(3,)), 2)
        assert st.u0.shape == st.lin.shape == data_batch + (2, 5, 5)
        assert st.v.shape == st.stick.value.shape == full_flow(st).shape == (3, 2, 5, 5)

    def test_rows_equal_lone_runs(self):
        cfg = SimConfig(N=4, s=1.0, gamma=0.3, dt=0.05, integrator="midpoint")
        u0 = 0.5 * random_pair(4, RNG, decay=2.0)
        seeds = [4, 5, 6]
        st = run_steps(flow_init(cfg, u0, seed=seeds, batch=(3,)), 5)
        for i, seed in enumerate(seeds):
            lone = run_steps(flow_init(cfg, u0, seed=seed), 5)
            assert np.array_equal(full_flow(st)[i], full_flow(lone))
            assert np.array_equal(st.v[i], lone.v)

    def test_caller_data_not_aliased(self):
        # a later write to the caller's array changes neither the
        # checkpoint bytes nor the next step
        cfg = SimConfig(N=4, s=1.0, gamma=0.3, dt=0.05)
        u = random_pair(4, RNG)
        st = flow_init(cfg, u, seed=3)
        blob, nxt = save_checkpoint(st), v_step(st)
        u[0, 4, 4] = 99.0
        assert save_checkpoint(st) == blob
        after = v_step(st)
        for name in ("u0", "lin", "v"):
            assert np.array_equal(getattr(after, name), getattr(nxt, name))

    def test_data_not_fitting_the_paths_refused(self):
        with pytest.raises(ValueError, match=r"^u0: batch \(4,\) .* \(2,\)"):
            flow_init(SimConfig(N=2), random_pair(2, RNG, batch=(4,)), seed=[1, 2],
                      batch=(2,))


class TestFullFlow:
    def test_t0_returns_initial_data(self):
        cfg = SimConfig(N=4, s=1.0, gamma=0.3)
        u0 = random_pair(4, RNG)
        st = flow_init(cfg, u0, seed=1)
        assert np.array_equal(full_flow(st), u0)


class TestEnergies:
    def test_constant_pair_closed_form(self):
        v = zero_pair(4)
        v[0, 4, 4], v[1, 4, 4] = 1.0, 0.0
        assert float(energy(v, 4)) == pytest.approx(0.875, abs=1e-14)
        v[0, 4, 4], v[1, 4, 4] = 2.0, -1.0
        expect = 0.5 + 2.0 + 0.0 + 4.0 + 0.125
        assert float(energy(v, 4)) == pytest.approx(expect, abs=1e-12)

    def test_zero(self):
        assert float(energy(zero_pair(3), 3)) == 0.0

    def test_coercivity(self):
        for _ in range(100):
            v = random_pair(4, RNG)
            e = float(energy(v, 4))
            w = project_leq(v, 4)
            homog = 0.5 * float(
                np.sum(omega_table(4) ** 2 * np.abs(w[0]) ** 2)
                + np.sum(np.abs(w[1]) ** 2))
            assert e >= homog - 1e-12

    def test_modified_energy_reduces_when_a_zero(self):
        v = random_pair(4, RNG)
        coeffs = cubic_coefficients(zero_pair(4), zero_field(4), 0.0, 0.0, 4)
        f = float(modified_energy_F(v, coeffs, 4))
        e = float(energy(v, 4))
        wt = project_leq(v[1], 4)
        assert f == pytest.approx(e - 0.125 * float(np.sum(np.abs(wt) ** 2)),
                                  rel=1e-12)

    def test_zero_v_gives_zero_F(self):
        coeffs = cubic_coefficients(random_pair(4, RNG), random_field(4, RNG),
                                    0.5, 0.3, 4)
        assert float(modified_energy_F(zero_pair(4), coeffs, 4)) == 0.0

    def test_sandwich_inequalities(self):
        # F <= 5/4 E + C (|u0|_X + |psi|_L6)^6 and E <= 2F + 2C (...)^6;
        # the empirical constant over 100 draws stays finite and moderate
        worst = 0.0
        for k in range(100):
            v = random_pair(4, RNG)
            u0 = random_pair(4, RNG)
            psi = random_field(4, RNG)
            coeffs = cubic_coefficients(u0, psi, 0.1, 0.4, 4)
            e = float(energy(v, 4))
            f = float(modified_energy_F(v, coeffs, 4))
            base = (float(xalpha_norm(project_leq(u0, 4), 0.25))
                    + float(spectral.lp_norm(psi, 6.0))) ** 6
            c1 = max(f - 1.25 * e, 0.0) / base
            c2 = max(e - 2.0 * f, 0.0) / (2.0 * base)
            worst = max(worst, c1, c2)
        assert np.isfinite(worst) and worst < 10.0


class TestRestart:
    def test_linear_restart_exact(self):
        cfg = SimConfig(N=6, s=1.0, dt=0.05, linear_only=True)
        u0 = random_pair(6, RNG)
        assert restart_check(cfg, u0, 1.0, 1.0, seed=4) < 1e-12

    def test_h_zero(self):
        cfg = SimConfig(N=4, s=1.0, gamma=0.2, dt=0.05)
        assert restart_check(cfg, random_pair(4, RNG), 1.0, 0.0, seed=4) == 0.0

    def test_full_dynamics_restart_at_roundoff(self):
        # the exponential integrator satisfies the restart identity exactly;
        # the residual sits at the round-off floor for every step size
        cfg = SimConfig(N=8, s=1.0, gamma=0.4, dt=0.01)
        u0 = random_pair(8, RNG)
        for dt in (1e-2, 5e-3):
            c = dataclasses.replace(cfg, dt=dt)
            assert restart_check(c, u0, 1.0, 1.0, seed=6) < 1e-10

    def test_rejects_nonaligned_times(self):
        cfg = SimConfig(N=4, dt=0.05)
        with pytest.raises(ValueError):
            restart_check(cfg, None, 0.33, 0.5)


class TestEnergyBoundedness:
    def test_no_trend_over_late_window(self):
        cfg = SimConfig(N=8, s=1.0, gamma=0.0, alpha=0.25, dt=0.05)
        st = flow_init(cfg, None, seed=[70 + i for i in range(10)], batch=(10,))
        ts, es = [], []
        for k in range(2000):
            st = v_step(st)
            if (k + 1) % 10 == 0:
                ts.append(st.t)
                es.append(energy(st.v, 8))
        ts, es = np.array(ts), np.array(es)
        assert np.all(np.isfinite(es))
        mask = ts >= 50.0
        slopes = [np.polyfit(ts[mask], es[mask][:, j], 1)[0] for j in range(10)]
        ci = 2.262 * np.std(slopes, ddof=1) / np.sqrt(10)
        assert abs(np.mean(slopes)) <= ci
