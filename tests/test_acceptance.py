"""Acceptance criteria, one test per criterion, at the stated scales.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``;
pytest -v carries the verdict in the test name either way).  Tolerances are
pinned here, not configurable.
"""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from sdnlw.config import SimConfig
from sdnlw.coupling import (
    CouplingOptions,
    coupling_init,
    coupling_step,
    run_coupling,
    tv_bound,
)
from sdnlw.dynamics import energy, flow_init, full_flow, restart_check, v_step
from sdnlw.ergodics import compare_starts, linear_moment_report
from sdnlw.noise import (
    lattice_covariance,
    step_covariance,
    stick_init,
    stick_step_exact,
)
from sdnlw.propagator import (
    determinant_defect,
    semigroup_defect,
)
from sdnlw.spectral import (
    dealiased_product,
    gaussian_bump_pair,
    hnorm,
    random_field,
    random_pair,
    resize,
    truncation_of,
)
from sdnlw import coupling as cp
from _utils import add_fields, coarsen, convolution_oracle, cubic_coefficients, \
    fine_increments, quadratic_Q, run_table, trapezoid_shift_check, \
    wave_residual_ratios, wick_powers


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_propagator_exactness():
    rng = np.random.default_rng(1)
    v = random_pair(16, rng, batch=(100,))
    sg = semigroup_defect(v, 1.3, 0.7)
    det = max(determinant_defect(16, t) for t in (0.25, 1.0, 4.0, 12.0))
    ratios = wave_residual_ratios(random_pair(16, rng), 0.8,
                                  (1e-2, 5e-3, 2.5e-3))
    ok = sg <= 1e-11 and det <= 1e-12 and all(3.5 <= r <= 4.5 for r in ratios)
    report(1, "propagator exactness", ok,
           f"semigroup {sg:.2e} (<=1e-11), det {det:.2e} (<=1e-12), "
           f"ODE residual ratios {[round(r, 2) for r in ratios]} (~4)")


def test_criterion_02_stochastic_convolution_law():
    n, delta, N = 100_000, 0.1, 4
    worst = 0.0
    for s in (0.5, 1.0):
        st = stick_init(N, s, [int(s * 10) * 10**6 + i for i in range(n)], (n,))
        st = stick_step_exact(st, delta)
        cov = lattice_covariance(N, delta, s)
        u, ut = st.value[:, 0], st.value[:, 1]
        for emp, th in (((np.abs(u) ** 2), cov[..., 0, 0]),
                        ((np.abs(ut) ** 2), cov[..., 1, 1]),
                        (((u * np.conj(ut)).real), cov[..., 0, 1])):
            se = emp.std(axis=0, ddof=1) / np.sqrt(n)
            worst = max(worst, float(np.max(np.abs(emp.mean(axis=0) - th) / se)))
    # closed form vs adaptive quadrature
    qdev = 0.0
    for s in (0.5, 1.0):
        for omega in (np.sqrt(0.75), 10.0):
            closed = step_covariance(np.array(omega), delta, s)
            for i in range(2):
                for j in range(2):
                    def integrand(r, i=i, j=j, w=omega):
                        m = (np.sin(r * w) / w,
                             np.cos(r * w) - np.sin(r * w) / (2 * w))
                        return np.exp(-r) * m[i] * m[j]
                    val, _ = quad(integrand, 0, delta, limit=200,
                                  epsabs=1e-14, epsrel=1e-14)
                    qdev = max(qdev, abs(closed[i, j]
                                         - 2 * omega ** (-2 * s) * val))
    ok = worst <= 5.0 and qdev <= 1e-10
    report(2, "stochastic convolution law", ok,
           f"max |MC - closed|/SE = {worst:.2f} (<=5), "
           f"closed vs quadrature {qdev:.2e} (<=1e-10)")


def test_criterion_03_linear_flow_ergodic_oracle():
    rep = linear_moment_report(N=4, s=1.0, T=500.0, dt_sample=0.25,
                               seed=5, n_paths=4)
    ok = rep["max_dev_sigma"] <= 5.0
    report(3, "linear-flow ergodic oracle", ok,
           f"max per-mode |time avg - stationary| = {rep['max_dev_sigma']:.2f} sigma (<=5)")


def _pairwise_ratios(errs):
    return [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]


def test_criterion_04_integrator_order():
    deltas = [1e-2, 5e-3, 2.5e-3, 1.25e-3]
    T, N = 1.0, 8
    fine = fine_increments(N, min(deltas), round(T / min(deltas)), 42)
    rng = np.random.default_rng(5)
    u0 = random_pair(N, rng)

    # v_step
    cfg = SimConfig(N=N, s=1.0, gamma=0.5, alpha=0.25)
    sols = {}
    for d in deltas:
        c = dataclasses.replace(cfg, dt=d)
        st = flow_init(c, u0, seed=42)
        table = coarsen(fine, round(d / min(deltas)), d)
        sols[d] = full_flow(run_table(v_step, st, table))
    v_ratios = _pairwise_ratios([float(hnorm(sols[d] - sols[d / 2]))
                                 for d in deltas[:3]])

    # w_step (eps held at its t=0 value: smooth discretization family)
    u2 = gaussian_bump_pair(N, 1.0)
    wsols = {}
    for d in deltas:
        c = dataclasses.replace(cfg, dt=d)
        opts = CouplingOptions(eps_every=10**6, dt_grid=1.0, norm_exp=5.0)
        rec = coupling_init(c, None, u2, opts, seed=42)
        table = coarsen(fine, round(d / min(deltas)), d)
        rec = run_table(coupling_step, rec, table)
        wsols[d] = rec.w
    w_ratios = _pairwise_ratios([float(hnorm(wsols[d] - wsols[d / 2]))
                                 for d in deltas[:3]])

    # restart: the exponential integrator satisfies the restart identity
    # exactly, so the residual sits at the round-off floor for every step
    # size (strictly stronger than an order-one decrease; the ratio clause
    # is vacuous at the floor)
    restarts = []
    for d in deltas[:3]:
        c = dataclasses.replace(cfg, dt=d)
        restarts.append(restart_check(c, u0, 1.0, 1.0, seed=6))

    ok = (all(1.7 <= r <= 2.3 for r in v_ratios)
          and all(1.7 <= r <= 2.3 for r in w_ratios)
          and all(r <= 1e-10 for r in restarts))
    report(4, "integrator order", ok,
           f"v ratios {[round(r, 2) for r in v_ratios]}, "
           f"w ratios {[round(r, 2) for r in w_ratios]} (in [1.7,2.3]); "
           f"restart residuals {['%.1e' % r for r in restarts]} "
           f"(exact identity, <=1e-10 at all step sizes)")


def test_criterion_05_coupling_identity():
    cfg = SimConfig(N=4, s=1.0, gamma=0.3, alpha=0.25)
    u2 = gaussian_bump_pair(4, 0.02)
    deltas = (1e-2, 5e-3, 2.5e-3)
    fine = fine_increments(4, min(deltas), round(2.0 / min(deltas)), 1)
    res = []
    for dt in deltas:
        c = dataclasses.replace(cfg, dt=dt)
        table = coarsen(fine, round(dt / min(deltas)), dt)
        out = trapezoid_shift_check(c, None, u2, 2.0,
                                    CouplingOptions(eps_every=1, dt_grid=1.0),
                                    seed=1, sample_every=10**6, incr_table=table)
        res.append(float(out["rel_residual"][-1]))
    ratios = _pairwise_ratios(res)
    ok = all(r >= 1.7 for r in ratios) and res[-1] <= 1e-3
    report(5, "coupling identity (shifted flow)", ok,
           f"rel residuals {['%.2e' % r for r in res]}, ratios "
           f"{[round(r, 2) for r in ratios]} (>=1.7), final "
           f"{res[-1]:.2e} <= 1e-3")


def test_criterion_06_w_contraction():
    cfg = SimConfig(N=8, s=1.0, gamma=0.0, alpha=0.25, dt=0.05)
    u2 = gaussian_bump_pair(8, 1.0)
    opts = CouplingOptions(eps_every=5, dt_grid=0.5, norm_exp=5.0)
    rec = coupling_init(cfg, None, u2, opts, seed=[30 + i for i in range(10)],
                        batch=(10,))
    ts, ratio = [], []
    for k in range(800):
        rec = coupling_step(rec)
        if (k + 1) % 10 == 0:
            ts.append(rec.t)
            ratio.append(float(np.mean(hnorm(rec.w) / rec.diff0_xnorm)))
    ts, ratio = np.array(ts), np.array(ratio)
    mask = ts >= 5.0
    slope = float(np.polyfit(ts[mask], np.log(ratio[mask]), 1)[0])
    ok = slope <= -1.0 / 16.0 + 0.01
    report(6, "w-contraction envelope", ok,
           f"fitted slope {slope:.3f} (<= -1/16 + 0.01 = -0.0525), "
           f"10 seeds, N=8, t<=40")


def test_criterion_07_girsanov_martingale():
    cfg = SimConfig(N=4, s=1.0, gamma=0.3, alpha=0.25, dt=0.1)
    u2 = gaussian_bump_pair(4, 0.02)
    opts = CouplingOptions(eps_every=10, dt_grid=1.0)
    # tune M on a disjoint pilot ensemble so >= 95% of paths run to T=10
    pilot = coupling_init(cfg, None, u2, opts,
                          seed=[10**7 + i for i in range(600)], batch=(600,),
                          monitor_M=np.inf)
    pilot = run_coupling(pilot, 100)
    M = float(np.percentile(pilot.monitor.running_max, 97.0))

    n = 10_000
    rec = coupling_init(cfg, None, u2, opts,
                        seed=[2 * 10**7 + i for i in range(n)], batch=(n,),
                        monitor_M=M)
    rec = run_coupling(rec, 100)
    surv = 1.0 - float(rec.monitor.stopped.mean())
    dens = np.exp(rec.log_density)
    se = float(dens.std(ddof=1) / np.sqrt(n))
    dev = abs(float(dens.mean()) - 1.0)
    ok = surv >= 0.95 and dev <= 5 * se
    report(7, "Girsanov martingale", ok,
           f"E[density] = {float(dens.mean()):.4f} (|dev| = {dev:.4f} <= "
           f"5 SE = {5*se:.4f}), survival {surv:.3f} (>=0.95) at M={M:.1f}")


def test_criterion_08_tv_bound():
    rng = np.random.default_rng(12)
    n = 100_000
    violations = 0
    margins = []
    for sigma in (0.1, 0.5, 1.0):
        x = rng.normal(-sigma**2 / 2.0, sigma, n)
        lhs = float(np.abs(np.exp(x) - 1.0).mean())
        for L in (0.5, 1.0, 2.0):
            bound = tv_bound(1.0, float(np.abs(x).mean()), L)
            margins.append(bound - lhs)
            if lhs > bound:
                violations += 1
    ok = violations == 0
    report(8, "TV bound dominates", ok,
           f"0 violations over 9 (sigma, L) combos, min margin "
           f"{min(margins):.3f}")


def test_criterion_09_energy_boundedness():
    cfg = SimConfig(N=8, s=1.0, gamma=0.0, alpha=0.25, dt=0.05)
    st = flow_init(cfg, None, seed=[70 + i for i in range(10)], batch=(10,))
    ts, es = [], []
    for k in range(2000):
        st = v_step(st)
        if (k + 1) % 10 == 0:
            ts.append(st.t)
            es.append(energy(st.v, 8))
    ts, es = np.array(ts), np.array(es)
    finite = bool(np.all(np.isfinite(es)))
    mask = ts >= 50.0
    slopes = [float(np.polyfit(ts[mask], es[mask][:, j], 1)[0])
              for j in range(10)]
    ci = 2.262 * float(np.std(slopes, ddof=1)) / np.sqrt(10)  # t(9, 97.5%)
    ok = finite and abs(float(np.mean(slopes))) <= ci
    report(9, "energy boundedness", ok,
           f"sup E finite for 10/10 seeds (max {float(es.max()):.1f}); "
           f"slope {float(np.mean(slopes)):.2e} within 95% CI +-{ci:.2e}")


def test_criterion_10_unique_ergodicity_desk_scale():
    cfg = SimConfig(N=8, s=1.0, gamma=0.0, alpha=0.25, dt=0.05,
                    obs_interval=0.25,
                    observables=("mean_u2", "clipped_halpha"))
    u2 = gaussian_bump_pair(8, 1.0)
    rep = compare_starts(
        cfg, None, u2, T=200.0, seeds=[900 + i for i in range(20)],
        coupling_opts=CouplingOptions(eps_every=10, dt_grid=1.0),
        dn_n=1, dn_every=10.0)
    stats_ok = all(d["within_3se"] for d in rep["observables"].values())
    dn_final = float(rep["coupled_dn"]["final"])
    ok = stats_ok and dn_final <= 0.05
    detail = ", ".join(
        f"{name}: |diff| {abs(d['diff']):.2e} <= 3se {3*d['combined_se']:.2e}"
        for name, d in rep["observables"].items())
    report(10, "unique ergodicity (statistical)", ok,
           detail + f"; coupled d_1(200) = {dn_final:.2e} (<=0.05)")


def test_criterion_11_algebraic_identities():
    rng = np.random.default_rng(77)
    # dealiased convolution vs brute force
    conv_dev = 0.0
    for N in (3, 5):
        f, g = random_field(N, rng), random_field(N, rng)
        conv_dev = max(conv_dev, float(np.max(np.abs(
            dealiased_product(f, g) - convolution_oracle(f, g)))))
    # Wick / coefficient polynomial identities
    u0 = random_pair(4, rng)
    psi = random_field(4, rng)
    vf = random_field(4, rng)
    gamma, t = 0.7, 0.9
    coeffs = cubic_coefficients(u0, psi, t, gamma, 4)
    lhs = add_fields(dealiased_product(vf, vf, vf),
                     dealiased_product(coeffs.a, vf, vf),
                     dealiased_product(coeffs.b, vf),
                     coeffs.c)
    from sdnlw.propagator import apply_S
    from sdnlw.spectral import project_leq
    x = project_leq(apply_S(u0, t)[0], 4) + psi
    tot = add_fields(x, vf)
    rhs = dealiased_product(tot, tot, tot) \
        - 3.0 * gamma * resize(tot, 3 * truncation_of(tot))
    poly_dev = float(np.max(np.abs(lhs - rhs)))
    wick = wick_powers(psi, gamma)
    q = quadratic_Q(u0, random_pair(4, rng), gamma)
    poly_dev = max(poly_dev, float(np.max(np.abs(
        wick.psi3 - dealiased_product(psi, psi, psi)
        + 3 * gamma * resize(psi, 12)))))
    # mollifier composition
    f = random_field(6, rng)
    moll_dev = float(np.max(np.abs(
        cp.mollify(cp.mollify(f, 0.013), 0.007) - cp.mollify(f, 0.02))))
    ok = conv_dev <= 1e-12 and poly_dev <= 1e-11 and moll_dev <= 1e-15
    report(11, "algebraic identities", ok,
           f"convolution {conv_dev:.1e} (<=1e-12), polynomial {poly_dev:.1e} "
           f"(<=1e-11), mollifier {moll_dev:.1e} (<=1e-15)")
