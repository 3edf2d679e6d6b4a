"""Self-contained analytic-identity suite behind the ``verify`` CLI command.

Every check runs the routes the runs use against a closed form or an exact
identity (Fourier sums at off-grid points, the cubic's increment, exact
linear theory), with no second implementation of the same job, and reports
a pass/fail line with the measured defect.  No randomness leaves this
module: all draws are from fixed seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import coupling, dynamics, noise, propagator, spectral
from .config import SimConfig


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name:<44s} {self.value:.3e} (tol {self.threshold:.1e})"


def _leq(name, value, threshold):
    return CheckResult(name, bool(value <= threshold), float(value), float(threshold))


def _fourier_sum(coeffs: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """sum_n c_n e^{2 pi i n.x} at each point x of pts (shape (P, 2))."""
    n = spectral.mode_range(spectral.truncation_of(coeffs))
    e1, e2 = (np.exp(2j * np.pi * np.outer(pts[:, k], n)) for k in (0, 1))
    return np.einsum("pa,ab,pb->p", e1, coeffs, e2)


def run_identity_suite(cfg: SimConfig) -> list[CheckResult]:
    rng = np.random.default_rng(2024)
    out = []

    # semigroup law and Wronskian of the propagator
    v = spectral.random_pair(16, rng)
    out.append(_leq("propagator: semigroup law (rel)",
                    propagator.semigroup_defect(v, 1.3, 0.7), 1e-11))
    out.append(_leq("propagator: det = exp(-t)",
                    max(propagator.determinant_defect(16, t) for t in (0.3, 1.7, 6.0)),
                    1e-12))

    # projection: idempotent and self-adjoint
    f = spectral.random_field(8, rng)
    g = spectral.random_field(8, rng)
    p1 = spectral.project_leq(f, 5)
    out.append(_leq("projection: idempotent",
                    float(np.max(np.abs(spectral.project_leq(p1, 5) - p1))), 0.0))
    adj = abs(spectral.l2_inner(p1, g) - spectral.l2_inner(f, spectral.project_leq(g, 5)))
    out.append(_leq("projection: self-adjoint", float(adj), 1e-13))

    # multiplier composition (round-off level)
    comp = spectral.bracket_multiplier(spectral.bracket_multiplier(f, 0.7), -0.7) - f
    out.append(_leq("multiplier: <grad>^s <grad>^-s = id",
                    float(np.max(np.abs(comp))), 1e-13))

    # dealiased products: the full product's Fourier sum at off-grid points
    # is the product of the factors' sums; the projected product (out_N, as
    # the runs take it) is the full one cropped
    a, b, c = (spectral.random_field(n, rng) for n in (4, 3, 2))
    pts = rng.random((16, 2))
    dev = 0.0
    for fs in ((a, b), (a, b, c)):
        prod = _fourier_sum(spectral.dealiased_product(*fs), pts)
        sums = np.prod([_fourier_sum(f, pts) for f in fs], axis=0)
        dev = max(dev, float(np.max(np.abs(prod - sums))))
    crop = spectral.resize(spectral.dealiased_product(a, b, c), 2)
    dev = max(dev, float(np.max(np.abs(spectral.dealiased_product(a, b, c, out_N=2)
                                       - crop))))
    out.append(_leq("products: Fourier sums at off-grid points", dev, 1e-12))

    # the step's cubic is the projected full cube: N_g(x) = P_N x^3 - 3 g x
    # with x = pi1 u, the full cube pinned by the products line
    bcfg = replace(cfg, N=4, gamma=0.7)
    u1 = spectral.random_pair(4, rng)
    u2 = spectral.random_pair(4, rng)
    n1 = dynamics.nonlinearity_field(u1[0], bcfg.gamma, 4)
    x = u1[0]
    cube = spectral.resize(spectral.dealiased_product(x, x, x), 4) - 3.0 * bcfg.gamma * x
    out.append(_leq("cubic: N_g(x) = P_N x^3 - 3 g x",
                    float(np.max(np.abs(n1 - cube))), 1e-12))

    # the coupling bracket at t = 0, p = pi1 u1 and q = pi1 (u2 - u1): Q
    # (exact degree 2N) is 3(p^2 - g) + 3pq + q^2 at off-grid points, and
    # B_plain is the cubic's increment N_g(u2) - N_g(u1) on the step's route
    rec = coupling.coupling_init(bcfg, u1, u2)
    q_form, b_plain = coupling._plain_bracket(rec, coupling._flow_samples(rec))
    p, q = _fourier_sum(u1[0], pts), _fourier_sum(u2[0] - u1[0], pts)
    closed = 3.0 * (p**2 - bcfg.gamma) + 3.0 * p * q + q**2
    incr = dynamics.nonlinearity_field(u2[0], bcfg.gamma, 4) - n1
    out.append(_leq("bracket: Q closed form, B_plain increment",
                    max(float(np.max(np.abs(_fourier_sum(q_form, pts) - closed))),
                        float(np.max(np.abs(b_plain - incr)))), 1e-12))

    # mollifier: composition law
    m1 = coupling.mollify(coupling.mollify(f, 0.013), 0.007)
    m2 = coupling.mollify(f, 0.02)
    out.append(_leq("mollifier: heat-kernel composition",
                    float(np.max(np.abs(m1 - m2))), 1e-15))

    # noise covariance: PSD and flow-composition consistency
    cov_t = noise.lattice_covariance(6, 0.7, 1.0)
    cov_h = noise.lattice_covariance(6, 0.4, 1.0)
    cov_th = noise.lattice_covariance(6, 1.1, 1.0)
    eig = np.linalg.eigvalsh(cov_th)
    out.append(_leq("covariance: PSD (min eigenvalue)",
                    float(max(0.0, -eig.min())), 1e-14))
    tab = propagator.propagator_tables(6, 0.4)
    m = np.stack([np.stack([tab.m11, tab.m12], -1),
                  np.stack([tab.m21, tab.m22], -1)], -2)
    comp_cov = m @ cov_t @ np.swapaxes(m, -1, -2) + cov_h
    out.append(_leq("covariance: Sigma(t+h) = M Sigma M' + Sigma(h)",
                    float(np.max(np.abs(comp_cov - cov_th))), 1e-12))
    stat = noise.lattice_covariance(6, np.inf, 1.0)
    w2 = spectral.omega_table(6) ** 2
    pred11 = spectral.omega_table(6) ** (-2.0) / (0.25 + w2)
    out.append(_leq("covariance: stationary closed form",
                    float(np.max(np.abs(stat[..., 0, 0] - pred11))), 1e-13))

    # Markov restart identity of the cubic flow (round-off, restart_check)
    rcfg = replace(cfg, N=4, gamma=0.7, dt=0.05, seed=11)
    res = dynamics.restart_check(rcfg, spectral.random_pair(4, rng), 0.5, 0.5)
    out.append(_leq("restart: flow residual", res, 1e-10))

    # zero fixed point of the remainder
    zcfg = replace(cfg, N=4, gamma=0.0, dt=0.05, seed=3)
    st = dynamics.flow_init(zcfg)
    zero_incr = noise.NoiseIncrement(spectral.zero_field(4), zcfg.dt)
    for _ in range(20):
        st = dynamics.v_step(st, dynamics.step_noise(st, zero_incr))
    out.append(_leq("dynamics: v = 0 under zero data/noise",
                    float(spectral.hnorm(st.v)), 0.0))

    # energy closed form on a constant pair
    vpair = spectral.zero_pair(4)
    vpair[0, 4, 4] = 1.0
    out.append(_leq("energy: constant-pair closed form",
                    abs(float(dynamics.energy(vpair, 4)) - 0.875), 1e-14))

    # d_n pseudo-metric basics and the TV bound edges
    x = spectral.random_pair(4, rng)
    y = spectral.random_pair(4, rng)
    dxy = coupling.d_n(x - y, 2, cfg.alpha)
    dyx = coupling.d_n(y - x, 2, cfg.alpha)
    out.append(_leq("d_n: symmetry", float(abs(dxy - dyx)), 1e-12))
    out.append(_leq("d_n: bounded by one",
                    float(coupling.d_n(x - 1e9 * y, 2, cfg.alpha) - 1.0), 0.0))
    out.append(_leq("tv_bound: zero-moment edge",
                    abs(coupling.tv_bound(1.0, 0.0, 0.5) - 2.0 * (1 - np.exp(-0.5))),
                    1e-15))

    # Girsanov density of the zero shift: u2 = u1 makes h vanish identically
    gcfg = replace(cfg, N=4, dt=0.1, seed=7)
    rec = coupling.coupling_init(gcfg, None, spectral.zero_pair(4))
    rec = coupling.run_coupling(rec, 5)
    out.append(_leq("girsanov: E(0) = 1 exactly",
                    abs(float(np.exp(rec.log_density)) - 1.0), 0.0))

    # Phi(u2, xi + h) = Phi(u1, xi) + S(t) udiff + w for the one scheme
    ccfg = replace(cfg, N=4, dt=0.05, seed=5)
    gap, _ = coupling.shifted_flow_check(ccfg, None, spectral.gaussian_bump_pair(4), 0.5)
    out.append(_leq("coupling: exact shifted-flow identity (rel)", gap, 1e-12))

    return out


def format_table(results: list[CheckResult]) -> str:
    lines = [r.line() for r in results]
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} identity checks passed")
    return "\n".join(lines)
