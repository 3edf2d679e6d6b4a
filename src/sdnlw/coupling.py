"""Asymptotic-coupling machinery: the shift system w, adaptive heat-kernel
mollification, the Girsanov shift h and its L^2 cost, the shifted-flow
identity, the stopping time tau_M, the d_n pseudo-metrics, and the
total-variation bound.

Given a reference flow u1(t) = Phi_t(u1^0, xi) and a second initial datum
u2^0, write udiff = u2^0 - u1^0.  The shift pair w starts from zero and is
integrated (exponential Euler, same clock and same noise as u1) with
second-component forcing

    - B_plain + B_moll,
    B_plain = P_N [ Q_w * (pi1 w + pi1 S(t) udiff) ],
    B_moll  = P_N [ (Q_w conv rho_eps) * (pi1 w + pi1 S(t) udiff conv rho_eps) ],

where Q_w = Q(u1(t), w + S(t) udiff) is the quadratic form from renorm,
rho_eps is the heat kernel at time eps (Fourier multiplier
exp(-eps |2 pi n|^2)), and the adaptive scale is

    eps = C^{-2/alpha} (1 + |w|_{H1} + |udiff|_{X^alpha} + |u1(t)|_{X^alpha}
                          + |Q_w|_{W^{alpha, 2/(1-alpha)}})^{-4/alpha}.

The Girsanov shift is h = 2^{-1/2} <grad>^s B_moll, so that
sqrt(2) <grad>^{-s} h is exactly the mollified bracket; with this shared
bracket the pathwise identity

    Phi_t(u2^0, xi + h) = Phi_t(u1^0, xi) + S(t) udiff + w(t)

holds for the truncated dynamics (the outer P_N mirrors the projected
remainder equation; the continuum display corresponds to N = infinity).
``shifted_flow_check`` verifies the identity by simulating the left side
directly: the shift is injected into the white-noise increments by the
trapezoid rule, whose order-1 gap against the left-endpoint w-integrator
is exactly what the residual measures (it vanishes to round-off whenever
h = 0, e.g. identical data or the cubic switched off).

The stopped process h_M freezes h at its value at the first time any of
|stick|_{W^{alpha,4/alpha} pair}, |wick2|_{L^4}, |wick3|_{L^2} exceeds M;
the discrete Girsanov density

    E(h) = exp( -1/2 sum_k |h_k|_{L2}^2 dt + sum_k <h_k, dxi_k>_{L2} )

uses predictable h_k, so E[E(h)] = 1 holds exactly at any step size.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace

import numpy as np

from .config import SimConfig
from .dynamics import BlowUpError, FlowState, flow_init, full_flow, v_step
from .noise import NoiseIncrement, sample_increment
from .propagator import apply_tables, kick_tables, propagator_tables, xalpha_norm
from .spectral import (
    dealiased_product,
    grad2_table,
    hnorm,
    omega_table,
    pair_norm,
    product_grid_size,
    quad_grid_size,
    resize,
    sobolev_norm,
    to_physical,
    to_spectral,
    truncation_of,
    zero_field,
    zero_pair,
)

# ---------------------------------------------------------------------------
# mollifier and scalar bounds


def mollify(coeffs: np.ndarray, eps) -> np.ndarray:
    """Heat-kernel mollification at time eps: multiplier exp(-eps |2 pi n|^2).

    eps may be a scalar or a batch array; eps = 0 is the identity and the
    composition law mollify(mollify(f, e1), e2) = mollify(f, e1 + e2) is
    exact.
    """
    eps = np.asarray(eps, dtype=float)
    if np.any(eps < 0):
        raise ValueError("mollifier scale must be >= 0")
    N = truncation_of(coeffs)
    return coeffs * np.exp(-eps[..., None, None] * grad2_table(N))


def tv_bound(moment_p: float, e_abs_logx_p: float, L: float) -> float:
    """Upper bound 2(1 - e^{-L} + e^{-L} L^{-p} E|X|^p) on E|e^X - 1|
    for E e^X = 1, clipped at the trivial bound 2."""
    if moment_p < 1:
        raise ValueError("moment order must be >= 1")
    if L <= 0:
        raise ValueError("L must be > 0")
    if e_abs_logx_p < 0:
        raise ValueError("moment value must be >= 0")
    val = 2.0 * (1.0 - np.exp(-L) + np.exp(-L) * L ** (-moment_p) * e_abs_logx_p)
    return float(min(2.0, val))


def d_n(x: np.ndarray, y: np.ndarray, n: int, alpha: float,
        t_star: float = 40.0, dt_grid: float = 0.25, pad: float = 2.0):
    """The bounded pseudo-metric 1 /\\ n |x - y|_{X^alpha}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.minimum(1.0, n * xalpha_norm(x - y, alpha, t_star, dt_grid, pad))


# ---------------------------------------------------------------------------
# stopping-time monitor


class TauMMonitor:
    """Running maxima of the three stick norms and the first-exceedance time.

    Norms tracked: |stick|_{W^{alpha,4/alpha} pair}, |wick2|_{L^4},
    |wick3|_{L^2}, all by padded quadrature on one shared grid (the Wick
    powers are formed pointwise from the samples, which equals the
    dealiased spectral route up to the documented quadrature error of the
    norms themselves).  ``M = inf`` never stops; larger M stops later (the
    trigger is a running max).  ``update`` rebinds its arrays rather than
    writing into them, so a shallow copy is an independent monitor; each
    coupling record owns its own.
    """

    def __init__(self, M: float, alpha: float, gamma: float,
                 pad: float = 2.0, batch: tuple = ()):
        if not M >= 0:
            raise ValueError(f"M must be >= 0 (or inf), got {M}")
        self.M = float(M)
        self.alpha = float(alpha)
        self.gamma = float(gamma)
        self.pad = float(pad)
        self.stopped = np.zeros(batch, dtype=bool)
        self.stop_time = np.full(batch, np.inf)
        self.running_max = np.zeros(batch)

    def norms(self, stick_pair: np.ndarray):
        N = truncation_of(stick_pair)
        M_quad = quad_grid_size(N, self.pad)
        psi = to_physical(stick_pair[..., 0, :, :], M_quad)
        psi2 = psi * psi
        w2 = psi2 - self.gamma
        w3 = (psi2 - 3.0 * self.gamma) * psi
        w2sq = w2 * w2
        n_stick = pair_norm(stick_pair, self.alpha, 4.0 / self.alpha, self.pad)
        n_w2 = np.mean(w2sq * w2sq, axis=(-2, -1)) ** 0.25
        n_w3 = np.sqrt(np.mean(w3 * w3, axis=(-2, -1)))
        return n_stick, n_w2, n_w3

    def update(self, t: float, stick_pair: np.ndarray) -> np.ndarray:
        cur = np.maximum.reduce(self.norms(stick_pair))
        self.running_max = np.maximum(self.running_max, cur)
        newly = (self.running_max > self.M) & ~self.stopped
        self.stop_time = np.where(newly, t, self.stop_time)
        self.stopped = self.stopped | newly
        return self.stopped.copy()


# ---------------------------------------------------------------------------
# coupling record


@dataclass(frozen=True)
class CouplingOptions:
    C: float = 1.0                 # the universal constant in eps (config override)
    pref_exp: float | None = None  # exponent on C, default 2/alpha
    norm_exp: float | None = None  # exponent on the norm sum, default 4/alpha
    eps_every: int = 1             # re-evaluate eps every this many steps
    t_star: float = 40.0           # X^alpha sup grid horizon
    dt_grid: float = 0.25          # X^alpha sup grid step

    def __post_init__(self):
        if not (self.eps_every >= 1 and self.eps_every == int(self.eps_every)):
            raise ValueError(f"eps_every must be an integer >= 1, got {self.eps_every}")
        if not self.t_star >= 0.0:
            raise ValueError(f"t_star must be >= 0, got {self.t_star}")
        if not self.dt_grid > 0.0:
            raise ValueError(f"dt_grid must be > 0, got {self.dt_grid}")

    def exponents(self, alpha: float) -> tuple[float, float]:
        return (self.pref_exp if self.pref_exp is not None else 2.0 / alpha,
                self.norm_exp if self.norm_exp is not None else 4.0 / alpha)


@dataclass(frozen=True)
class CouplingRecord:
    """Joint state of the reference flow, the shift pair w, the accumulated
    Girsanov cost, and the tau_M flags (shared noise, shared clock)."""

    flow: FlowState          # reference flow Phi_t(u1^0, xi)
    diff0: np.ndarray        # u2^0 - u1^0
    lin_diff: np.ndarray     # S(t) (u2^0 - u1^0), evolved per step
    w: np.ndarray
    hcost: np.ndarray        # int_0^t |h|_{L2}^2 dr
    log_density: np.ndarray  # running log E(h)
    diff0_xnorm: np.ndarray  # |u2^0 - u1^0|_{X^alpha}, fixed at t = 0
    eps: np.ndarray          # current mollifier scale
    h_last: np.ndarray       # h used on the most recent step
    h_frozen: np.ndarray     # h(tau_M) where stopped
    opts: CouplingOptions = field(default_factory=CouplingOptions)
    monitor: TauMMonitor | None = None

    @property
    def t(self) -> float:
        return self.flow.t

    @property
    def step(self) -> int:
        return self.flow.step


def coupling_init(cfg: SimConfig, u1_0: np.ndarray | None, u2_0: np.ndarray,
                  opts: CouplingOptions | None = None, seed=None,
                  batch: tuple = (), monitor_M: float | None = None) -> CouplingRecord:
    opts = opts or CouplingOptions()
    flow = flow_init(cfg, u1_0, seed=seed, batch=batch)
    b = flow.batch
    diff0 = resize(u2_0, cfg.N) - flow.u0
    if diff0.shape[:-3] != b:
        diff0 = np.broadcast_to(diff0, b + diff0.shape[-3:]).copy()
    xnorm = xalpha_norm(diff0, cfg.alpha, opts.t_star, opts.dt_grid, cfg.M_pad)
    monitor = None
    if monitor_M is not None:
        monitor = TauMMonitor(monitor_M, cfg.alpha, cfg.gamma, cfg.M_pad, b)
    return CouplingRecord(
        flow=flow, diff0=diff0, lin_diff=diff0.copy(), w=zero_pair(cfg.N, b),
        hcost=np.zeros(b), log_density=np.zeros(b),
        diff0_xnorm=np.asarray(xnorm), eps=np.ones(b),
        h_last=zero_field(cfg.N, b), h_frozen=zero_field(cfg.N, b),
        opts=opts, monitor=monitor)


def _plain_bracket(record: CouplingRecord):
    """(Q, B_plain) at the current time on one shared dealiased grid.

    Q has exact degree 2N; B_plain = P_N [Q (pi1 w + pi1 S(t) udiff)].
    Algebraically identical to composing renorm.quadratic_Q with
    dealiased_product; assembled pointwise on a single grid for speed.
    """
    cfg = record.flow.cfg
    N = cfg.N
    if cfg.linear_only:
        b = record.flow.batch
        return zero_field(2 * N, b), zero_field(N, b)
    m_grid = product_grid_size(3 * N, N)
    p_ph = to_physical(full_flow(record.flow)[..., 0, :, :], m_grid)
    q_ph = to_physical((record.w + record.lin_diff)[..., 0, :, :], m_grid)
    q_form = 3.0 * (p_ph**2 - cfg.gamma) + 3.0 * p_ph * q_ph + q_ph**2
    return to_spectral(q_form, 2 * N), to_spectral(q_form * q_ph, N)


def _moll_bracket(record: CouplingRecord, Q: np.ndarray, eps: np.ndarray):
    """B_moll = P_N [(Q conv rho_eps)(pi1 w + pi1 S(t) udiff conv rho_eps)]."""
    cfg = record.flow.cfg
    N = cfg.N
    if cfg.linear_only:
        return zero_field(N, record.flow.batch)
    qm = record.w[..., 0, :, :] + mollify(record.lin_diff[..., 0, :, :], eps)
    return dealiased_product(mollify(Q, eps), qm, out_N=N)


def epsilon_scale(record: CouplingRecord, Q: np.ndarray | None = None) -> np.ndarray:
    """The adaptive mollification time eps(w)(t); nonincreasing in every
    norm argument and scaling as C^{-2/alpha}."""
    cfg = record.flow.cfg
    alpha = cfg.alpha
    opts = record.opts
    if Q is None:
        Q = _plain_bracket(record)[0]
    pref_exp, norm_exp = opts.exponents(alpha)
    base = (1.0 + hnorm(record.w) + record.diff0_xnorm
            + xalpha_norm(full_flow(record.flow), alpha, opts.t_star,
                          opts.dt_grid, cfg.M_pad)
            + sobolev_norm(Q, alpha, 2.0 / (1.0 - alpha), cfg.M_pad))
    return np.asarray(opts.C ** (-pref_exp) * base ** (-norm_exp))


def _h_from_bracket(b_moll: np.ndarray, s: float) -> np.ndarray:
    N = truncation_of(b_moll)
    return (omega_table(N) ** s) * b_moll / np.sqrt(2.0)


def shift_h(record: CouplingRecord) -> np.ndarray:
    """The Girsanov shift h = 2^{-1/2} <grad>^s B_moll at the current time
    (frozen at its tau_M value on stopped paths)."""
    cfg = record.flow.cfg
    Q, _ = _plain_bracket(record)
    b_moll = _moll_bracket(record, Q, record.eps)
    h = _h_from_bracket(b_moll, cfg.s)
    if record.monitor is not None:
        stopped = record.monitor.stopped
        h = np.where(stopped[..., None, None], record.h_frozen, h)
    return h


def coupling_step(record: CouplingRecord,
                  incr: NoiseIncrement | None = None) -> CouplingRecord:
    """One shared-clock step: advance u1 (same noise), w, the h cost and
    the discrete Girsanov density; h is computed before the increment is
    revealed (predictable)."""
    flow = record.flow
    cfg = flow.cfg
    N, delta = cfg.N, cfg.dt

    monitor = record.monitor
    if monitor is not None:
        prev_stopped = monitor.stopped
        monitor = copy.copy(monitor)  # the incoming record keeps its own
        stopped = monitor.update(flow.t, flow.stick.value)
    Q, b_plain = _plain_bracket(record)
    if record.step % record.opts.eps_every == 0:
        eps = epsilon_scale(record, Q)
    else:
        eps = record.eps
    b_moll = _moll_bracket(record, Q, eps)
    h_live = _h_from_bracket(b_moll, cfg.s)

    h_frozen = record.h_frozen
    if monitor is not None:
        newly = stopped & ~prev_stopped
        if np.any(newly):
            h_frozen = np.where(newly[..., None, None], h_live, h_frozen)
        h_used = np.where(stopped[..., None, None], h_frozen, h_live)
    else:
        h_used = h_live

    if incr is None:
        incr = sample_increment(N, delta, flow.stick.seed, flow.stick.step)

    hsq = np.sum(np.abs(h_used) ** 2, axis=(-2, -1))
    hcost = record.hcost + delta * hsq
    pairing = np.sum(h_used * np.conj(incr.coeffs), axis=(-2, -1)).real
    log_density = record.log_density - 0.5 * delta * hsq + pairing

    tab = propagator_tables(N, delta)
    w_new = apply_tables(tab, record.w) \
        + delta * kick_tables(tab, b_moll - b_plain)
    wn = hnorm(w_new)
    if np.any(~np.isfinite(wn) | (wn > cfg.blowup_threshold)):
        raise BlowUpError(flow.t + delta, float(np.max(wn)))
    flow_new = v_step(flow, delta, incr)
    lin_diff_new = apply_tables(tab, record.lin_diff)

    return replace(record, flow=flow_new, lin_diff=lin_diff_new, w=w_new,
                   hcost=hcost, log_density=log_density, eps=np.asarray(eps),
                   h_last=h_used, h_frozen=h_frozen, monitor=monitor)


def run_coupling(record: CouplingRecord, n_steps: int,
                 incr_table: list | None = None,
                 callback=None) -> CouplingRecord:
    for k in range(n_steps):
        incr = incr_table[k] if incr_table is not None else None
        record = coupling_step(record, incr)
        if callback is not None:
            callback(record)
    return record


def coupling_distance(record: CouplingRecord, n: int = 1):
    """d_n between the coupled pair: 1 /\\ n |S(t) udiff + w|_{X^alpha}."""
    cfg = record.flow.cfg
    val = xalpha_norm(record.lin_diff + record.w, cfg.alpha,
                      record.opts.t_star, record.opts.dt_grid, cfg.M_pad)
    return np.minimum(1.0, n * val)


# ---------------------------------------------------------------------------
# Girsanov density (standalone) and the shifted-flow identity


def girsanov_log_density(h_fields, increments, delta: float):
    """log E = sum_k [ -1/2 |h_k|^2 delta + <h_k, dxi_k> ] for explicit paths."""
    total = 0.0
    for h, incr in zip(h_fields, increments):
        coeffs = incr.coeffs if isinstance(incr, NoiseIncrement) else incr
        total = total - 0.5 * delta * np.sum(np.abs(h) ** 2, axis=(-2, -1)) \
            + np.sum(h * np.conj(coeffs), axis=(-2, -1)).real
    return total


def girsanov_density(h_fields, increments, delta: float):
    return np.exp(girsanov_log_density(h_fields, increments, delta))


def shifted_flow_check(cfg: SimConfig, u1_0: np.ndarray | None, u2_0: np.ndarray,
                       T: float, opts: CouplingOptions | None = None,
                       seed=None, sample_every: int = 1,
                       incr_table: list | None = None) -> dict:
    """Residual series |Phi_t(u2^0, xi + h) - [Phi_t(u1^0, xi) + S(t) udiff + w]|_H1.

    Pass 1 builds the coupling record (recording the h path); pass 2 drives
    the plain simulator from u2^0 with the shift injected into the noise
    increments by the trapezoid rule.  The residual converges to zero at
    the integrator's order and is round-off whenever h vanishes.  An
    explicit ``incr_table`` fixes the white-noise path (step-size studies
    coarsen one fine path so all runs see the same realization).
    """
    seed = cfg.seed if seed is None else seed
    delta = cfg.dt
    n = round(T / delta)
    if abs(n * delta - T) > 1e-12:
        raise ValueError("T must be a multiple of cfg.dt")
    if incr_table is None:
        incr_table = [sample_increment(cfg.N, delta, seed, k) for k in range(n)]
    rec = coupling_init(cfg, u1_0, u2_0, opts, seed=seed)
    h_series = [shift_h(rec)]
    rhs = []
    for k in range(n):
        rec = coupling_step(rec, incr_table[k])
        h_series.append(shift_h(rec))
        rhs.append(full_flow(rec.flow) + rec.lin_diff + rec.w)

    direct = flow_init(cfg, u2_0, seed=seed)
    times, residuals, rel = [], [], []
    for k in range(n):
        shift = 0.5 * delta * (h_series[k] + h_series[k + 1])
        direct = v_step(direct, delta,
                        NoiseIncrement(incr_table[k].coeffs + shift, delta))
        if (k + 1) % sample_every == 0 or k == n - 1:
            r = float(np.max(hnorm(full_flow(direct) - rhs[k])))
            scale = float(np.max(hnorm(rhs[k])))
            times.append((k + 1) * delta)
            residuals.append(r)
            rel.append(r / max(scale, 1e-30))
    return {"times": np.array(times), "residual": np.array(residuals),
            "rel_residual": np.array(rel), "record": rec}
