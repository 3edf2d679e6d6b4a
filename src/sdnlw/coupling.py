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
directly, in lockstep with the coupling: step k adds dt h_k, the shift
coupling step k used, to that step's white-noise increment.  Then
sqrt(2) <grad>^{-s} dt h_k is the step's mollified bracket, so under the
Euler integrator the identity holds for the discrete schemes themselves
and the gap is round-off.  w is always integrated by Euler, so under the
midpoint integrator the gap is the O(dt) difference of the two schemes.

The stopped process h_M freezes h at its value at the first time any of
|stick|_{W^{alpha,4/alpha} pair}, |wick2|_{L^4}, |wick3|_{L^2} exceeds M;
the discrete Girsanov density

    E(h) = exp( -1/2 sum_k |h_k|_{L2}^2 dt + sum_k <h_k, dxi_k>_{L2} )

uses predictable h_k, so E[E(h)] = 1 holds exactly at any step size.

A ``CouplingRecord`` carries the reference ``FlowState`` and reads its clock
from it; ``coupling_step`` draws the step's increment from the flow's
lineage, checks w with the flow's blow-up check and advances u1 with
``v_step``.  Records and their tau_M monitor are frozen: a step returns a
new record with a new monitor, so continuing twice from one record gives
the same result.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .config import SimConfig, steps
from .dynamics import FlowState, _check_blowup, _check_fits_paths, cube_grid_size, \
    flow_init, full_flow, next_increment, v_step
from .noise import NoiseIncrement, StickState
from .propagator import _half_spectrum_weights, apply_tables, kick_tables, \
    mode_sum_bound, propagator_tables, xalpha_norm
from .spectral import (
    _quadrature_blocks,
    bracket_table,
    dealiased_product,
    grad2_table,
    hnorm,
    pair_norm,
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


def d_n(x: np.ndarray, y: np.ndarray, n: int, alpha: float, pad: float = 2.0):
    """The bounded pseudo-metric 1 /\\ n |x - y|_{X^alpha}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return np.minimum(1.0, n * xalpha_norm(x - y, alpha, pad=pad))


# ---------------------------------------------------------------------------
# stopping-time monitor


def _wick_norms(psi: np.ndarray, gamma: float):
    """|wick2|_{L^4} and |wick3|_{L^2} by quadrature over the samples psi,
    with wick2 = psi^2 - gamma and wick3 = (psi^2 - 3 gamma) psi, per row of
    a (rows, M, M) block of samples."""
    psi2 = psi * psi
    w2 = psi2 - gamma
    w3 = (psi2 - 3.0 * gamma) * psi
    w2sq = w2 * w2
    return (np.mean(w2sq * w2sq, axis=(-2, -1)) ** 0.25,
            np.sqrt(np.mean(w3 * w3, axis=(-2, -1))))


@dataclass(frozen=True, eq=False)
class TauMMonitor:
    """Running maxima of the three stick norms and the first-exceedance time.

    Norms tracked: |stick|_{W^{alpha,4/alpha} pair}, |wick2|_{L^4},
    |wick3|_{L^2}, all by padded quadrature on one shared grid (the Wick
    powers are formed pointwise from the samples psi of the stick's first
    component, which equals the dealiased spectral route up to the
    documented quadrature error of the norms themselves).  ``M = inf``
    never stops; larger M stops later (the trigger is a running max).  The
    monitor is frozen: ``update`` returns a new monitor and leaves this
    one's arrays untouched, so records that share a monitor cannot disturb
    each other.

    ``update`` evaluates a norm only on the paths whose running max it
    could raise.  Each norm has a transform-free upper bound:

      - the stick pair: ``propagator.mode_sum_bound`` at p = 4/alpha, the
        half-spectrum mode sum proven there (item 1 of its module
        docstring, at t = 0);
      - the Wick powers: with S = sum_{n2=0} |uhat_n| + 2 sum_{n2>0} |uhat_n|
        (the same half-spectrum weights), every c2r sample obeys
        |psi(x)| <= S, by the same argument.  Pointwise
        |psi^2 - gamma| <= S^2 + |gamma| and
        |(psi^2 - 3 gamma) psi| <= (S^2 + 3 |gamma|) S, and a quadrature
        L^p norm, a power mean of the samples, is at most their maximum.

    A norm is skipped on a path when its bound, times 1 + 1e-9 for
    round-off, is at most the path's running max and at most
    (DBL_MAX / (4 Mq^2))^{1/p}, with Mq^2 the quadrature samples and p the
    norm's exponent.  The cap keeps the sum of the p-th powers finite (the
    factor 4 also covers the pair's a^p + b^p), so a skipped norm would
    have evaluated to a finite number no larger than its bound; without
    it, a norm whose p-th powers overflow to inf could be skipped under a
    finite running max set by another norm.  A NaN bound fails both
    comparisons and an inf bound the cap, so their rows are always
    evaluated.  The stick pair is evaluated on its own rows,
    psi and both Wick powers on theirs, gathered by a boolean mask as
    ``weighted_sup_norm`` gathers its grid times, and sampled in path
    blocks of ``spectral.CHUNK_BYTES``; a row's norms do not depend on the
    batch or the block it is evaluated in.  A skipped norm enters the max
    as 0, and the max is exact, so ``running_max``, ``stopped`` and
    ``stop_time`` are bit-identical to evaluating every norm on every path.
    """

    M: float
    alpha: float
    gamma: float
    pad: float = 2.0
    batch: InitVar[tuple] = ()
    stopped: np.ndarray | None = None
    stop_time: np.ndarray | None = None
    running_max: np.ndarray | None = None

    def __post_init__(self, batch):
        if not self.M >= 0:
            raise ValueError(f"M must be >= 0 (or inf), got {self.M}")
        if self.stopped is None:  # a fresh monitor: nothing seen yet
            object.__setattr__(self, "stopped", np.zeros(batch, dtype=bool))
            object.__setattr__(self, "stop_time", np.full(batch, np.inf))
            object.__setattr__(self, "running_max", np.zeros(batch))

    def _skips(self, bound: np.ndarray, p: float, M_quad: int) -> np.ndarray:
        """Where a norm of L^p quadrature type with this upper bound can
        neither raise the running max nor overflow (class docstring)."""
        cap = (np.finfo(float).max / (4.0 * M_quad * M_quad)) ** (1.0 / p)
        bound = (1.0 + 1e-9) * bound
        return (bound <= self.running_max) & (bound <= cap)

    def update(self, t: float, stick_pair: np.ndarray) -> "TauMMonitor":
        batch = self.running_max.shape
        if stick_pair.shape[:-3] != batch:
            raise ValueError(f"stick batch {stick_pair.shape[:-3]} differs from "
                             f"the monitor's batch {batch}")
        N = truncation_of(stick_pair)
        M_quad = quad_grid_size(N, self.pad)
        p = 4.0 / self.alpha
        S = np.abs(stick_pair[..., 0, :, :]).sum(-2) @ _half_spectrum_weights(N)
        S2, g = S * S, abs(self.gamma)
        need_pair = ~self._skips(mode_sum_bound(stick_pair, self.alpha, p), p, M_quad)
        need_psi = ~(self._skips(S2 + g, 4.0, M_quad)
                     & self._skips((S2 + 3.0 * g) * S, 2.0, M_quad))
        # a skipped norm enters the max as 0
        n_stick, n_w2, n_w3 = (np.zeros(batch) for _ in range(3))
        if need_pair.any():
            n_stick[need_pair] = pair_norm(stick_pair[need_pair], self.alpha, p,
                                           self.pad)
        if need_psi.any():
            n_w2[need_psi], n_w3[need_psi] = _quadrature_blocks(
                stick_pair[..., 0, :, :][need_psi], M_quad,
                lambda psi: _wick_norms(psi, self.gamma))
        running_max = np.maximum(self.running_max,
                                 np.maximum.reduce((n_stick, n_w2, n_w3)))
        newly = (running_max > self.M) & ~self.stopped
        return replace(self, stopped=self.stopped | newly,
                       stop_time=np.where(newly, t, self.stop_time),
                       running_max=running_max)


# ---------------------------------------------------------------------------
# coupling record


@dataclass(frozen=True)
class CouplingOptions:
    C: float = 1.0                 # the universal constant in eps (config override)
    pref_exp: float | None = None  # exponent on C, default 2/alpha
    norm_exp: float | None = None  # exponent on the norm sum, default 4/alpha
    eps_every: int = 1             # re-evaluate eps every this many steps
    dt_grid: float = 0.25          # X^alpha sup grid step

    def __post_init__(self):
        if not (self.eps_every >= 1 and self.eps_every == int(self.eps_every)):
            raise ValueError(f"eps_every must be an integer >= 1, got {self.eps_every}")
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
    lin_diff: np.ndarray     # S(t) (u2^0 - u1^0), evolved per step; data batch shape
    w: np.ndarray
    hcost: np.ndarray        # int_0^t |h|_{L2}^2 dr
    log_density: np.ndarray  # running log E(h)
    diff0_xnorm: np.ndarray  # |u2^0 - u1^0|_{X^alpha}, fixed at t = 0
    eps: np.ndarray          # current mollifier scale
    h_last: np.ndarray       # h used on the most recent step; h(tau_M) where stopped
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
    """A fresh record.  ``lin_diff`` carries no noise: like the flow's
    ``u0`` and ``lin`` it keeps the batch shape of the data and broadcasts
    against the paths, and X^alpha of the difference, which does not
    depend on the batch, is evaluated once at that shape."""
    opts = opts or CouplingOptions()
    flow = flow_init(cfg, u1_0, seed=seed, batch=batch)
    b = flow.batch
    diff0 = resize(u2_0, cfg.N) - flow.u0  # a new array, not the caller's
    _check_fits_paths("u2_0", diff0, b)
    xnorm = xalpha_norm(diff0, cfg.alpha, dt_grid=opts.dt_grid, pad=cfg.M_pad)
    monitor = None
    if monitor_M is not None:
        monitor = TauMMonitor(monitor_M, cfg.alpha, cfg.gamma, cfg.M_pad, b)
    return CouplingRecord(
        flow=flow, lin_diff=diff0,
        w=zero_pair(cfg.N, b), hcost=np.zeros(b), log_density=np.zeros(b),
        diff0_xnorm=np.broadcast_to(xnorm, b).copy(), eps=np.ones(b),
        h_last=zero_field(cfg.N, b), opts=opts, monitor=monitor)


def _flow_samples(record: CouplingRecord) -> np.ndarray:
    """pi1 of the reference flow on the bracket grid cube_grid_size(N): the
    samples ``nonlinearity_field`` cubes for the flow's step."""
    N = record.flow.cfg.N
    return to_physical(full_flow(record.flow)[..., 0, :, :], cube_grid_size(N))


def _plain_bracket(record: CouplingRecord, p_ph: np.ndarray | None = None):
    """(Q, B_plain) at the current time on one shared dealiased grid.

    Q has exact degree 2N; B_plain = P_N [Q (pi1 w + pi1 S(t) udiff)].
    Algebraically identical to composing renorm.quadratic_Q with
    dealiased_product; assembled pointwise on a single grid for speed.
    ``p_ph`` are the ``_flow_samples`` of the record, when already taken.
    """
    cfg = record.flow.cfg
    N = cfg.N
    if cfg.linear_only:
        b = record.flow.batch
        return zero_field(2 * N, b), zero_field(N, b)
    if p_ph is None:
        p_ph = _flow_samples(record)
    q_ph = to_physical((record.w + record.lin_diff)[..., 0, :, :], cube_grid_size(N))
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
            + xalpha_norm(full_flow(record.flow), alpha, dt_grid=opts.dt_grid,
                          pad=cfg.M_pad)
            + sobolev_norm(Q, alpha, 2.0 / (1.0 - alpha), cfg.M_pad))
    return np.asarray(opts.C ** (-pref_exp) * base ** (-norm_exp))


def _h_from_bracket(b_moll: np.ndarray, s: float) -> np.ndarray:
    N = truncation_of(b_moll)
    return bracket_table(N, s) * b_moll / np.sqrt(2.0)


def coupling_step(record: CouplingRecord, incr: NoiseIncrement | None = None, *,
                  stick: StickState | None = None,
                  half_stick: StickState | None = None) -> CouplingRecord:
    """One shared-clock step: advance u1 (same noise), w, the h cost and
    the discrete Girsanov density; h is computed before the increment is
    revealed (predictable).  ``incr``, ``stick`` and ``half_stick`` are
    handed to ``v_step``."""
    flow = record.flow
    cfg = flow.cfg
    N, delta = cfg.N, cfg.dt

    monitor = record.monitor
    if monitor is not None:
        monitor = monitor.update(flow.t, flow.stick.value)
    # the flow's start-of-step samples serve the bracket and the flow's cube
    p_ph = None if cfg.linear_only else _flow_samples(record)
    Q, b_plain = _plain_bracket(record, p_ph)
    if record.step % record.opts.eps_every == 0:
        eps = epsilon_scale(record, Q)
    else:
        eps = record.eps
    b_moll = _moll_bracket(record, Q, eps)
    h_live = _h_from_bracket(b_moll, cfg.s)

    # a path stopped before this step keeps the h it used at tau_M
    h_used = h_live if monitor is None else \
        np.where(record.monitor.stopped[..., None, None], record.h_last, h_live)

    if incr is None:
        incr = next_increment(flow)

    hsq = np.sum(np.abs(h_used) ** 2, axis=(-2, -1))
    hcost = record.hcost + delta * hsq
    pairing = np.sum(h_used * np.conj(incr.coeffs), axis=(-2, -1)).real
    log_density = record.log_density - 0.5 * delta * hsq + pairing

    tab = propagator_tables(N, delta)
    w_new = apply_tables(tab, record.w) \
        + delta * kick_tables(tab, b_moll - b_plain)
    _check_blowup(w_new, cfg, flow.t + delta, "w")
    flow_new = v_step(flow, incr, x0_phys=p_ph, stick=stick, half_stick=half_stick)
    lin_diff_new = apply_tables(tab, record.lin_diff)

    return replace(record, flow=flow_new, lin_diff=lin_diff_new, w=w_new,
                   hcost=hcost, log_density=log_density, eps=np.asarray(eps),
                   h_last=h_used, monitor=monitor)


def run_coupling(record: CouplingRecord, n_steps: int) -> CouplingRecord:
    for _ in range(n_steps):
        record = coupling_step(record)
    return record


def coupling_distance(record: CouplingRecord, n: int = 1):
    """d_n between the coupled pair: 1 /\\ n |S(t) udiff + w|_{X^alpha}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    cfg = record.flow.cfg
    val = xalpha_norm(record.lin_diff + record.w, cfg.alpha,
                      dt_grid=record.opts.dt_grid, pad=cfg.M_pad)
    return np.minimum(1.0, n * val)


# ---------------------------------------------------------------------------
# the shifted-flow identity


def shifted_flow_check(cfg: SimConfig, u1_0: np.ndarray | None, u2_0: np.ndarray,
                       T: float, opts: CouplingOptions | None = None,
                       seed=None) -> tuple[float, CouplingRecord]:
    """Largest relative H^1 gap |Phi_t(u2^0, xi + h) - [Phi_t(u1^0, xi) + S(t) udiff + w]|
    over the steps to T, and the coupling record at T.

    One lockstep pass: each step's increment is drawn once, drives the
    coupling step, and then, shifted by dt times the h that step used,
    drives the plain simulator from u2^0.  The gap is round-off under the
    Euler integrator and O(dt) under midpoint.
    """
    seed = cfg.seed if seed is None else seed
    rec = coupling_init(cfg, u1_0, u2_0, opts, seed=seed)
    direct = flow_init(cfg, u2_0, seed=seed)
    worst = 0.0
    for _ in range(steps(T, cfg.dt, "T")):
        incr = next_increment(rec.flow)
        rec = coupling_step(rec, incr)
        direct = v_step(direct, NoiseIncrement(incr.coeffs + cfg.dt * rec.h_last, cfg.dt))
        rhs = full_flow(rec.flow) + rec.lin_diff + rec.w
        worst = max(worst, float(np.max(hnorm(full_flow(direct) - rhs) / hnorm(rhs))))
    return worst, rec
