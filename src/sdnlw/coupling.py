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

where Q_w = Q(u1(t), w + S(t) udiff) is the quadratic form

    Q(u, v) = 3 ((pi1 u)^2 - gamma) + 3 pi1 u pi1 v + (pi1 v)^2,

so that N_gamma(p + q) - N_gamma(p) = Q q for the cubic
N_gamma(x) = x^3 - 3 gamma x, with p = pi1 u and q = pi1 v;
rho_eps is the heat kernel at time eps (Fourier multiplier
exp(-eps |2 pi n|^2)), and the adaptive scale is

    eps = (1 + |w|_{H1} + |udiff|_{X^alpha} + |u1(t)|_{X^alpha}
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
sqrt(2) <grad>^{-s} dt h_k is the step's mollified bracket.  The flows
and w are stepped by the one exponential Euler scheme, so the identity
holds for the discrete schemes themselves and the gap is round-off.

The stopped process h_M freezes h at its value at the first time any of
|stick|_{W^{alpha,4/alpha} pair}, |wick2|_{L^4}, |wick3|_{L^2} exceeds M;
the discrete Girsanov density

    E(h) = exp( -1/2 sum_k |h_k|_{L2}^2 dt + sum_k <h_k, dxi_k>_{L2} )

uses predictable h_k, so E[E(h)] = 1 holds exactly at any step size.

A ``CouplingRecord`` carries the reference ``FlowState`` and reads its clock
from it; ``coupling_step`` takes its ``StepNoise`` as ``v_step`` does
(``dynamics._noise_for``), checks w with the flow's blow-up check and
advances u1 with ``v_step`` on the same noise; a large batch is stepped in
row blocks on threads, bit for bit as whole (``coupling_step``).  The
blocks are cut and joined by walking the one place that records the path
axis, the states' field declarations (``noise.map_rows``).  Records, their
monitor and their arrays are frozen: a step returns a new record with a
new monitor, so continuing twice from one record gives the same result.
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import InitVar, dataclass, field, replace

import numpy as np

from .config import SimConfig, steps
from .dynamics import BlowUpError, FlowState, StepNoise, _check_blowup, _check_fits_paths, \
    _noise_for, cube_grid_size, flow_init, full_flow, step_noise, v_step
from .noise import PER_DATUM, PER_PATH, NoiseIncrement, OwnArrays, map_rows
from .propagator import _half_spectrum_weights, apply_tables, kick_tables, \
    mode_sum_bound, propagator_tables, xalpha_norm
from .spectral import (
    _quadrature_blocks,
    bracket_table,
    dealiased_product,
    grad2_table,
    hnorm,
    mean_square,
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
    exact.  eps must be finite and >= 0.
    """
    eps = np.asarray(eps, dtype=float)
    if not np.all((0 <= eps) & (eps < np.inf)):  # NaN fails too
        raise ValueError(f"mollifier scale must be finite and >= 0, got {eps}")
    return _mollify(coeffs, eps)


def _mollify(coeffs: np.ndarray, eps: np.ndarray) -> np.ndarray:
    return coeffs * np.exp(-eps[..., None, None] * grad2_table(truncation_of(coeffs)))


def tv_bound(moment_p: float, e_abs_logx_p: float, L: float) -> float:
    """Upper bound 2(1 - e^{-L} + e^{-L} L^{-p} E|X|^p) on E|e^X - 1|
    for E e^X = 1, clipped at the trivial bound 2."""
    # written so that NaN fails each check
    if not moment_p >= 1:
        raise ValueError("moment order must be >= 1")
    if not L > 0:
        raise ValueError("L must be > 0")
    if not e_abs_logx_p >= 0:
        raise ValueError("moment value must be >= 0")
    val = 2.0 * (1.0 - np.exp(-L) + np.exp(-L) * L ** (-moment_p) * e_abs_logx_p)
    return float(min(2.0, val))


def d_n(diff: np.ndarray, n: int, alpha: float, *, dt_grid: float = 0.25):
    """The bounded pseudo-metric 1 /\\ n |diff|_{X^alpha}: d_n(x, y) at
    diff = x - y, on the X^alpha time grid of step ``dt_grid``."""
    if isinstance(n, bool) or not (1 <= n < np.inf and n == int(n)):
        raise ValueError(f"n must be an integer >= 1, got {n}")
    return np.minimum(1.0, n * xalpha_norm(diff, alpha, dt_grid=dt_grid))


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
class TauMMonitor(OwnArrays):
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
    batch: InitVar[tuple] = ()
    stopped: np.ndarray | None = field(default=None, metadata=PER_PATH)
    stop_time: np.ndarray | None = field(default=None, metadata=PER_PATH)
    running_max: np.ndarray | None = field(default=None, metadata=PER_PATH)

    def __post_init__(self, batch):
        if not self.M >= 0:
            raise ValueError(f"M must be >= 0 (or inf), got {self.M}")
        if self.stopped is None:  # a fresh monitor: nothing seen yet
            object.__setattr__(self, "stopped", np.zeros(batch, dtype=bool))
            object.__setattr__(self, "stop_time", np.full(batch, np.inf))
            object.__setattr__(self, "running_max", np.zeros(batch))
        super().__post_init__()

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
        M_quad = quad_grid_size(N)
        p = 4.0 / self.alpha
        S = np.abs(stick_pair[..., 0, :, :]).sum(-2) @ _half_spectrum_weights(N)
        S2, g = S * S, abs(self.gamma)
        need_pair = ~self._skips(mode_sum_bound(stick_pair, self.alpha, p), p, M_quad)
        need_psi = ~(self._skips(S2 + g, 4.0, M_quad)
                     & self._skips((S2 + 3.0 * g) * S, 2.0, M_quad))
        # a skipped norm enters the max as 0
        n_stick, n_w2, n_w3 = (np.zeros(batch) for _ in range(3))
        if need_pair.any():
            n_stick[need_pair] = pair_norm(stick_pair[need_pair], self.alpha, p)
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
    norm_exp: float | None = None  # exponent on the norm sum, default 4/alpha
    eps_every: int = 1             # re-evaluate eps every this many steps
    dt_grid: float = 0.25          # X^alpha sup grid step

    def __post_init__(self):
        if self.norm_exp is not None and (isinstance(self.norm_exp, bool)
                                          or not 0.0 < self.norm_exp < np.inf):
            raise ValueError(f"norm_exp must be finite and > 0, got {self.norm_exp}")
        every = self.eps_every  # NaN and inf fail before int() sees them
        if isinstance(every, bool) or not (1 <= every < np.inf and every == int(every)):
            raise ValueError(f"eps_every must be an integer >= 1, got {every}")
        if isinstance(self.dt_grid, bool) or not 0.0 < self.dt_grid < np.inf:
            raise ValueError(f"dt_grid must be finite and > 0, got {self.dt_grid}")


@dataclass(frozen=True)
class CouplingRecord(OwnArrays):
    """Joint state of the reference flow, the shift pair w, the accumulated
    Girsanov cost, and the tau_M flags (shared noise, shared clock)."""

    flow: FlowState                                     # reference flow Phi_t(u1^0, xi)
    lin_diff: np.ndarray = field(metadata=PER_DATUM)    # S(t) (u2^0 - u1^0), per step
    w: np.ndarray = field(metadata=PER_PATH)
    hcost: np.ndarray = field(metadata=PER_PATH)        # int_0^t |h|_{L2}^2 dr
    log_density: np.ndarray = field(metadata=PER_PATH)  # running log E(h)
    diff0_xnorm: np.ndarray = field(metadata=PER_PATH)  # |u2^0 - u1^0|_{X^alpha} at t = 0
    eps: np.ndarray = field(metadata=PER_PATH)          # current mollifier scale
    h_last: np.ndarray = field(metadata=PER_PATH)       # last step's h; h(tau_M) if stopped
    opts: CouplingOptions = field(default_factory=CouplingOptions)
    monitor: TauMMonitor | None = None

    @property
    def t(self) -> float:
        return self.flow.t

    @property
    def step(self) -> int:
        return self.flow.step

    @property
    def batch(self) -> tuple:
        return self.flow.batch


def coupling_init(cfg: SimConfig, u1_0: np.ndarray | None, u2_0: np.ndarray,
                  opts: CouplingOptions | None = None, seed=None,
                  batch: tuple = (), monitor_M: float | None = None) -> CouplingRecord:
    """A fresh record.  ``lin_diff`` is per datum like the flow's ``lin``,
    and X^alpha of the difference, which does not depend on the batch, is
    evaluated once at the data's batch shape."""
    opts = opts or CouplingOptions()
    flow = flow_init(cfg, u1_0, seed=seed, batch=batch)
    b = flow.batch
    diff0 = resize(u2_0, cfg.N) - flow.lin  # a new array, not the caller's
    _check_fits_paths("u2_0", diff0, b)
    xnorm = xalpha_norm(diff0, cfg.alpha, dt_grid=opts.dt_grid)
    monitor = None
    if monitor_M is not None:
        monitor = TauMMonitor(monitor_M, cfg.alpha, cfg.gamma, b)
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


def _plain_bracket(record: CouplingRecord, p_ph: np.ndarray):
    """(Q, B_plain) at the current time on one shared dealiased grid.

    Q has exact degree 2N; B_plain = P_N [Q (pi1 w + pi1 S(t) udiff)], which
    is P_N [N_gamma(p + q) - N_gamma(p)] with p = pi1 u1(t) and
    q = pi1 (w + S(t) udiff) (module docstring).  Both are assembled
    pointwise on the cube grid, which dealiases Q q to P_N.
    ``p_ph`` are the ``_flow_samples`` of the record.
    """
    cfg = record.flow.cfg
    N = cfg.N
    q_ph = to_physical((record.w + record.lin_diff)[..., 0, :, :], cube_grid_size(N))
    q_form = 3.0 * (p_ph**2 - cfg.gamma) + 3.0 * p_ph * q_ph + q_ph**2
    return to_spectral(q_form, 2 * N), to_spectral(q_form * q_ph, N)


def _moll_bracket(record: CouplingRecord, Q: np.ndarray, eps: np.ndarray):
    """B_moll = P_N [(Q conv rho_eps)(pi1 w + pi1 S(t) udiff conv rho_eps)]."""
    N = record.flow.cfg.N
    # unchecked: a non-finite path's NaN eps ends in the blow-up check on w
    qm = record.w[..., 0, :, :] + _mollify(record.lin_diff[..., 0, :, :], eps)
    return dealiased_product(_mollify(Q, eps), qm, out_N=N)


def epsilon_scale(record: CouplingRecord, Q: np.ndarray) -> np.ndarray:
    """The adaptive mollification time eps(w)(t) for the record's quadratic
    form Q (``_plain_bracket``); nonincreasing in every norm argument."""
    alpha = record.flow.cfg.alpha
    opts = record.opts
    norm_exp = opts.norm_exp if opts.norm_exp is not None else 4.0 / alpha
    base = (1.0 + hnorm(record.w) + record.diff0_xnorm
            + xalpha_norm(full_flow(record.flow), alpha, dt_grid=opts.dt_grid)
            + sobolev_norm(Q, alpha, 2.0 / (1.0 - alpha)))
    return np.asarray(np.power(base, -norm_exp))


def _h_from_bracket(b_moll: np.ndarray, s: float) -> np.ndarray:
    N = truncation_of(b_moll)
    return bracket_table(N, s) * b_moll / np.sqrt(2.0)


def _step_rows(record: CouplingRecord, noise: StepNoise) -> CouplingRecord:
    """The step of ``coupling_step`` on all of the record's rows at once."""
    flow = record.flow
    cfg = flow.cfg
    N, delta = cfg.N, cfg.dt

    monitor = record.monitor
    if monitor is not None:
        monitor = monitor.update(flow.t, flow.stick.value)
    # the flow's start-of-step samples serve the bracket and the flow's cube
    p_ph = _flow_samples(record)
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

    hsq = mean_square(h_used)
    hcost = record.hcost + delta * hsq
    pairing = np.sum(h_used * np.conj(noise.incr.coeffs), axis=(-2, -1)).real
    log_density = record.log_density - 0.5 * delta * hsq + pairing

    tab = propagator_tables(N, delta)
    w_new = apply_tables(tab, record.w) \
        + delta * kick_tables(tab, b_moll - b_plain)
    _check_blowup(w_new, cfg, noise.stick.step, "w")
    flow_new = v_step(flow, noise, x0_phys=p_ph)
    lin_diff_new = apply_tables(tab, record.lin_diff)

    return replace(record, flow=flow_new, lin_diff=lin_diff_new, w=w_new,
                   hcost=hcost, log_density=log_density, eps=np.asarray(eps),
                   h_last=h_used, monitor=monitor)


# A step whose 1-d batch holds at least two blocks of this many cube-grid
# samples (rows x cube_grid_size(N)^2) runs in row blocks on threads.  The
# whole step's time over the split step's, on 2 cores at criterion 07's
# settings (eps every 10 steps, monitor M = 30), puts the break-even near
# two blocks of 50,000 to 65,000 samples:
#   N = 4, 324 samples a row: 200 rows in 2 blocks 0.93, 300 rows 0.93,
#          400 rows 1.09; 1000 rows in 4 blocks 1.42
#   N = 8, 1296 samples a row: 50 rows in 2 blocks 0.75, 100 rows 1.13
_MIN_BLOCK_SAMPLES = 64_000


def _thread_count() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _row_blocks(record: CouplingRecord) -> list:
    """Contiguous row slices of about two blocks per thread, each of at
    least _MIN_BLOCK_SAMPLES; [] when the step runs whole."""
    if len(record.batch) != 1:
        return []
    rows = record.batch[0]
    n = rows * cube_grid_size(record.flow.cfg.N) ** 2 // _MIN_BLOCK_SAMPLES
    if n < 2:
        return []
    threads = _thread_count()
    if threads < 2:
        return []
    n = min(2 * threads, n)
    edges = [rows * i // n for i in range(n + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _rows_of(record: CouplingRecord, noise: StepNoise, sl: slice) -> tuple:
    """The record and noise of the rows ``sl``, one stick for both."""
    memo = {}
    return tuple(map_rows(lambda arr: arr[sl], record.batch, state, memo=memo)
                 for state in (record, noise))


def _joined(record: CouplingRecord, noise: StepNoise, parts: list) -> CouplingRecord:
    """The stepped record from its stepped row blocks, in row order, on the
    caller's ``noise.stick``."""
    return map_rows(lambda _, *rows: np.concatenate(rows), record.batch, record,
                    *parts, memo={id(noise.before): noise.stick})


def coupling_step(record: CouplingRecord, noise: StepNoise | None = None) -> CouplingRecord:
    """One shared-clock step: advance u1 (same noise), w, the h cost and
    the discrete Girsanov density; h is computed before the increment is
    revealed (predictable).  ``noise`` is handed to ``v_step``; noise built
    from another stick than the flow's is refused before any work.

    A large 1-d batch (``_row_blocks``) is stepped in contiguous row blocks
    on a pool of threads, one per CPU this process may use.  The noise is
    drawn here, before the split, and every row's numbers are computed as
    in the whole step, so the result equals it bit for bit.  Each block
    runs in a copy of the caller's context (its ``np.errstate``); a
    blow-up in any block is reported by stepping the batch whole, so its
    error is the whole step's; any other error propagates as raised.  No
    thread outlives the call.
    """
    noise = _noise_for(record.flow, noise)
    blocks = _row_blocks(record)
    if not blocks:
        return _step_rows(record, noise)
    with ThreadPoolExecutor(min(_thread_count(), len(blocks))) as pool:
        futures = [pool.submit(contextvars.copy_context().run, _step_rows,
                               *_rows_of(record, noise, sl)) for sl in blocks]
    errors = [f.exception() for f in futures]
    if any(isinstance(e, BlowUpError) for e in errors):
        return _step_rows(record, noise)
    for e in errors:
        if e is not None:
            raise e
    return _joined(record, noise, [f.result() for f in futures])


def run_coupling(record: CouplingRecord, n_steps: int) -> CouplingRecord:
    for _ in range(n_steps):
        record = coupling_step(record)
    return record


def coupling_distance(record: CouplingRecord, n: int = 1):
    """d_n between the coupled pair: 1 /\\ n |S(t) udiff + w|_{X^alpha}."""
    return d_n(record.lin_diff + record.w, n, record.flow.cfg.alpha,
               dt_grid=record.opts.dt_grid)


# ---------------------------------------------------------------------------
# the shifted-flow identity


def shifted_flow_check(cfg: SimConfig, u1_0: np.ndarray | None, u2_0: np.ndarray,
                       T: float, opts: CouplingOptions | None = None,
                       seed=None) -> tuple[float, CouplingRecord]:
    """Largest relative H^1 gap |Phi_t(u2^0, xi + h) - [Phi_t(u1^0, xi) + S(t) udiff + w]|
    over the steps to T, and the coupling record at T.

    One lockstep pass: each step's increment is drawn once, drives the
    coupling step, and then, shifted by dt times the h that step used,
    drives the plain simulator from u2^0.  The gap is round-off.
    """
    rec = coupling_init(cfg, u1_0, u2_0, opts, seed=seed)
    direct = flow_init(cfg, u2_0, seed=seed)
    worst = 0.0
    for _ in range(steps(T, cfg.dt, "T")):
        noise = step_noise(rec.flow)
        rec = coupling_step(rec, noise)
        shifted = NoiseIncrement(noise.incr.coeffs + cfg.dt * rec.h_last, cfg.dt)
        direct = v_step(direct, step_noise(direct, shifted))
        rhs = full_flow(rec.flow) + rec.lin_diff + rec.w
        worst = max(worst, float(np.max(hnorm(full_flow(direct) - rhs) / hnorm(rhs))))
    return worst, rec
