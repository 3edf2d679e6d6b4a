"""Time integration of the remainder equation and energy diagnostics.

The full state is reconstructed as

    Phi_t = S(t) u0 + stick_t + v(t),

where v solves the Duhamel remainder equation

    v(t) = - int_0^t S(t-r) P_N (0, N_gamma[pi1 P_N (S(r) u0 + stick_r + v(r))]) dr,

with N_gamma(x) = x^3 - 3 gamma x.  The linear part S(t) u0 is evolved
incrementally (lin <- S(dt) lin), which is exact per mode, and the cubic
forcing is integrated by exponential Euler (the one scheme; the coupling
shift w uses it too):

    v <- S(dt) v - dt * S(dt) (0, NL(t))          (order 1)

A step's noise is one ``StepNoise`` from ``step_noise``; flows that share
one stick object (lockstep starts) share it, so the stick advances once.

The nonlinearity is evaluated as one dealiased cube of
x = pi1 (lin + stick + v), and P_N is applied once.  With u0N = pi1 P_N S(t) u0,
psi = pi1 stick, wick2 = psi^2 - gamma and wick3 = psi^3 - 3 gamma psi, it
equals the expanded form v^3 + a v^2 + b v + c identically, where

    a = 3 (u0N + psi),
    b = 3 (u0N^2 + 2 u0N psi + wick2),
    c = u0N^3 + 3 u0N^2 psi + 3 u0N wick2 + wick3;

the tests keep that form, at exact degree, as the oracle for the cube.

The energy of the remainder (w = P_N v) is

    E(v) = 1/2 int (w_t)^2 + 1/2 int w^2 + 1/2 int |grad w|^2
         + 1/4 int w^4 + 1/8 int (w + w_t)^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import noise as noise_mod
from . import spectral
from .config import SimConfig, steps
from .noise import PER_DATUM, PER_PATH, NoiseIncrement, StickState, sample_increment
from .propagator import apply_tables, kick_tables, propagator_tables
from .spectral import (
    dealiased_product,
    grad2_table,
    hnorm,
    mean_square,
    product_grid_size,
    project_leq,
    to_physical,
    to_spectral,
    truncation_of,
    zero_pair,
)


class BlowUpError(RuntimeError):
    """H^1 norm of a field (the remainder v, or the coupling shift w)
    exceeded the blow-up threshold."""

    def __init__(self, t: float, norm: float, label: str = "v"):
        super().__init__(f"blow-up signal at t={t:.6g} (|{label}|_H1 = {norm:.3e})")
        self.t = t
        self.norm = norm


@dataclass(frozen=True)
class FlowState(noise_mod.OwnArrays):
    """One trajectory (or a batch) of the truncated flow.

    Only the stick and v differ between paths.  The linear part S(t) u0
    carries no noise and keeps the data's batch (PER_DATUM), so a step
    applies S(dt) to one pair, not to one per path.  At t = 0 it is the
    initial data itself.
    """

    cfg: SimConfig
    lin: np.ndarray = field(metadata=PER_DATUM)  # S(t) u0, evolved incrementally
    stick: StickState
    v: np.ndarray = field(metadata=PER_PATH)     # remainder pair, zero at t = 0

    @property
    def t(self) -> float:
        return self.step * self.cfg.dt

    @property
    def step(self) -> int:
        return self.stick.step

    @property
    def batch(self) -> tuple:
        return self.v.shape[:-3]


def _check_fits_paths(name: str, data: np.ndarray, paths: tuple) -> None:
    """Refuse data whose batch does not broadcast to the paths' batch."""
    try:
        fits = np.broadcast_shapes(data.shape[:-3], paths) == paths
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(f"{name}: batch {data.shape[:-3]} does not broadcast "
                         f"to the paths' batch {paths}")


def flow_init(cfg: SimConfig, u0: np.ndarray | None = None, seed=None,
              batch: tuple = (), step0: int = 0) -> FlowState:
    """Fresh flow state; ``step0`` offsets the noise lineage (restarts).

    The paths' batch is ``batch``, or the data's when ``batch`` is ().  The
    state keeps its own copy of ``u0`` as ``lin`` at the data's batch shape
    (class docstring), so a later write to the caller's array changes nothing.
    """
    N = cfg.N
    if u0 is None:
        u0 = zero_pair(N)
    else:
        u0 = spectral.resize(u0, N).copy()  # cropping is the sharp projection
    paths = tuple(batch) or u0.shape[:-3]
    _check_fits_paths("u0", u0, paths)
    seed = cfg.seed if seed is None else seed
    st = noise_mod.stick_init(N, cfg.s, seed, paths)
    st = replace(st, step=step0)
    return FlowState(cfg, u0, st, zero_pair(N, st.batch))


def cube_grid_size(N: int) -> int:
    """The grid on which the cube of a degree-N field is dealiased to P_N."""
    return product_grid_size(3 * N, N)


def nonlinearity_field(x: np.ndarray, gamma: float, N: int,
                       x_phys: np.ndarray | None = None) -> np.ndarray:
    """P_N [ x^3 - 3 gamma x ] of x = pi1 of a full flow at truncation N.

    The cube is dealiased on the M x M grid, M = cube_grid_size(N), as
    ``dealiased_product(x, x, x, out_N=N)`` does it, bit for bit.
    ``x_phys``, when given, holds x already sampled on that grid, so x is
    not transformed again.
    """
    M = cube_grid_size(N)
    if x_phys is None:
        x_phys = to_physical(x, M)
    elif x_phys.shape[-1] != M:
        raise ValueError(f"x_phys is sampled on {x_phys.shape[-1]} points, "
                         f"the cube needs {M}")
    cube = to_spectral(x_phys * x_phys * x_phys, N)
    return cube - 3.0 * gamma * x


def _check_blowup(field: np.ndarray, cfg: SimConfig, step: int, label: str = "v") -> None:
    n = hnorm(field)
    bad = ~np.isfinite(n) | (n > cfg.blowup_threshold)
    if np.any(bad):
        worst = float(np.max(np.where(np.isfinite(n), n, np.inf)))
        raise BlowUpError(step * cfg.dt, worst, label)


@dataclass(frozen=True)
class StepNoise:
    """One step's noise for every flow on one stick: the white-noise
    increment, the stick it was built from, and that stick advanced over
    dt.  Flows stepped with it share one advance."""

    incr: NoiseIncrement
    before: StickState
    stick: StickState


def step_noise(state: FlowState, incr: NoiseIncrement | None = None) -> StepNoise:
    """The noise of the state's next step: ``incr`` (drawn from the state's
    (seed, step) lineage when omitted; it must be drawn for cfg.dt) and the
    state's stick advanced by it."""
    cfg = state.cfg
    delta = cfg.dt
    before = state.stick
    if incr is None:
        incr = sample_increment(cfg.N, delta, before.seed, before.step)
    return StepNoise(incr, before, noise_mod.stick_step_shared(before, delta, incr))


def _noise_for(state: FlowState, noise: StepNoise | None) -> StepNoise:
    """The noise every step of ``state`` (``v_step``, the coupling's step)
    runs on, refused before any work when built from another stick."""
    if noise is None:
        return step_noise(state)
    if noise.before is not state.stick:
        raise ValueError("noise: built from another stick than the state's")
    return noise


def v_step(state: FlowState, noise: StepNoise | None = None, *,
           x0_phys: np.ndarray | None = None) -> FlowState:
    """Advance stick and remainder by one exponential Euler step of length
    cfg.dt on ``noise``, the state's ``step_noise`` when omitted; noise
    built from another stick object is refused (a ValueError naming
    ``noise``).
    ``x0_phys`` is pi1 of the state's full flow on the cube grid, when the
    caller has sampled it already (see ``nonlinearity_field``)."""
    noise = _noise_for(state, noise)
    cfg = state.cfg
    N, delta = cfg.N, cfg.dt
    tab = propagator_tables(N, delta)

    nl = nonlinearity_field(full_flow(state)[..., 0, :, :], cfg.gamma, N, x0_phys)
    v_new = apply_tables(tab, state.v) - delta * kick_tables(tab, nl)
    lin_new = apply_tables(tab, state.lin)
    _check_blowup(v_new, cfg, noise.stick.step)
    return replace(state, lin=lin_new, stick=noise.stick, v=v_new)


def run_steps(state: FlowState, n_steps: int) -> FlowState:
    """Advance n_steps on the state's own noise lineage."""
    for _ in range(n_steps):
        state = v_step(state)
    return state


def full_flow(state: FlowState) -> np.ndarray:
    """Phi_t = S(t) u0 + stick + v."""
    return state.lin + state.stick.value + state.v


def energy(v: np.ndarray, N: int) -> np.ndarray:
    """The coercive energy of the (projected) remainder pair."""
    w = project_leq(v[..., 0, :, :], N)
    wt = project_leq(v[..., 1, :, :], N)
    Nw = truncation_of(w)
    quad = 0.5 * mean_square(wt) + 0.5 * mean_square(w) \
        + 0.5 * np.sum(grad2_table(Nw) * np.abs(w) ** 2, axis=(-2, -1)) \
        + 0.125 * mean_square(w + wt)
    w2 = dealiased_product(w, w)
    return quad + 0.25 * mean_square(w2)


def restart_check(cfg: SimConfig, u0: np.ndarray | None, t: float, h: float,
                  seed=None) -> float:
    """Markov restart residual |Phi_{t+h} - [S(h) Phi_t + fresh stick + fresh v]|_H1.

    The restarted run reuses the same noise lineage and clock (step offset
    t/dt), and an exponential Euler step maps the sum lin + stick + v to
    the next one however the sum is split, so the residual is round-off
    for the linear and the nonlinear flow alike.
    """
    n_h = steps(h, cfg.dt, "h")
    a = run_steps(flow_init(cfg, u0, seed=seed), steps(t, cfg.dt, "t"))
    b = run_steps(flow_init(cfg, full_flow(a), seed=seed, step0=a.step), n_h)
    return float(np.max(hnorm(full_flow(run_steps(a, n_h)) - full_flow(b))))
