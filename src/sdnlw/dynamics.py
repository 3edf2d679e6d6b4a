"""Time integration of the remainder equation and energy diagnostics.

The full state is reconstructed as

    Phi_t = S(t) u0 + stick_t + v(t),

where v solves the Duhamel remainder equation

    v(t) = - int_0^t S(t-r) P_N (0, N_gamma[pi1 P_N (S(r) u0 + stick_r + v(r))]) dr,

with N_gamma(x) = x^3 - 3 gamma x.  The linear part S(t) u0 is evolved
incrementally (lin <- S(dt) lin), which is exact per mode, and the cubic
forcing is exponentially integrated:

* ``euler``:    v <- S(dt) v - dt * S(dt) (0, NL(t))          (order 1)
* ``midpoint``: Euler half-step predictor, then
                v <- S(dt) v - dt * S(dt/2) (0, NL(t+dt/2))   (order 2 on
                deterministic paths; the shared-increment noise coupling
                limits pathwise self-convergence to order 1)

The nonlinearity is evaluated as one dealiased cube of
x = pi1 (lin + stick + v); this equals the expanded coefficient form
v^3 + a v^2 + b v + c identically (see renorm), and P_N is applied once.

The energy of the remainder (w = P_N v) is

    E(v) = 1/2 int (w_t)^2 + 1/2 int w^2 + 1/2 int |grad w|^2
         + 1/4 int w^4 + 1/8 int (w + w_t)^2,

and the modified functional used for the drift bound is
F = E - 1/8 int (w_t)^2 + 1/3 int a w^3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import noise as noise_mod
from . import spectral
from .config import SimConfig, steps
from .noise import NoiseIncrement, StickState, sample_increment
from .propagator import apply_tables, kick_tables, propagator_tables
from .renorm import CubicCoefficients
from .spectral import (
    dealiased_product,
    embed,
    grad2_table,
    hnorm,
    l2_inner,
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
class FlowState:
    """One trajectory (or a batch) of the truncated flow.

    Only the stick and v differ between paths and carry the batch.  The
    initial data and its evolution S(t) u0 carry no noise: they keep the
    batch shape of the data, one (2, K, K) pair for a single datum, and
    broadcast against the paths wherever the flow is assembled, so a step
    applies S(dt) to one pair, not to one per path.
    """

    cfg: SimConfig
    u0: np.ndarray       # (..., 2, K, K) initial data, the data's batch shape
    lin: np.ndarray      # S(t) u0, evolved incrementally, the data's batch shape
    stick: StickState
    v: np.ndarray        # remainder pair, zero at t = 0, one per path

    @property
    def t(self) -> float:
        return self.stick.t

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
    state keeps its own copy of ``u0`` at the data's batch shape (class
    docstring), so a later write to the caller's array changes nothing.
    """
    N = cfg.N
    if u0 is None:
        u0 = zero_pair(N)
    else:
        u0 = spectral.resize(u0, N).copy()  # cropping is the sharp projection
    paths = tuple(batch) or u0.shape[:-3]
    _check_fits_paths("u0", u0, paths)
    if seed is None:
        seed = cfg.seed
    st = noise_mod.stick_init(N, cfg.s, seed, paths)
    st = replace(st, step=step0)
    return FlowState(cfg, u0, u0.copy(), st, zero_pair(N, st.batch))


def cube_grid_size(N: int) -> int:
    """The grid on which the cube of a degree-N field is dealiased to P_N."""
    return product_grid_size(3 * N, N)


def nonlinearity_field(lin: np.ndarray, stick_value: np.ndarray, v: np.ndarray,
                       gamma: float, N: int, x_phys: np.ndarray | None = None
                       ) -> np.ndarray:
    """P_N [ x^3 - 3 gamma x ] with x = pi1 P_N (lin + stick + v).

    The cube is dealiased on the M x M grid, M = cube_grid_size(N), as
    ``dealiased_product(x, x, x, out_N=N)`` does it, bit for bit.
    ``x_phys``, when given, holds x already sampled on that grid, so x is
    not transformed again.
    """
    x = project_leq((lin + stick_value + v)[..., 0, :, :], N)
    M = cube_grid_size(N)
    if x_phys is None:
        x_phys = to_physical(x, M)
    elif x_phys.shape[-1] != M:
        raise ValueError(f"x_phys is sampled on {x_phys.shape[-1]} points, "
                         f"the cube needs {M}")
    cube = to_spectral(x_phys * x_phys * x_phys, N)
    return cube - 3.0 * gamma * x


def _check_blowup(field: np.ndarray, cfg: SimConfig, t: float, label: str = "v") -> None:
    n = hnorm(field)
    bad = ~np.isfinite(n) | (n > cfg.blowup_threshold)
    if np.any(bad):
        raise BlowUpError(t, float(np.max(np.where(np.isfinite(n), n, np.inf))), label)


def next_increment(state: FlowState) -> NoiseIncrement:
    """The white-noise increment of the state's next step, drawn from its
    (seed, step) lineage."""
    return sample_increment(state.cfg.N, state.cfg.dt, state.stick.seed,
                            state.stick.step)


def _check_next_stick(state: FlowState, stick: StickState, name: str,
                      delta: float) -> None:
    """Refuse a stick that is not the state's own stick advanced over
    ``delta`` on the same paths: one step ahead on the same batch and
    seeds, at t + delta; the ValueError names the parameter."""
    own = state.stick
    if stick.step != own.step + 1:
        raise ValueError(f"{name}: at step {stick.step}, the state's next step "
                         f"is {own.step + 1}")
    if stick.batch != own.batch:
        raise ValueError(f"{name}: batch {stick.batch} differs from the state's "
                         f"{own.batch}")
    if stick.seed is not own.seed and not np.array_equal(stick.seed, own.seed):
        raise ValueError(f"{name}: seeds {stick.seed!r} differ from the state's "
                         f"{own.seed!r}")
    if stick.t != own.t + delta:
        raise ValueError(f"{name}: at t = {stick.t!r}, expected {own.t + delta!r}")


def _midpoint_stick(stick: StickState, delta: float, incr: NoiseIncrement) -> StickState:
    """The stick the midpoint predictor reads: advanced over delta/2 by
    half of the step's increment."""
    return noise_mod.stick_step_shared(
        stick, 0.5 * delta, NoiseIncrement(0.5 * incr.coeffs, 0.5 * delta))


def v_step(state: FlowState, incr: NoiseIncrement | None = None, *,
           x0_phys: np.ndarray | None = None,
           stick: StickState | None = None,
           half_stick: StickState | None = None) -> FlowState:
    """Advance stick and remainder by one step of length cfg.dt of the
    chosen integrator; ``incr`` overrides the lineage draw and must be
    drawn for that step length.  ``x0_phys`` is pi1 of the state's full
    flow on the cube grid, when the caller has sampled it already (see
    ``nonlinearity_field``).  ``stick`` is the state's stick already
    advanced by ``incr``, when the caller has stepped it for several
    states on the same noise; it must be one step ahead on the same
    seeds (a ValueError naming ``stick`` otherwise).  ``half_stick`` is,
    in the same way, the midpoint integrator's half-step stick
    (``_midpoint_stick`` of the state's stick); only that integrator
    takes it."""
    cfg = state.cfg
    delta = cfg.dt
    N = cfg.N
    if stick is not None:
        _check_next_stick(state, stick, "stick", delta)
    if half_stick is not None:
        if cfg.integrator != "midpoint":
            raise ValueError(f"half_stick: the {cfg.integrator} integrator takes "
                             "no half-step stick")
        _check_next_stick(state, half_stick, "half_stick", 0.5 * delta)
    if incr is None:
        incr = next_increment(state)
    tab = propagator_tables(N, delta)

    if cfg.linear_only:
        v_new = apply_tables(tab, state.v)
    elif cfg.integrator == "euler":
        nl = nonlinearity_field(state.lin, state.stick.value, state.v, cfg.gamma, N,
                                x0_phys)
        v_new = apply_tables(tab, state.v) - delta * kick_tables(tab, nl)
    elif cfg.integrator == "midpoint":
        half = propagator_tables(N, 0.5 * delta)
        nl0 = nonlinearity_field(state.lin, state.stick.value, state.v, cfg.gamma, N,
                                 x0_phys)
        lin_h = apply_tables(half, state.lin)
        if half_stick is None:
            half_stick = _midpoint_stick(state.stick, delta, incr)
        v_h = apply_tables(half, state.v) - 0.5 * delta * kick_tables(half, nl0)
        nl_mid = nonlinearity_field(lin_h, half_stick.value, v_h, cfg.gamma, N)
        v_new = apply_tables(tab, state.v) - delta * kick_tables(half, nl_mid)
    else:
        raise ValueError(f"unknown integrator {cfg.integrator!r}")

    if stick is None:
        stick = noise_mod.stick_step_shared(state.stick, delta, incr)
    lin_new = apply_tables(tab, state.lin)
    _check_blowup(v_new, cfg, stick.t)
    return replace(state, lin=lin_new, stick=stick, v=v_new)


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


def modified_energy_F(v: np.ndarray, coeffs: CubicCoefficients, N: int) -> np.ndarray:
    """F = E - 1/8 int (w_t)^2 + 1/3 int a w^3."""
    w = project_leq(v[..., 0, :, :], N)
    wt = project_leq(v[..., 1, :, :], N)
    w3 = dealiased_product(w, w, w)
    return energy(v, N) - 0.125 * mean_square(wt) \
        + (1.0 / 3.0) * l2_inner(embed(coeffs.a, truncation_of(w3)), w3)


def restart_check(cfg: SimConfig, u0: np.ndarray | None, t: float, h: float,
                  seed=None) -> float:
    """Markov restart residual |Phi_{t+h} - [S(h) Phi_t + fresh stick + fresh v]|_H1.

    The restarted run reuses the same noise lineage (step offset t/dt), so
    the residual measures only the integrator's consistency with the
    restart identity; it vanishes to round-off for the linear flow and
    decreases at the integrator's order otherwise.
    """
    n_t = steps(t, cfg.dt, "t")
    n_h = steps(h, cfg.dt, "h")
    a = flow_init(cfg, u0, seed=seed)
    a = run_steps(a, n_t)
    phi_t = full_flow(a)
    a = run_steps(a, n_h)
    phi_end = full_flow(a)
    b = flow_init(cfg, phi_t, seed=seed if seed is not None else cfg.seed,
                  step0=n_t)
    b = run_steps(b, n_h)
    res = hnorm(phi_end - full_flow(b))
    return float(np.max(res))
