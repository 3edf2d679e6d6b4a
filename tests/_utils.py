"""Shared test helpers: deterministic fields, fixed-noise-path runners, the
FFT backend switch, and the oracles the package's fast routes are checked
against (the fancy-index 2-d transforms, the fresh-generator fft2 noise
route, the whole-batch quadrature, the one-time-per-pass sup norm, the
expanded-coefficient nonlinearity, the tau_M norms on every path, the
standalone Girsanov density, the two-start comparison with one run per
start, the coupled two-start comparison with a second record loop, the
two-pass trapezoid shifted-flow check), and small diagnostics only the
tests use (the single-mode propagator matrix, the wave-equation
finite-difference residual, the Hermitian defect, the Wick-ordering preset
gamma_*)."""

import dataclasses
import importlib
from contextlib import contextmanager

import numpy as np
import pytest

from sdnlw import coupling, propagator, spectral
from sdnlw.config import steps
from sdnlw.dynamics import flow_init, full_flow, v_step
from sdnlw.ergodics import compare_averages, compare_starts, sample_trajectory, \
    time_averages
from sdnlw.noise import NoiseIncrement, sample_increment, stationary_covariance
from sdnlw.propagator import DECAY_CONST, apply_S, default_time_grid
from sdnlw.spectral import bracket_multiplier, dealiased_product, grad2_table, hnorm, \
    l2_norm, lattice_size, mode_range, pair_norm, project_leq, quad_grid_size, reflect, \
    resize, to_physical, truncation_of, zero_field, zero_pair


def constant_field(N: int, value: float, batch: tuple = ()) -> np.ndarray:
    c = zero_field(N, batch)
    c[..., N, N] = value
    return c


def hermitian_defect(coeffs: np.ndarray) -> float:
    return float(np.max(np.abs(coeffs - np.conj(reflect(coeffs)))))


def mode_matrix(n: tuple[int, int], t: float) -> np.ndarray:
    """The 2x2 matrix S_n(t) for a single mode n."""
    omega = np.sqrt(0.75 + (2.0 * np.pi) ** 2 * (n[0] ** 2 + n[1] ** 2))
    tab = propagator._tables_from_omega(np.asarray(omega), float(t))
    return np.array([[tab.m11, tab.m12], [tab.m21, tab.m22]], dtype=float)


def wave_residual_field(pair: np.ndarray, t: float, h: float) -> np.ndarray:
    """Centered finite-difference residual of u_tt + u_t + u - Delta u at time t.

    Converges to zero at O(h^2) for the first component of S(t) v.
    """
    N = truncation_of(pair)
    um = apply_S(pair, t - h)[..., 0, :, :]
    u0 = apply_S(pair, t)[..., 0, :, :]
    up = apply_S(pair, t + h)[..., 0, :, :]
    utt = (up - 2.0 * u0 + um) / h**2
    ut = (up - um) / (2.0 * h)
    return utt + ut + (1.0 + grad2_table(N)) * u0


def wave_residual_ratios(pair: np.ndarray, t: float, hs) -> list:
    """Successive L^2-residual ratios over the dyadic h values (~4 = O(h^2))."""
    res = [float(np.max(l2_norm(wave_residual_field(pair, t, h)))) for h in hs]
    return [res[i] / res[i + 1] for i in range(len(res) - 1)]


def gamma_star(s: float, N: int) -> float:
    """Stationary spatial variance of the truncated stick component,
    sum_n Var(uhat(n)); the Wick-ordering preset for gamma."""
    return float(np.sum(stationary_covariance(N, s)[..., 0, 0]))


def cosine_field(N: int, k=(1, 0), amplitude: float = 1.0) -> np.ndarray:
    """amplitude * cos(2 pi k.x) as coefficients (modes +-k with weight 1/2)."""
    c = zero_field(N)
    c[N + k[0], N + k[1]] = 0.5 * amplitude
    c[N - k[0], N - k[1]] = 0.5 * amplitude
    return c


def cosine_pair(N: int, k=(1, 0), amplitude: float = 1.0,
                component: int = 0) -> np.ndarray:
    p = zero_pair(N)
    p[component] = cosine_field(N, k, amplitude)
    return p


def fine_increments(N: int, delta: float, n_steps: int, seed: int) -> list:
    return [sample_increment(N, delta, seed, k).coeffs for k in range(n_steps)]


def coarsen(fine: list, ratio: int, delta: float) -> list:
    """Sum consecutive fine white-noise increments into coarse ones."""
    out = []
    for k in range(len(fine) // ratio):
        c = fine[k * ratio]
        for j in range(1, ratio):
            c = c + fine[k * ratio + j]
        out.append(NoiseIncrement(c, delta))
    return out


def zero_increments(N: int, delta: float, n_steps: int) -> list:
    return [NoiseIncrement(zero_field(N), delta) for _ in range(n_steps)]


def run_table(step, state, table: list):
    """Advance ``state`` by ``step`` (``v_step`` or ``coupling_step``) once
    per increment of ``table``, in order: a fixed white-noise path."""
    for incr in table:
        state = step(state, incr)
    return state


def weighted_sup_norm_loop(pair, alpha, p, t_star=40.0, dt_grid=0.25, pad=2.0):
    """One grid time per pass: the oracle for the chunked weighted sup norm.

    Returns (total, grid_max, tail_bound)."""
    N = truncation_of(pair)
    best = np.zeros(pair.shape[:-3])
    for t in default_time_grid(t_star, dt_grid):
        val = np.exp(t / 8.0) * pair_norm(apply_S(pair, float(t)), alpha, p, pad)
        best = np.maximum(best, val)
    end = apply_S(pair, float(t_star))
    tail = DECAY_CONST * lattice_size(N) * np.exp(t_star / 8.0) * hnorm(end, alpha)
    return np.maximum(best, tail), best, tail


def nonlinearity(v, coeffs, N: int):
    """Coefficient form P_N [ (P_N v)^3 + a (P_N v)^2 + b (P_N v) + c ]: the
    oracle for the direct cube of ``dynamics.nonlinearity_field``."""
    w = project_leq(v[..., 0, :, :], N)
    out = dealiased_product(w, w, w, out_N=N)
    out = out + dealiased_product(coeffs.a, w, w, out_N=N)
    out = out + dealiased_product(coeffs.b, w, out_N=N)
    return out + resize(coeffs.c, N)  # cropping is the projection


def girsanov_log_density(h_fields, increments, delta: float):
    """log E = sum_k [ -1/2 |h_k|^2 delta + <h_k, dxi_k> ] for explicit paths:
    the oracle for the accumulation inside ``coupling_step``."""
    total = 0.0
    for h, incr in zip(h_fields, increments):
        coeffs = incr.coeffs if isinstance(incr, NoiseIncrement) else incr
        total = total - 0.5 * delta * np.sum(np.abs(h) ** 2, axis=(-2, -1)) \
            + np.sum(h * np.conj(coeffs), axis=(-2, -1)).real
    return total


def lp_norm_whole(coeffs, p: float, pad: float = 2.0):
    """Every path sampled in one transform: the oracle for the path blocks
    of ``spectral.lp_norm``."""
    phys = to_physical(coeffs, quad_grid_size(truncation_of(coeffs), pad))
    return np.mean(np.abs(phys) ** p, axis=(-2, -1)) ** (1.0 / p)


def tau_m_norms(stick_pair, alpha: float, gamma: float, pad: float = 2.0):
    """The three tau_M norms (stick pair, wick2, wick3) of every path, each
    quadrature over the whole batch: the oracle for the certified skip and
    the path blocks in ``coupling.TauMMonitor.update``."""
    N = truncation_of(stick_pair)
    M_quad = quad_grid_size(N, pad)
    psi = to_physical(stick_pair[..., 0, :, :], M_quad)
    psi2 = psi * psi
    w2 = psi2 - gamma
    w3 = (psi2 - 3.0 * gamma) * psi
    w2sq = w2 * w2
    p = 4.0 / alpha
    a = lp_norm_whole(bracket_multiplier(stick_pair[..., 0, :, :], alpha), p, pad)
    b = lp_norm_whole(bracket_multiplier(stick_pair[..., 1, :, :], alpha - 1.0), p, pad)
    n_stick = (a**p + b**p) ** (1.0 / p)
    n_w2 = np.mean(w2sq * w2sq, axis=(-2, -1)) ** 0.25
    n_w3 = np.sqrt(np.mean(w3 * w3, axis=(-2, -1)))
    return n_stick, n_w2, n_w3


def tau_m_update(monitor, t: float, stick_pair):
    """``TauMMonitor.update`` with every norm evaluated on every path."""
    norms = tau_m_norms(stick_pair, monitor.alpha, monitor.gamma, monitor.pad)
    running_max = np.maximum(monitor.running_max, np.maximum.reduce(norms))
    newly = (running_max > monitor.M) & ~monitor.stopped
    return dataclasses.replace(monitor, stopped=monitor.stopped | newly,
                               stop_time=np.where(newly, t, monitor.stop_time),
                               running_max=running_max)


def to_physical_fancy(coeffs, M: int):
    """Scatter every column n2 >= 0 to FFT bin (n mod M) by fancy indexing:
    the oracle for the slice-block ``spectral.to_physical``."""
    N = truncation_of(coeffs)
    idx = np.mod(mode_range(N), M)
    half = np.zeros(coeffs.shape[:-2] + (M, M // 2 + 1), dtype=np.complex128)
    half[..., idx[:, None], np.arange(N + 1)[None, :]] = coeffs[..., :, N:]
    return spectral._fft.irfft2(half, s=(M, M), norm="forward")


def to_spectral_fancy(phys, N: int):
    """Gather by fancy indexing, negative columns by Hermitian symmetry: the
    oracle for the slice-block ``spectral.to_spectral``."""
    M = phys.shape[-1]
    half = spectral._fft.rfft2(np.asarray(phys, dtype=np.float64)) / (M * M)
    idx = np.mod(mode_range(N), M)
    out = np.empty(phys.shape[:-2] + (lattice_size(N),) * 2, dtype=np.complex128)
    out[..., :, N:] = half[..., idx[:, None], np.arange(N + 1)[None, :]]
    out[..., :, :N] = np.conj(half[..., idx[::-1, None], np.arange(N, 0, -1)[None, :]])
    return out


FFT_BACKENDS = ("scipy", "numpy")


@contextmanager
def fft_backend(name: str):
    """Bind ``spectral``'s FFT module to scipy.fft or numpy.fft for the
    duration of the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_fft", importlib.import_module(name + ".fft"))
        yield


def unit_hermitian_fft2(N: int, seed, step: int, block: int) -> np.ndarray:
    """A fresh Philox per seed, the blocks stacked, numpy's fft2: the oracle
    for ``noise.unit_hermitian``."""
    K = lattice_size(N)

    def normals(s):
        key = np.array([int(s) & (2**64 - 1), 0], dtype=np.uint64)
        bits = np.random.Philox(key=key, counter=[0, 0, block, step])
        return np.random.Generator(bits).standard_normal((K, K))

    w = normals(seed) if np.isscalar(seed) else np.stack([normals(s) for s in seed])
    return np.fft.fftshift(np.fft.fft2(w) / K, axes=(-2, -1))


def compare_starts_separately(cfg, u1_0, u2_0, T: float, seeds) -> dict:
    """One ``sample_trajectory`` run per start, each drawing its own noise:
    the oracle for the lockstep ``ergodics.compare_starts``."""
    seeds = list(seeds)
    avg1, avg2 = (time_averages(sample_trajectory(cfg, u0, seeds, T)["series"],
                                0.25 * T, T) for u0 in (u1_0, u2_0))
    return {"observables": {name: compare_averages(avg1[name], avg2[name])
                            for name in cfg.observables},
            "seeds": tuple(seeds), "T": T}


def two_start_convergence(cfg, u1_0, u2_0, T: float, seeds, coupling_opts=None,
                          dn_n: int = 1, dn_every: float = 2.0) -> dict:
    """The uncoupled ``compare_starts``, then a coupling record stepping the
    first start's flow again on the same seeds: the oracle for
    ``compare_starts`` with ``coupling_opts``."""
    seeds = list(seeds)
    n_steps = steps(T, cfg.dt, "T")
    every = max(steps(dn_every, cfg.dt, "dn_every"), 1)
    report = compare_starts(cfg, u1_0, u2_0, T, seeds)
    opts = coupling_opts or coupling.CouplingOptions(eps_every=10)
    rec = coupling.coupling_init(cfg, u1_0, u2_0, opts, seed=seeds, batch=(len(seeds),))
    dn_times, dn_vals = [0.0], [float(np.mean(coupling.coupling_distance(rec, dn_n)))]
    for k in range(n_steps):
        rec = coupling.coupling_step(rec)
        if (k + 1) % every == 0:
            dn_times.append(rec.t)
            dn_vals.append(float(np.mean(coupling.coupling_distance(rec, dn_n))))
    report["coupled_dn"] = {"times": np.array(dn_times), "values": np.array(dn_vals),
                            "n": dn_n, "final": dn_vals[-1]}
    return report


def shift_h(record) -> np.ndarray:
    """The Girsanov shift h = 2^{-1/2} <grad>^s B_moll at the record's time
    (on paths stopped before the record's last step, the h that step used)."""
    Q, _ = coupling._plain_bracket(record)
    b_moll = coupling._moll_bracket(record, Q, record.eps)
    h = coupling._h_from_bracket(b_moll, record.flow.cfg.s)
    if record.monitor is not None:
        h = np.where(record.monitor.stopped[..., None, None], record.h_last, h)
    return h


def trapezoid_shift_check(cfg, u1_0, u2_0, T: float, opts=None, seed=None,
                          sample_every: int = 1, incr_table: list | None = None) -> dict:
    """Residual series |Phi_t(u2^0, xi + h) - [Phi_t(u1^0, xi) + S(t) udiff + w]|_H1
    with the shift injected by the trapezoid rule: the two-pass oracle
    beside the lockstep ``coupling.shifted_flow_check``.

    Pass 1 builds the coupling record (recording the h path); pass 2 drives
    the plain simulator from u2^0 with the shift injected into the noise
    increments by the trapezoid rule.  Its node at t_k (k < n) is the h that
    step k used, with that step's eps; its node at T is ``shift_h`` of the
    final record.  The residual converges to zero at the integrator's order
    and is round-off whenever h vanishes.  An explicit ``incr_table`` fixes
    the white-noise path (step-size studies coarsen one fine path so all
    runs see the same realization).
    """
    seed = cfg.seed if seed is None else seed
    delta = cfg.dt
    n = steps(T, delta, "T")
    if incr_table is None:
        incr_table = [sample_increment(cfg.N, delta, seed, k) for k in range(n)]
    rec = coupling.coupling_init(cfg, u1_0, u2_0, opts, seed=seed)
    h_series, rhs = [], []
    for k in range(n):
        rec = coupling.coupling_step(rec, incr_table[k])
        h_series.append(rec.h_last)
        rhs.append(full_flow(rec.flow) + rec.lin_diff + rec.w)
    h_series.append(shift_h(rec))

    direct = flow_init(cfg, u2_0, seed=seed)
    times, residuals, rel = [], [], []
    for k in range(n):
        shift = 0.5 * delta * (h_series[k] + h_series[k + 1])
        direct = v_step(direct, NoiseIncrement(incr_table[k].coeffs + shift, delta))
        if (k + 1) % sample_every == 0 or k == n - 1:
            r = float(np.max(hnorm(full_flow(direct) - rhs[k])))
            scale = float(np.max(hnorm(rhs[k])))
            times.append((k + 1) * delta)
            residuals.append(r)
            rel.append(r / max(scale, 1e-30))
    return {"times": np.array(times), "residual": np.array(residuals),
            "rel_residual": np.array(rel), "record": rec}
