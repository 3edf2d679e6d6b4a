"""Exact per-mode evaluation of the damped-wave semigroup S(t).

For the linear equation u_tt + u_t + u - Delta u = 0 each Fourier mode
(uhat, uthat)(n) evolves by the 2x2 matrix

    S_n(t) = e^{-t/2} [ cos(t w) + sin(t w)/(2w)        sin(t w)/w
                        -(w + 1/(4w)) sin(t w)          cos(t w) - sin(t w)/(2w) ]

with w = omega_n = (3/4 + |2 pi n|^2)^{1/2}; this is the matrix exponential
of [[0, 1], [-(1 + |2 pi n|^2), -1]] t, and det S_n(t) = e^{-t} (Wronskian).
sin(t w)/w is evaluated through numpy's sinc so the formula stays accurate
uniformly down to t w -> 0.

The module also provides the exponentially weighted sup norm

    ||v||_{X^alpha} = sup_{t>=0} e^{t/8} ||S(t) v||_{W^{alpha,2/alpha} x W^{alpha-1,2/alpha}},

evaluated on a time grid over [0, T_star] plus a certified tail bound.  Two
facts about a real field g with (2N+1)^2 Fourier modes ghat_n give it:

  (i)  max_x |g(x)| <= sum_n |ghat_n| <= (2N+1) ||ghat||_2 (Cauchy-Schwarz),
       so the padded quadrature of ||g||_{L^p}, the p-th root of a grid
       mean of |g|^p, is at most (2N+1) ||g||_{L^2} for every p;
  (ii) the H^alpha-conjugated mode matrices D S_n(t) D^{-1}, with
       D = diag(omega_n^alpha, omega_n^{alpha-1}), have 2-norm
       <= 2.8 e^{-t/2} (DECAY_CONST; numerically the max over n and
       t in [0, 40] of e^{t/2} ||D S_n(t) D^{-1}||_2 is 1.77).

For p >= 2, (a^p + b^p)^{1/p} <= (a^2 + b^2)^{1/2}, so (i) bounds the
quadrature pair norm at time t, weighted, by the Plancherel bound

    B(t) = (2N+1) e^{t/8} ||S(t) v||_{H^alpha},

and (ii) with S(t') = S(t' - t) S(t) gives, for every t' >= t,

    e^{t'/8} ||S(t') v||_{W} <= 2.8 e^{-3(t'-t)/8} B(t) <= 2.8 B(t).

At t = T_star this is the tail bound for t > T_star.

The grid maximum is evaluated in chunks of grid times, one broadcast
transform and quadrature per chunk, with the chunk sized so that its
physical-grid samples stay within CHUNK_BYTES; per grid point the
arithmetic is that of a batched single-time evaluation.  The loop prunes
with the two bounds, computed from the chunk's S(t) v without
any transform: a chunk whose B(t) (times 1 + 1e-9 for round-off) is at
most the running max for every path and time is not transformed, and the
loop stops once 2.8 B(t) at the chunk's last time is at most the running
max, since that covers every later grid time.  A skipped value cannot
exceed the running max, so the maximum, and with it the returned value,
is bit-identical to evaluating every grid time; only the cost depends on
the data (the weighted norm decays like e^{-3t/8}, so the max is usually
reached and certified within the first few time units).  NaN fails every
comparison, so it never prunes and propagates as without pruning.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import spectral
from .spectral import (
    hnorm,
    lattice_size,
    omega_table,
    pair_norm,
    quad_grid_size,
    read_only,
    truncation_of,
)

# rigorous Frobenius bound on the H^beta-conjugated mode matrices, see module docstring
DECAY_CONST = 2.8

# budget for the complex physical-grid samples of one X^alpha chunk (all paths)
CHUNK_BYTES = 256 * 1024


class PropagatorTables(NamedTuple):
    """S(t) entries tabulated over the (K, K) lattice."""

    m11: np.ndarray
    m12: np.ndarray
    m21: np.ndarray
    m22: np.ndarray


def _tables_from_omega(omega: np.ndarray, t: float) -> PropagatorTables:
    tw = t * omega
    damp = np.exp(-0.5 * t)
    c = np.cos(tw)
    sinc = t * np.sinc(tw / np.pi)  # sin(t w)/w, stable as t w -> 0
    half = 0.5 * sinc
    m11 = damp * (c + half)
    m12 = damp * sinc
    m21 = -damp * (omega + 0.25 / omega) * np.sin(tw)
    m22 = damp * (c - half)
    return PropagatorTables(m11, m12, m21, m22)


@lru_cache(maxsize=4096)
def propagator_tables(N: int, t: float) -> PropagatorTables:
    """Cached S(t) tables; keyed by (N, t) so fixed-step loops hit the cache."""
    if t < 0:
        raise ValueError("t must be >= 0")
    tables = _tables_from_omega(omega_table(N), float(t))
    return PropagatorTables(*map(read_only, tables))


def mode_matrix(n: tuple[int, int], t: float) -> np.ndarray:
    """The 2x2 matrix S_n(t) for a single mode n."""
    omega = np.sqrt(0.75 + (2.0 * np.pi) ** 2 * (n[0] ** 2 + n[1] ** 2))
    tab = _tables_from_omega(np.asarray(omega), float(t))
    return np.array([[tab.m11, tab.m12], [tab.m21, tab.m22]], dtype=float)


def apply_tables(tables: PropagatorTables, pair: np.ndarray) -> np.ndarray:
    u = pair[..., 0, :, :]
    ut = pair[..., 1, :, :]
    return np.stack(
        [tables.m11 * u + tables.m12 * ut, tables.m21 * u + tables.m22 * ut],
        axis=-3,
    )


def apply_S(pair: np.ndarray, t: float) -> np.ndarray:
    """Evaluate S(t) applied to a phase-space pair."""
    N = truncation_of(pair)
    return apply_tables(propagator_tables(N, t), pair)


def kick_tables(tables: PropagatorTables, forcing: np.ndarray) -> np.ndarray:
    """S(t) applied to the second-component injection (0, forcing)."""
    out = np.empty(forcing.shape[:-2] + (2,) + forcing.shape[-2:],
                   dtype=np.result_type(forcing, tables.m12))
    np.multiply(tables.m12, forcing, out=out[..., 0, :, :])
    np.multiply(tables.m22, forcing, out=out[..., 1, :, :])
    return out


def default_time_grid(t_star: float = 40.0, dt_grid: float = 0.25) -> np.ndarray:
    return np.arange(0.0, t_star + 0.5 * dt_grid, dt_grid)


@lru_cache(maxsize=64)
def grid_tables(N: int, t_star: float, dt_grid: float):
    """The time grid and its S(t) tables stacked to shape (G, K, K); each
    slice is the cached ``propagator_tables(N, t)`` of that grid time."""
    grid = read_only(default_time_grid(t_star, dt_grid))
    if grid.size == 0:
        raise ValueError(f"empty time grid (t_star = {t_star})")
    per_t = [propagator_tables(N, float(t)) for t in grid]
    return grid, PropagatorTables(*(read_only(np.stack(m)) for m in zip(*per_t)))


def weighted_sup_norm(pair: np.ndarray, alpha: float, p: float,
                      t_star: float = 40.0, dt_grid: float = 0.25,
                      pad: float = 2.0, return_detail: bool = False):
    """sup_t e^{t/8} ||S(t) v||_{W^{alpha,p} x W^{alpha-1,p}}.

    Grid maximum over [0, t_star] plus the certified tail bound for
    t > t_star; monotone under grid refinement only up to the L^p
    quadrature error of ``pad``.  The value of a path does not depend on
    the batch it is evaluated in.  Needs p >= 2: grid times that provably
    cannot raise the maximum are skipped (module docstring), and the result
    equals the unpruned evaluation bit for bit.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("weighted sup norm needs 0 < alpha < 1")
    if not p >= 2.0:
        raise ValueError(f"weighted sup norm needs p >= 2, got {p}")
    if not dt_grid > 0.0:
        raise ValueError(f"dt_grid must be > 0, got {dt_grid}")
    N = truncation_of(pair)
    K = lattice_size(N)
    grid, tables = grid_tables(N, float(t_star), float(dt_grid))
    paths = int(np.prod(pair.shape[:-3]))
    # grid times per chunk, at 16 bytes per complex sample
    g = max(1, CHUNK_BYTES // max(1, paths * quad_grid_size(N, pad) ** 2 * 16))
    # the grid axis sits just before the component axis of the pair
    lifted = pair[..., None, :, :, :]
    best = np.zeros(pair.shape[:-3])
    for start in range(0, grid.size, g):
        sl = slice(start, start + g)
        evolved = apply_tables(PropagatorTables(*(m[sl] for m in tables)), lifted)
        weight = np.exp(grid[sl] / 8.0)
        # Plancherel bound B(t) on the quadrature values, with slack for
        # round-off; NaN compares false, so it never prunes
        bound = (1.0 + 1e-9) * K * weight * hnorm(evolved, alpha)
        if not np.all(bound <= best[..., None]):
            val = weight * pair_norm(evolved, alpha, p, pad)
            best = np.maximum(best, np.max(val, axis=-1))
        # the tail bound at the chunk's last time covers every later grid time
        if np.all(DECAY_CONST * bound[..., -1] <= best):
            break
    end = apply_S(pair, float(t_star))
    tail = DECAY_CONST * K * np.exp(t_star / 8.0) * hnorm(end, alpha)
    total = np.maximum(best, tail)
    if return_detail:
        return total, {"grid_max": best, "tail_bound": tail}
    return total


def xalpha_norm(pair: np.ndarray, alpha: float, t_star: float = 40.0,
                dt_grid: float = 0.25, pad: float = 2.0,
                return_detail: bool = False):
    """The well-posedness norm: weighted_sup_norm at p = 2/alpha."""
    return weighted_sup_norm(pair, alpha, 2.0 / alpha, t_star, dt_grid, pad,
                             return_detail)


def semigroup_defect(pair: np.ndarray, t1: float, t2: float) -> float:
    """Relative error ||S(t1)S(t2)v - S(t1+t2)v|| / ||v|| in H^1."""
    a = apply_S(apply_S(pair, t2), t1)
    b = apply_S(pair, t1 + t2)
    return float(np.max(hnorm(a - b) / hnorm(pair)))


def determinant_defect(N: int, t: float) -> float:
    """max_n |det S_n(t) - e^{-t}| over the lattice."""
    tab = propagator_tables(N, t)
    det = tab.m11 * tab.m22 - tab.m12 * tab.m21
    return float(np.max(np.abs(det - np.exp(-t))))


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
    return utt + ut + (1.0 + spectral.grad2_table(N)) * u0


def wave_residual_ratios(pair: np.ndarray, t: float, hs) -> list:
    """Successive L^2-residual ratios over the dyadic h values (~4 = O(h^2))."""
    res = [float(np.max(spectral.l2_norm(wave_residual_field(pair, t, h))))
           for h in hs]
    return [res[i] / res[i + 1] for i in range(len(res) - 1)]
