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

evaluated on a time grid over [0, T_STAR] plus a certified tail bound for
t > T_STAR,

    2.8 (2N+1) e^{T_STAR/8} ||S(T_STAR) v||_{H^alpha},

from two facts about fields with (2N+1)^2 Fourier modes ghat_n:

  (i)  max_x |g(x)| <= sum_n |ghat_n| <= (2N+1) ||ghat||_2 (Cauchy-Schwarz),
       and (a^p + b^p)^{1/p} <= (a^2 + b^2)^{1/2} for p >= 2;
  (ii) the H^alpha-conjugated mode matrices D_n S_n(t) D_n^{-1}, with
       D_n = diag(omega_n^alpha, omega_n^{alpha-1}), have 2-norm
       <= 2.8 e^{-t/2} (DECAY_CONST; numerically the max over n and
       t in [0, 40] of e^{t/2} ||D_n S_n(t) D_n^{-1}||_2 is 1.77).

Most grid times cannot raise the maximum, and the evaluation skips them
with a mode-sum certificate.  Let z_n = D_n (S(t) v)_n in C^2, |z_n| its
Euclidean norm, and

    W(t) = e^{t/8} (sum_{n2=0} |z_n| + 2 sum_{n2>0} |z_n|)   for p > 2,
    W(t) = e^{t/8} sum_n |z_n|                               for p = 2.

  1. W(t) bounds the weighted value.  For p > 2 the c2r in
     spectral.to_physical reads only the columns n2 >= 0, so every sample
     of a component, and with it its L^p quadrature, is at most
     sum_{n2=0} |c_n| + 2 sum_{n2>0} |c_n|; at p = 2 the value is the
     full-lattice Plancherel sum, at most sum_n |c_n|.  For p >= 2
     (a^p + b^p)^{1/p} <= (a^2 + b^2)^{1/2}, and Minkowski's inequality in
     R^2 puts the pair of component sums below the sum of |z_n|.  Each sum
     reads what its quadrature reads, so non-Hermitian input is covered
     too, and a field with modes only in columns n2 < 0, which samples to
     zero, is bounded by zero at p > 2.
  2. The tail stop holds.  Fact (ii) applies per mode, so for t' >= t
     W(t') <= 2.8 e^{-3(t'-t)/8} W(t) <= 2.8 W(t).
  3. It never prunes less than the Plancherel bound (2N+1) e^{t/8}
     ||S(t) v||_{H^alpha}: for a real field the two sums agree and
     W(t) = e^{t/8} sum_n |z_n|, which Cauchy-Schwarz puts below it.
  4. Skipping is exact.  A (path, time) entry whose W(t), times 1 + 1e-9
     for round-off, is at most that path's running max cannot raise it;
     NaN fails every comparison, so it never prunes and propagates as
     without pruning.

The grid is walked in chunks of grid times, with the chunk sized so that
the physical-grid samples of all paths stay within spectral.CHUNK_BYTES
(when one grid time of all paths exceeds it, the quadrature splits the
gathered rows into path blocks of that budget).  Per chunk
S(t) v and W(t) come from the tables without any transform; only the
(path, time) entries that W cannot exclude are gathered and go through
the transform and quadrature, row by row as in a batched single-time
evaluation.  A path's value therefore does not depend on the batch, and
neither does its cost beyond the chunk length, which the batch size sets.
The loop stops once 2.8 W at the chunk's last time is at most the running
max of every path, which covers every later grid time.  The maximum, and
with it the returned value, is bit-identical to evaluating every grid
time; only the cost depends on the data (the weighted norm decays like
e^{-3t/8}, so the max is usually reached and certified within the first
few time units).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import spectral
from .spectral import (
    bracket_table,
    hnorm,
    lattice_size,
    mode_range,
    omega_table,
    pair_norm,
    quad_grid_size,
    read_only,
    truncation_of,
)

# rigorous Frobenius bound on the H^beta-conjugated mode matrices, see module docstring
DECAY_CONST = 2.8
# end of the X^alpha time grid; later times are covered by the tail bound
T_STAR = 40.0


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
    if not 0 <= t < math.inf:  # NaN fails too
        raise ValueError(f"t must be finite and >= 0, got {t}")
    tables = _tables_from_omega(omega_table(N), float(t))
    return PropagatorTables(*map(read_only, tables))


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


def default_time_grid(t_star: float = T_STAR, dt_grid: float = 0.25) -> np.ndarray:
    return np.arange(0.0, t_star + 0.5 * dt_grid, dt_grid)


@lru_cache(maxsize=64)
def grid_tables(N: int, dt_grid: float):
    """The time grid over [0, T_STAR] and its S(t) tables stacked to shape
    (G, K, K), each slice the cached ``propagator_tables(N, t)`` of its time."""
    grid = read_only(default_time_grid(T_STAR, dt_grid))
    per_t = [propagator_tables(N, float(t)) for t in grid]
    return grid, PropagatorTables(*(read_only(np.stack(m)) for m in zip(*per_t)))


@lru_cache(maxsize=None)
def _half_spectrum_weights(N: int) -> np.ndarray:
    """How often the c2r counts each column n2: 0 for n2 < 0, 1 for n2 = 0
    and 2 for n2 > 0."""
    n = mode_range(N)
    return read_only((n >= 0) + (n > 0) * 1.0)


def mode_sum_bound(evolved: np.ndarray, alpha: float, p: float) -> np.ndarray:
    """e^{-t/8} W(t) of the module docstring: an upper bound on the
    W^{alpha,p} x W^{alpha-1,p} pair norm at this p >= 2."""
    N = truncation_of(evolved)
    sq = evolved.real ** 2 + evolved.imag ** 2
    sq[..., 0, :, :] *= bracket_table(N, 2.0 * alpha)
    sq[..., 1, :, :] *= bracket_table(N, 2.0 * alpha - 2.0)
    cols = np.sum(np.sqrt(sq[..., 0, :, :] + sq[..., 1, :, :]), axis=-2)
    if p == 2.0:
        return np.sum(cols, axis=-1)
    return cols @ _half_spectrum_weights(N)


def weighted_sup_norm(pair: np.ndarray, alpha: float, p: float, *,
                      dt_grid: float = 0.25) -> np.ndarray:
    """sup_t e^{t/8} ||S(t) v||_{W^{alpha,p} x W^{alpha-1,p}}.

    Grid maximum over [0, T_STAR] plus the certified tail bound for
    t > T_STAR; monotone under grid refinement only up to the L^p
    quadrature error on the grid ``spectral.quad_grid_size`` (padding
    factor 2).  The value of a path does not depend on the batch it is
    evaluated in.  Needs p >= 2: grid times that provably cannot raise the
    maximum are skipped (module docstring), and the result equals the
    unpruned evaluation bit for bit.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("weighted sup norm needs 0 < alpha < 1")
    if not p >= 2.0:
        raise ValueError(f"weighted sup norm needs p >= 2, got {p}")
    if not 0.0 < dt_grid < np.inf:
        raise ValueError(f"dt_grid must be finite and > 0, got {dt_grid}")
    N = truncation_of(pair)
    K = lattice_size(N)
    grid, tables = grid_tables(N, float(dt_grid))
    paths = math.prod(pair.shape[:-3])  # np.prod costs a batch-1 norm about 10%
    # grid times per chunk, at 16 bytes per complex sample
    per_time = paths * quad_grid_size(N) ** 2 * 16
    g = max(1, spectral.CHUNK_BYTES // max(1, per_time))
    # the grid axis sits just before the component axis of the pair
    lifted = pair[..., None, :, :, :]
    best = np.zeros(pair.shape[:-3])
    for start in range(0, grid.size, g):
        sl = slice(start, start + g)
        evolved = apply_tables(PropagatorTables(*(m[sl] for m in tables)), lifted)
        weight = np.broadcast_to(np.exp(grid[sl] / 8.0), evolved.shape[:-3])
        # slack for round-off; NaN compares false, so it never prunes
        bound = (1.0 + 1e-9) * weight * mode_sum_bound(evolved, alpha, p)
        need = ~(bound <= best[..., None])
        if need.any():
            val = np.zeros(need.shape)
            val[need] = weight[need] * pair_norm(evolved[need], alpha, p)
            best = np.maximum(best, np.max(val, axis=-1))
        # the tail bound at the chunk's last time covers every later grid time
        if np.all(DECAY_CONST * bound[..., -1] <= best):
            break
    end = apply_S(pair, T_STAR)
    tail = DECAY_CONST * K * np.exp(T_STAR / 8.0) * hnorm(end, alpha)
    return np.maximum(best, tail)


def xalpha_norm(pair: np.ndarray, alpha: float, *, dt_grid: float = 0.25) -> np.ndarray:
    """The well-posedness norm: weighted_sup_norm at p = 2/alpha."""
    return weighted_sup_norm(pair, alpha, 2.0 / alpha, dt_grid=dt_grid)


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
