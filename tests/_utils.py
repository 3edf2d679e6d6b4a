"""Shared test helpers: deterministic fields and fixed-noise-path runners."""

import numpy as np

from sdnlw.noise import NoiseIncrement, sample_increment
from sdnlw.propagator import DECAY_CONST, apply_S, default_time_grid
from sdnlw.spectral import hnorm, lattice_size, pair_norm, truncation_of, \
    zero_field, zero_pair


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
