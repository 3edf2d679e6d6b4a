"""Shared test helpers: deterministic fields, fixed-noise-path runners, the
FFT backend switch, and the oracles the package's fast routes are checked
against (the fancy-index 2-d transforms, the fresh-generator fft2 noise
route, the one-time-per-pass sup norm, the expanded-coefficient
nonlinearity, the standalone Girsanov density)."""

import importlib
from contextlib import contextmanager

import numpy as np
import pytest

from sdnlw import spectral
from sdnlw.noise import NoiseIncrement, sample_increment
from sdnlw.propagator import DECAY_CONST, apply_S, default_time_grid
from sdnlw.spectral import dealiased_product, hnorm, lattice_size, mode_range, \
    pair_norm, project_leq, resize, truncation_of, zero_field, zero_pair


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
