"""Fourier-lattice fields on the 2-torus T^2 = [0,1]^2.

Conventions
-----------
A real scalar field is represented by its Fourier coefficients on the
square lattice n = (n1, n2) in [-N, N]^2,

    f(x) = sum_n fhat(n) exp(2*pi*i n.x),

stored as a complex array of shape (..., K, K) with K = 2N+1 and layout
``coeffs[..., a, b] = fhat(a - N, b - N)`` (centered layout).  Realness of
the field is the Hermitian symmetry fhat(-n) = conj(fhat(n)).  Leading
axes are free batch dimensions; every routine below broadcasts over them.

Phase-space points (u, u_t) are stored as arrays of shape (..., 2, K, K);
axis -3 indexes the component.

The Japanese bracket is <x> = (3/4 + |x|^2)^{1/2}, so the multiplier
<grad>^sigma acts per mode as omega_n^sigma with

    omega_n = (3/4 + |2*pi*n|^2)^{1/2}.

With this choice the damped wave characteristic roots are -1/2 +- i*omega_n.

Sobolev norms: ||f||_{W^{a,p}} = ||<grad>^a f||_{L^p}; the pair norm is
||(u,ut)||^p = ||<grad>^a u||_p^p + ||<grad>^{a-1} ut||_p^p.  For p = 2 the
norm is the exact Plancherel sum; otherwise it is physical-grid quadrature
on a grid zero-padded by the factor 2 (``quad_grid_size``: at least
2(2N+1) points a side), spectrally accurate for trigonometric polynomials
and exact whenever p is an even integer small enough for the padded grid
to resolve |g|^p.

Quadrature samples at most CHUNK_BYTES worth of paths at a time (at 16
bytes per grid point, and at least one path): a batch whose M x M samples
exceed it is transformed and reduced a block of paths at a time into a
preallocated result, so the transient memory of a norm does not grow with
the batch.  A path's c2r samples and
their mean over the grid do not depend on the rows beside it, so the
blocks give the values of one whole-batch evaluation bit for bit, and a
batch that fits in one block is evaluated whole.  Powers of per-path
values use np.power and np.square, never ``**``: at batch () that would
call libm pow on numpy scalars, which can differ in the last bit from the
array kernel a batch uses, so a lone path gets its row's value.

Pointwise products are always dealiased: factors are zero-padded to a grid
large enough that no aliased frequency can land back inside the requested
output square, so the returned coefficients are the exact convolution.

All functions are pure; arrays are never mutated in place.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

try:  # scipy's pocketfft is noticeably faster on small batched transforms
    from scipy import fft as _fft
except ImportError:  # pragma: no cover
    from numpy import fft as _fft

# budget for the physical-grid samples one quadrature block, or one X^alpha
# chunk, holds at a time (module docstring; propagator)
CHUNK_BYTES = 256 * 1024


class ResolutionError(ValueError):
    """Physical grid too small to represent or dealias the requested modes."""


def truncation_of(coeffs: np.ndarray) -> int:
    """Lattice truncation N inferred from the trailing axes (K = 2N+1)."""
    K = coeffs.shape[-1]
    if coeffs.shape[-2] != K or K % 2 != 1:
        raise ValueError(f"expected trailing (K, K) with K odd, got {coeffs.shape}")
    return (K - 1) // 2


def lattice_size(N: int) -> int:
    return 2 * N + 1


def read_only(arr: np.ndarray) -> np.ndarray:
    """Mark an array immutable: a cached table that every caller shares,
    or an array a state owns."""
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=None)
def mode_range(N: int) -> np.ndarray:
    return read_only(np.arange(-N, N + 1))


@lru_cache(maxsize=None)
def omega_table(N: int) -> np.ndarray:
    """omega_n = (3/4 + |2 pi n|^2)^{1/2} on the (K, K) lattice."""
    n = mode_range(N).astype(float)
    n1, n2 = np.meshgrid(n, n, indexing="ij")
    return read_only(np.sqrt(0.75 + (2.0 * np.pi) ** 2 * (n1**2 + n2**2)))


@lru_cache(maxsize=None)
def grad2_table(N: int) -> np.ndarray:
    """|2 pi n|^2 on the lattice (the symbol of -Laplacian)."""
    n = mode_range(N).astype(float)
    n1, n2 = np.meshgrid(n, n, indexing="ij")
    return read_only((2.0 * np.pi) ** 2 * (n1**2 + n2**2))


def fast_grid_size(m: int) -> int:
    """Smallest 5-smooth integer >= m (keeps pocketfft on fast paths)."""
    m = int(m)
    if m <= 1:
        return 1

    def smooth(k: int) -> bool:
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        return k == 1

    k = m
    while not smooth(k):
        k += 1
    return k


# ---------------------------------------------------------------------------
# construction / symmetry


def zero_field(N: int, batch: tuple = ()) -> np.ndarray:
    return np.zeros(batch + (lattice_size(N), lattice_size(N)), dtype=np.complex128)


def zero_pair(N: int, batch: tuple = ()) -> np.ndarray:
    return np.zeros(batch + (2, lattice_size(N), lattice_size(N)), dtype=np.complex128)


def reflect(coeffs: np.ndarray) -> np.ndarray:
    """The map fhat(n) -> fhat(-n) in centered layout."""
    return coeffs[..., ::-1, ::-1]


def hermitize(coeffs: np.ndarray) -> np.ndarray:
    """Project onto Hermitian-symmetric (real-field) coefficients."""
    return 0.5 * (coeffs + np.conj(reflect(coeffs)))


def random_field(N: int, rng: np.random.Generator, decay: float = 1.0,
                 batch: tuple = ()) -> np.ndarray:
    """Random Hermitian field with coefficients ~ omega^{-decay} * gaussian."""
    K = lattice_size(N)
    z = rng.standard_normal(batch + (K, K)) + 1j * rng.standard_normal(batch + (K, K))
    return hermitize(z * omega_table(N) ** (-decay))


def random_pair(N: int, rng: np.random.Generator, decay: float = 1.0,
                batch: tuple = ()) -> np.ndarray:
    u = random_field(N, rng, decay, batch)
    # velocity component one derivative rougher, as in H^a x H^{a-1}
    ut = random_field(N, rng, decay - 1.0, batch)
    return np.stack([u, ut], axis=-3)


def gaussian_bump_pair(N: int, amplitude: float = 1.0) -> np.ndarray:
    """Smooth even bump (u, 0): uhat(n) = amplitude * exp(-|n|^2 / 8)."""
    n = mode_range(N).astype(float)
    n1, n2 = np.meshgrid(n, n, indexing="ij")
    u = amplitude * np.exp(-(n1**2 + n2**2) / 8.0).astype(np.complex128)
    pair = zero_pair(N)
    pair[0] = u
    return pair


# ---------------------------------------------------------------------------
# projections and multipliers


def project_leq(coeffs: np.ndarray, J: int) -> np.ndarray:
    """Sharp projection onto max_j |n_j| <= J; J = -1 gives the zero field."""
    if J < -1:
        raise ValueError("projection cutoff must be >= -1")
    N = truncation_of(coeffs)
    if J >= N:
        return coeffs.copy()
    out = np.zeros_like(coeffs)
    if J >= 0:
        sl = slice(N - J, N + J + 1)
        out[..., sl, sl] = coeffs[..., sl, sl]
    return out


@lru_cache(maxsize=None)
def bracket_table(N: int, sigma: float) -> np.ndarray:
    """omega_n^sigma on the (K, K) lattice, the symbol of <grad>^sigma."""
    return read_only(omega_table(N) ** sigma)


def bracket_multiplier(coeffs: np.ndarray, sigma: float) -> np.ndarray:
    """Apply <grad>^sigma, i.e. scale mode n by omega_n^sigma."""
    if sigma == 0.0:
        return coeffs.copy()
    return coeffs * bracket_table(truncation_of(coeffs), sigma)


# ---------------------------------------------------------------------------
# transforms


def to_physical(coeffs: np.ndarray, M: int) -> np.ndarray:
    """Evaluate a real (Hermitian-symmetric) field on the M x M grid x_j = j/M.

    Requires M >= 2N+1 so the truncated field is exactly representable.
    The half-spectrum transform uses only the columns n2 >= 0; for
    non-Hermitian input this evaluates the Hermitian (real) part, the same
    field the full complex transform would yield after taking real parts.
    """
    N = truncation_of(coeffs)
    if M < lattice_size(N):
        raise ResolutionError(f"physical grid M={M} < 2N+1={lattice_size(N)}")
    # centered mode n goes to FFT bin n mod M: n1 >= 0 to rows 0..N, n1 < 0
    # to rows M-N..M-1
    half = np.zeros(coeffs.shape[:-2] + (M, M // 2 + 1), dtype=np.complex128)
    half[..., :N + 1, :N + 1] = coeffs[..., N:, N:]
    half[..., M - N:, :N + 1] = coeffs[..., :N, N:]
    # f(x_j) = sum_n c(n) e^{2 pi i n.j/M} is the unnormalized inverse; the
    # column pass runs on the N+1 nonzero columns only
    half[..., :N + 1] = _fft.ifft(half[..., :N + 1], axis=-2, norm="forward")
    return _fft.irfft(half, n=M, axis=-1, norm="forward")


def to_spectral(phys: np.ndarray, N: int) -> np.ndarray:
    """Inverse of to_physical: exact coefficients of a band-limited sample set."""
    M = phys.shape[-1]
    if phys.shape[-2] != M:
        raise ValueError("physical array must be square in the trailing axes")
    if M < lattice_size(N):
        raise ResolutionError(f"physical grid M={M} < 2N+1={lattice_size(N)}")
    # rfft2 in its own axis order, the column pass on the kept columns only
    half = _fft.rfft(np.asarray(phys, dtype=np.float64), axis=-1)[..., :N + 1]
    half = _fft.fft(half, axis=-2)
    half /= M * M
    out = np.empty(phys.shape[:-2] + (lattice_size(N),) * 2, dtype=np.complex128)
    out[..., N:, N:] = half[..., :N + 1, :]
    out[..., :N, N:] = half[..., M - N:, :]
    # negative columns from Hermitian symmetry c(n) = conj(c(-n))
    np.conjugate(half[..., N::-1, N:0:-1], out=out[..., :N + 1, :N])
    np.conjugate(half[..., M - 1:M - N - 1:-1, N:0:-1], out=out[..., N + 1:, :N])
    return out


def fft2(w: np.ndarray) -> np.ndarray:
    """numpy.fft.fft2(w) bit for bit, on this module's FFT backend: complex
    passes over the last axis, then the one before, as numpy orders them."""
    return _fft.fft(_fft.fft(w.astype(np.complex128), axis=-1), axis=-2)


# ---------------------------------------------------------------------------
# dealiased products


def product_grid_size(degree: int, out_N: int) -> int:
    """Smallest padded grid on which modes <= out_N of a degree-`degree`
    trigonometric product are alias-free: M >= degree + out_N + 1."""
    return fast_grid_size(max(degree + out_N + 1, 2 * out_N + 1))


def dealiased_product(*factors: np.ndarray, out_N: int | None = None) -> np.ndarray:
    """Exact spectral coefficients of the pointwise product of the factors.

    The result is restricted to the square [-out_N, out_N]^2; by default
    out_N is the full product degree (sum of the factor truncations), so
    nothing is lost.  Factors may live on different truncations; broadcast
    batch shapes are allowed.  Repeated factor objects (powers) are
    transformed once.
    """
    if not factors:
        raise ValueError("need at least one factor")
    Ns = [truncation_of(f) for f in factors]
    degree = sum(Ns)
    out_N = degree if out_N is None else min(out_N, degree)
    M = product_grid_size(degree, out_N)
    phys_cache: dict[int, np.ndarray] = {}
    prod = None
    for f in factors:
        ph = phys_cache.get(id(f))
        if ph is None:
            ph = to_physical(f, M)
            phys_cache[id(f)] = ph
        prod = ph if prod is None else prod * ph
    return to_spectral(prod, out_N)


# ---------------------------------------------------------------------------
# norms and integrals


def quad_grid_size(N: int) -> int:
    return fast_grid_size(2 * lattice_size(N))


def _quadrature_blocks(coeffs: np.ndarray, M: int, reduce) -> tuple:
    """``reduce(to_physical(coeffs, M))`` a block of paths at a time.

    ``reduce`` maps samples of shape (rows, M, M) to a tuple of per-row
    arrays of shape (rows,); each comes back with the batch shape of
    ``coeffs``.  A batch within CHUNK_BYTES goes through ``reduce`` whole
    (module docstring).
    """
    batch = coeffs.shape[:-2]
    paths = math.prod(batch)  # np.prod costs a batch-1 norm about 10%
    rows = max(1, CHUNK_BYTES // (M * M * 16))
    if paths <= rows:
        return reduce(to_physical(coeffs, M))
    flat = coeffs.reshape((paths,) + coeffs.shape[-2:])
    out = None
    for start in range(0, paths, rows):
        sl = slice(start, start + rows)
        vals = reduce(to_physical(flat[sl], M))
        if out is None:
            out = tuple(np.empty(paths, dtype=v.dtype) for v in vals)
        for o, v in zip(out, vals):
            o[sl] = v
    return tuple(o.reshape(batch) for o in out)


def lp_norm(coeffs: np.ndarray, p: float) -> np.ndarray:
    """L^p(T^2) norm by padded quadrature (p=2 via Plancherel), in path
    blocks of CHUNK_BYTES (module docstring)."""
    if p == 2.0:
        return np.sqrt(mean_square(coeffs))
    if p < 1.0:
        raise ValueError("p must be >= 1")
    M = quad_grid_size(truncation_of(coeffs))

    def norm(phys):
        return (np.power(np.mean(np.abs(phys) ** p, axis=(-2, -1)), 1.0 / p),)

    return _quadrature_blocks(coeffs, M, norm)[0]


def sobolev_norm(coeffs: np.ndarray, alpha: float, p: float = 2.0) -> np.ndarray:
    """W^{alpha,p} norm, ||<grad>^alpha f||_{L^p}."""
    return lp_norm(bracket_multiplier(coeffs, alpha), p)


def pair_norm(pair: np.ndarray, alpha: float, p: float = 2.0) -> np.ndarray:
    """W^{alpha,p} x W^{alpha-1,p} norm of a phase-space pair."""
    a = sobolev_norm(pair[..., 0, :, :], alpha, p)
    b = sobolev_norm(pair[..., 1, :, :], alpha - 1.0, p)
    if p == 2.0:
        return np.sqrt(np.square(a) + np.square(b))
    return np.power(np.power(a, p) + np.power(b, p), 1.0 / p)


def hnorm(pair: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """The H^alpha = W^{alpha,2} x W^{alpha-1,2} pair norm (exact Plancherel)."""
    return pair_norm(pair, alpha, 2.0)


def l2_inner(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Real L^2(T^2) pairing of two (real) fields via Plancherel."""
    N = max(truncation_of(f), truncation_of(g))
    f, g = resize(f, N), resize(g, N)
    return np.sum(f * np.conj(g), axis=(-2, -1)).real


def resize(coeffs: np.ndarray, N_out: int) -> np.ndarray:
    """Pad with zero modes or crop to lattice size N_out (cropping drops the
    outside modes); at N_out = N the input itself."""
    N = truncation_of(coeffs)
    if N_out == N:
        return coeffs
    if N_out < N:
        sl = slice(N - N_out, N + N_out + 1)
        return np.ascontiguousarray(coeffs[..., sl, sl])
    out = zero_field(N_out, coeffs.shape[:-2])
    sl = slice(N_out - N, N_out + N + 1)
    out[..., sl, sl] = coeffs
    return out


def integral(coeffs: np.ndarray) -> np.ndarray:
    """Integral over T^2 = the zero-mode coefficient, as an owned real array
    (a copy, not a view that would keep ``coeffs`` alive)."""
    N = truncation_of(coeffs)
    return coeffs[..., N, N].real.copy()


def mean_square(coeffs: np.ndarray) -> np.ndarray:
    """integral of f^2 (exact, Plancherel)."""
    return np.sum(np.abs(coeffs) ** 2, axis=(-2, -1))
