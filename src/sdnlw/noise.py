"""Discrete space-time white noise and exact stepping of the stochastic
convolution for the damped wave equation.

White noise on T^2 has per-mode Wiener increments with

    E[dxi(n)] = 0,   E[|dxi(n)|^2] = dt,   dxi(-n) = conj(dxi(n)),

and the zero mode real.  A single step of length delta is sampled by taking
K^2 iid standard normals W on the K x K grid and setting
xihat = fft2(W) * sqrt(delta)/K, which gives exactly the Hermitian law above
with independent modes.

The stochastic convolution driven by sqrt(2) <grad>^{-s} xi through the
second component satisfies, per mode and over a step of length delta,

    value <- S_n(delta) value + eta_n,
    Cov(eta_n) = Sigma_n(delta)
               = 2 omega^{-2s} int_0^delta e^{-r} m(r) m(r)^T dr,
    m(r) = ( sin(r w)/w,  cos(r w) - sin(r w)/(2 w) )^T,  w = omega_n,

which is evaluated here in closed form from the antiderivatives of
e^{-r} sin^2(wr), e^{-r} sin(wr) cos(wr), e^{-r} cos^2(wr).  delta = inf
gives the stationary covariance, diag(omega^{-2s}/(1+|2 pi n|^2), omega^{-2s}).

Two stepping regimes:

* ``stick_step_exact`` draws eta_n with the exact covariance (exact in law
  for any step size);
* ``stick_step_shared`` uses the order-1 consistent update
  eta_n = S_n(delta) (0, sqrt(2) omega^{-s} xihat_n), required when the
  nonlinear flow must be driven by the same white-noise realization.

Every run steps the shared stick.  Its kick has covariance Q = delta f^2 k k^T,
f = sqrt(2) omega^{-s} and k = S(delta) (0, 1), so its law after n steps from
zero is C_n = S C_{n-1} S^T + Q (``shared_covariance``).  The stationary C_delta
reads low in the velocity variance by about delta, and far off where
sin(omega delta) ~ 0, where the kick almost misses u.

Randomness is counter-based (Philox) keyed by (seed, step, block), so any
step of any path can be regenerated without replaying history and results
are independent of scheduling; each step consumes disjoint blocks.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import lru_cache

import numpy as np

from . import spectral
from .propagator import T_STAR, apply_tables, kick_tables, propagator_tables
from .spectral import bracket_table, lattice_size, omega_table, read_only, zero_pair

# The random stream every draw comes from; a change to any field changes
# emitted numbers and bumps the version.
RNG_STREAM = {"bit_generator": "Philox4x64-10", "normals": "ziggurat",
              "counter": "(seed, step, block)", "version": 1}

# block indices within one step of one path
BLOCK_WHITE = 0        # shared white-noise increment
BLOCK_EXACT_A = 1      # exact-law stick sampling
BLOCK_EXACT_B = 2


# One reusable Philox per thread whose (key, counter) is reset per draw:
# bit-identical to constructing a fresh generator, at a fraction of the call
# overhead.  Any thread may draw any row, since the stream is keyed by
# (seed, step, block) alone and each thread resets its own template; a
# split coupling step still draws its noise on the calling thread, before
# the split (drawing in the blocks gained nothing measurable).  The
# template's state dict holds Python ints (lists for counter, key and
# buffer), which the ``Philox.state`` setter reads faster than numpy
# scalars; a draw rewrites the counter and key in place and assigns the
# dict back.
# buffer_pos = 4 marks the output buffer empty, so its contents are unused.
class _Template(threading.local):
    def __init__(self):
        self.philox = np.random.Philox(key=0)
        self.gen = np.random.Generator(self.philox)
        state = self.philox.state
        self.counter = state["state"]["counter"].tolist()
        self.key = state["state"]["key"].tolist()
        state["state"] = {"counter": self.counter, "key": self.key}
        state["buffer"] = state["buffer"].tolist()
        self.state = state


_TEMPLATE = _Template()
_KEY_MASK = 2**64 - 1


def _check_seeds(seed) -> None:
    """Refuse a seed that is not an integer (a bool, a float or a str is
    not), or one outside [-2**63, 2**63): the stream's key is the seed mod
    2**64, so such a seed would repeat another seed's stream.  An array of
    signed integers fits by its dtype and is not walked one by one; any
    other input is walked as Python objects, so numpy cannot round it."""
    if isinstance(seed, np.ndarray) and seed.dtype.kind == "i":
        return
    for one in np.asarray(seed, dtype=object).ravel():
        if isinstance(one, bool) or not isinstance(one, (int, np.integer)):
            raise ValueError(f"seed {one!r} is not an integer")
        if not -2**63 <= int(one) < 2**63:
            raise ValueError(f"seed {int(one)} lies outside [-2**63, 2**63)")


def _batched_normals(seed, step: int, block: int, shape: tuple) -> np.ndarray:
    """Standard normals from the counter-based stream (seed, step, block),
    each seed's drawn into its row of one array; a 1-d sequence of n seeds
    gives a batch (n,), a scalar seed a batch of one whose row is returned."""
    _check_seeds(seed)
    if np.ndim(seed) > 1:
        raise ValueError(f"seed of shape {np.shape(seed)}: a draw takes a scalar "
                         "seed or a 1-d sequence of seeds")
    t = _TEMPLATE
    philox, gen, state, key = t.philox, t.gen, t.state, t.key
    t.counter[2:] = (int(block), int(step))
    seeds = np.asarray(seed).ravel().tolist()
    out = np.empty((len(seeds),) + tuple(shape))
    for s, row in zip(seeds, out):
        key[0] = int(s) & _KEY_MASK
        philox.state = state
        gen.standard_normal(shape, out=row)
    return out[0] if np.isscalar(seed) else out


@lru_cache(maxsize=None)
def _forcing_table(N: int, s: float) -> np.ndarray:
    """sqrt(2) omega^{-s}, the per-mode weight of the shared kick."""
    return read_only(np.sqrt(2.0) * bracket_table(N, -s))


def unit_hermitian(N: int, seed, step: int, block: int) -> np.ndarray:
    """Hermitian complex field with independent modes, E|z(n)|^2 = 1."""
    K = lattice_size(N)
    w = _batched_normals(seed, step, block, (K, K))
    # FFT bin layout -> centered mode layout (odd K)
    z = spectral.fft2(w)
    z /= K
    return np.fft.fftshift(z, axes=(-2, -1))


# The path axis of a state's array field, declared on the field and nowhere else
PER_PATH = {"rows": "path"}    # one row per path, path axis first
PER_DATUM = {"rows": "datum"}  # the data's batch, the paths' only for one datum a path


def map_rows(fn, batch: tuple, state, *parts, memo: dict | None = None):
    """``state`` with ``fn`` of each declared array field that carries the
    path axis of ``batch``, through its nested states.  With ``parts`` laid
    out like ``state``, ``fn`` also takes their fields and the first part is
    rebuilt.  A sub-state is mapped once (``memo``, by id, may preset one)."""
    memo = {} if memo is None else memo
    if id(state) not in memo:
        new = {}
        for f in fields(state):
            val, got = getattr(state, f.name), [getattr(p, f.name) for p in parts]
            rows = f.metadata.get("rows")
            if is_dataclass(val):
                new[f.name] = map_rows(fn, batch, val, *got, memo=memo)
            elif rows == "path" or rows == "datum" and val.shape[:-3] == batch:
                new[f.name] = fn(val, *got)
        base = parts[0] if parts else state
        memo[id(state)] = replace(base, **new) if new else base
    return memo[id(state)]


class OwnArrays:
    """Base of the states, which own their arrays (constructors copy the
    caller's): the declared ndarray fields are read-only once built."""

    def __post_init__(self):
        for f in fields(self):
            if "rows" in f.metadata and isinstance(val := getattr(self, f.name), np.ndarray):
                read_only(val)


@dataclass(frozen=True)
class NoiseIncrement:
    """One step's worth of per-mode Wiener increments, E|xihat(n)|^2 = delta."""

    coeffs: np.ndarray = field(metadata=PER_PATH)
    delta: float


def sample_increment(N: int, delta: float, seed, step: int = 0) -> NoiseIncrement:
    if not 0 < delta < np.inf:  # NaN fails too
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    z = unit_hermitian(N, seed, step, BLOCK_WHITE)
    return NoiseIncrement(np.sqrt(delta) * z, float(delta))


# ---------------------------------------------------------------------------
# step covariance, closed form


def step_covariance(omega, delta: float, s: float) -> np.ndarray:
    """Sigma(delta) for each omega; shape omega.shape + (2, 2).

    ``delta=np.inf`` returns the stationary covariance.
    """
    if not delta > 0:  # NaN and -inf fail too
        raise ValueError(f"delta must be > 0, got {delta}")
    w = np.asarray(omega, dtype=float)
    b = 2.0 * w
    denom = 1.0 + b**2
    if np.isinf(delta):
        i0 = 1.0
        c2 = 1.0 / denom
        s2 = b / denom
    else:
        e = np.exp(-delta)
        cb = np.cos(b * delta)
        sb = np.sin(b * delta)
        i0 = 1.0 - e
        c2 = (1.0 - e * cb + b * e * sb) / denom
        s2 = (b - b * e * cb - e * sb) / denom
    iss = 0.5 * (i0 - c2)
    isc = 0.5 * s2
    icc = 0.5 * (i0 + c2)
    pref = 2.0 * w ** (-2.0 * s)
    s11 = pref * iss / w**2
    s12 = pref * (isc / w - iss / (2.0 * w**2))
    s22 = pref * (icc - isc / w + iss / (4.0 * w**2))
    out = np.empty(w.shape + (2, 2))
    out[..., 0, 0] = s11
    out[..., 0, 1] = s12
    out[..., 1, 0] = s12
    out[..., 1, 1] = s22
    return out


def lattice_covariance(N: int, delta: float, s: float) -> np.ndarray:
    """Sigma(delta) tabulated over the (K, K) lattice."""
    return step_covariance(omega_table(N), delta, s)


def stationary_covariance(N: int, s: float) -> np.ndarray:
    return lattice_covariance(N, np.inf, s)


def shared_covariance(N: int, s: float, dt: float, n: int) -> np.ndarray:
    """Covariance of the shared stick after n steps of dt from zero, over
    the (K, K) lattice (module docstring); n = ceil(T_STAR / dt) gives the
    stationary law to float resolution, as S(T_STAR) ~ e^{-T_STAR/2}."""
    tab = propagator_tables(N, float(dt))
    S = np.moveaxis(np.reshape(tab, (2, 2) + tab.m11.shape), (0, 1), (-2, -1))
    k = S[..., :, 1]
    q = dt * _forcing_table(N, s)[..., None, None] ** 2 * k[..., :, None] * k[..., None, :]
    cov = np.zeros_like(q)
    for _ in range(n):
        cov = S @ cov @ np.swapaxes(S, -1, -2) + q
    return cov


def cholesky2(cov: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a field of symmetric PSD 2x2 matrices."""
    s11 = np.maximum(cov[..., 0, 0], 0.0)
    l11 = np.sqrt(s11)
    safe = np.where(l11 > 0.0, l11, 1.0)
    l21 = np.where(l11 > 0.0, cov[..., 0, 1] / safe, 0.0)
    l22 = np.sqrt(np.maximum(cov[..., 1, 1] - l21**2, 0.0))
    return l11, l21, l22


# ---------------------------------------------------------------------------
# stochastic convolution state


@dataclass(frozen=True)
class StickState(OwnArrays):
    """Value of the stochastic convolution together with its RNG lineage.

    ``seed`` is an int for a single path or a 1-d int64 array for a batch
    of independent paths (leading axis of ``value``).
    """

    N: int
    s: float
    value: np.ndarray = field(metadata=PER_PATH)  # (..., 2, K, K)
    step: int
    seed: object = field(metadata=PER_PATH)

    @property
    def batch(self) -> tuple:
        return self.value.shape[:-3]


def stick_init(N: int, s: float, seed, batch: tuple = ()) -> StickState:
    """The stochastic convolution starts from the zero pair.  Each path
    needs its own stream: a scalar seed takes batch (), a 1-d sequence of
    seeds batch (len(seed),), and an empty sequence is refused.  A seed is
    a signed 64-bit integer, the stream's key; one outside [-2**63, 2**63)
    is refused here and on every draw (``_check_seeds``)."""
    batch = tuple(batch)
    if np.shape(seed) != batch or np.ndim(seed) != (0 if np.isscalar(seed) else 1):
        raise ValueError(f"seed of shape {np.shape(seed)} does not match batch "
                         f"{batch}: a scalar seed needs batch (), a 1-d "
                         "sequence of n seeds batch (n,)")
    if batch == (0,):
        raise ValueError("seed: an empty sequence of seeds gives no path")
    _check_seeds(seed)
    seed = np.array(seed, dtype=np.int64) if batch else seed  # not the caller's
    return StickState(N, s, zero_pair(N, batch), 0, seed)


def stick_step_exact(state: StickState, delta: float) -> StickState:
    """Advance by delta drawing the exact Gaussian step law."""
    if not 0 < delta < np.inf:  # NaN fails too
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    tab = propagator_tables(state.N, float(delta))
    value = apply_tables(tab, state.value) \
        + sample_stick_at(state.N, state.s, delta, state.seed, state.step)
    return replace(state, value=value, step=state.step + 1)


def stick_step_shared(state: StickState, delta: float,
                      incr: NoiseIncrement) -> StickState:
    """Advance by delta driven by an explicit white-noise increment, drawn
    for this delta: the order-1 kick S(delta) (0, sqrt(2) <grad>^{-s} xihat).
    """
    if not 0 < delta < np.inf:  # NaN fails too
        raise ValueError(f"delta must be finite and > 0, got {delta}")
    if incr.delta != delta:
        raise ValueError(f"increment delta {incr.delta} differs from step delta {delta}")
    forcing = _forcing_table(state.N, state.s) * incr.coeffs
    tab = propagator_tables(state.N, float(delta))
    value = apply_tables(tab, state.value) + kick_tables(tab, forcing)
    return replace(state, value=value, step=state.step + 1)


def sample_stick_at(N: int, s: float, t: float, seed, step: int = 0) -> np.ndarray:
    """One exact draw of the stick value at time t (started from zero); a
    sequence of seeds gives a batch."""
    l11, l21, l22 = cholesky2(lattice_covariance(N, t, s))
    z1 = unit_hermitian(N, seed, step, BLOCK_EXACT_A)
    z2 = unit_hermitian(N, seed, step, BLOCK_EXACT_B)
    return np.stack([l11 * z1, l21 * z1 + l22 * z2], axis=-3)


# ---------------------------------------------------------------------------
# diagnostics


REPORT_STEPS = 20


def shared_moment_report(N: int, s: float, dt: float, n_samples: int, seed: int) -> dict:
    """Per-mode moments of n_samples sticks (seeds seed, seed + 1, ...)
    stepped REPORT_STEPS times by ``stick_step_shared`` from zero: a mode is
    flagged when E|u|^2, E|u_t|^2 or E Re(u conj(u_t)) (the last axis of
    "mean") lies 5 standard errors off its exact law, ``shared_covariance``
    ("law").  C_delta's relative gap to Sigma(inf) in the u and u_t
    variances ("stationary_gap") is for information."""
    if n_samples < 2:
        raise ValueError(f"samples: a standard error needs 2 sticks or more, got {n_samples}")
    st = stick_init(N, s, [seed + j for j in range(n_samples)], (n_samples,))
    for _ in range(REPORT_STEPS):
        st = stick_step_shared(st, dt, sample_increment(N, dt, st.seed, st.step))
    u, ut = st.value[:, 0], st.value[:, 1]
    moments = np.stack([np.abs(u) ** 2, np.abs(ut) ** 2, (u * ut.conj()).real], axis=-1)
    mean, se = moments.mean(axis=0), moments.std(axis=0, ddof=1) / np.sqrt(n_samples)
    law = shared_covariance(N, s, dt, REPORT_STEPS)[..., [0, 1, 0], [0, 1, 1]]
    stat = shared_covariance(N, s, dt, int(np.ceil(T_STAR / dt)))[..., [0, 1], [0, 1]]
    gap = stat / stationary_covariance(N, s)[..., [0, 1], [0, 1]] - 1.0
    return {"steps": REPORT_STEPS, "mean": mean, "se": se, "law": law,
            "flags": np.any(np.abs(mean - law) > 5.0 * se, axis=-1),
            "stationary_gap": gap}
