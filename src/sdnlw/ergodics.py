"""Time-averaged observables, ensemble statistics, and the two-initial-data
convergence experiment.

``compare_starts`` (behind ``sdnlw ergodic`` and ``two_start_convergence``)
splits its seeds over one spawn process pool sized by SDNLW_WORKERS.  A
path's averages depend only on its seed and join in seed order, so no number
depends on the worker count.  A script calling it with SDNLW_WORKERS > 1
needs an ``if __name__ == "__main__":`` guard, or the pool fails at once
with ``BrokenProcessPool``.

Birkhoff averages (1/T) int_0^T F(Phi_t) dt are computed by the trapezoid
rule over the stored sampling times.  Error bars use the integrated
autocorrelation time with automatic windowing (smallest window W with
W >= c tau_int, c = 5), so standard errors reflect the effective sample
size rather than the raw sample count.

When the cubic term is disabled the flow is an exactly solvable Gaussian
system whose per-mode stationary covariance is known in closed form
(noise.stationary_covariance); ``linear_moment_report`` pits the whole
averaging pipeline against that law.

The Hoelder-type norm of the tightness argument is replaced throughout by
the computable exponentially weighted sup with p = 16, labelled "Z-proxy".
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import coupling as coupling_mod
from . import noise as noise_mod
from .config import ConfigError, SimConfig, steps
from .coupling import CouplingOptions, coupling_distance, coupling_init, coupling_step
from .dynamics import FlowState, flow_init, full_flow, v_step
from .propagator import weighted_sup_norm
from .spectral import dealiased_product, hnorm, integral, mean_square, pair_norm

Z_PROXY_P = 16.0


# ---------------------------------------------------------------------------
# observables


def _mean_u(pair, cfg):
    return integral(pair[..., 0, :, :])


def _mean_u2(pair, cfg):
    return mean_square(pair[..., 0, :, :])


def _mean_u4(pair, cfg):
    u = pair[..., 0, :, :]
    return mean_square(dealiased_product(u, u))


def _clipped_halpha(pair, cfg):
    return np.minimum(1.0, pair_norm(pair, cfg.alpha, 2.0))


def _dn_to_ref(pair, cfg):
    """d_1 to the zero state."""
    return coupling_mod.d_n(pair, np.zeros_like(pair), 1, cfg.alpha, cfg.M_pad)


_REGISTRY = {
    "mean_u": _mean_u,
    "mean_u2": _mean_u2,
    "mean_u4": _mean_u4,
    "clipped_halpha": _clipped_halpha,
    "dn_to_ref": _dn_to_ref,
}


def observable_registry() -> dict:
    """Named functionals ``fn(pair, cfg)`` of the full state; extend with
    register_observable."""
    return dict(_REGISTRY)


def register_observable(name: str, fn) -> None:
    _REGISTRY[name] = fn


def get_observable(name: str):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown observable {name!r}; "
                       f"known: {sorted(_REGISTRY)}") from None


@dataclass
class ObservableSeries:
    """Sampled values of one observable along one trajectory (or batch)."""

    name: str
    times: np.ndarray
    values: np.ndarray  # shape (n_times,) + batch


# ---------------------------------------------------------------------------
# autocorrelation-aware error bars


def autocorr_time(x: np.ndarray) -> float:
    """Integrated autocorrelation time, windowed at the smallest W >= 5 tau."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return 1.0
    y = x - x.mean()
    var = np.mean(y * y)
    if var == 0:
        return 1.0
    # FFT autocovariance
    m = 1
    while m < 2 * n:
        m *= 2
    f = np.fft.rfft(y, m)
    acov = np.fft.irfft(f * np.conj(f), m)[:n].real / np.arange(n, 0, -1)
    rho = acov / acov[0]
    tau = 1.0
    for w in range(1, n):
        tau = 1.0 + 2.0 * np.sum(rho[1:w + 1])
        if w >= 5.0 * tau:
            break
    return max(tau, 1.0)


def mean_with_error(x: np.ndarray) -> tuple[float, float, float]:
    """(mean, stderr, tau_int) of a correlated scalar series."""
    x = np.asarray(x, dtype=float)
    tau = autocorr_time(x)
    n_eff = max(x.size / (2.0 * tau), 1.0)
    return float(x.mean()), float(x.std(ddof=1) / np.sqrt(n_eff)), float(tau)


def ensemble_summary(series: dict, burn: float) -> dict:
    """Pooled mean/variance/autocorrelation time/standard error per
    observable; the standard error uses the effective sample size from the
    windowed autocorrelation estimate."""
    out = {}
    for name, s in series.items():
        mask = s.times >= burn - 1e-12
        vals = s.values[mask]
        if vals.ndim == 1:
            vals = vals[:, None]
        per = [mean_with_error(vals[:, j]) for j in range(vals.shape[1])]
        errs = np.array([p[1] for p in per])
        taus = np.array([p[2] for p in per])
        out[name] = {
            "mean": float(np.mean([p[0] for p in per])),
            "var": float(vals.var(ddof=1)),
            "act": float(taus.mean()),
            "stderr": float(np.sqrt(np.sum(errs**2)) / len(per)),
            "n_eff": float(np.sum(vals.shape[0] / (2.0 * taus))),
        }
    return out


# ---------------------------------------------------------------------------
# trajectory sampling


def sample_trajectory(cfg: SimConfig, u0=None, seeds=None, T: float | None = None,
                      observables: tuple | None = None) -> dict:
    """Run one (batched) trajectory and sample observables on the cadence.

    T and obs_interval must be multiples of dt, and T of obs_interval (a
    ConfigError before any step otherwise).  Returns
    {"series": {name: ObservableSeries}, "state": final FlowState}.
    """
    T = cfg.T if T is None else T
    names = observables if observables is not None else cfg.observables
    fns = {name: get_observable(name) for name in names}
    n_steps = steps(T, cfg.dt, "T")
    every = steps(cfg.obs_interval, cfg.dt, "obs_interval")
    steps(T, cfg.obs_interval, "T")
    batch = () if seeds is None or np.isscalar(seeds) else (len(seeds),)
    state = flow_init(cfg, u0, seed=seeds, batch=batch)
    times = [0.0]
    values = {name: [np.asarray(fn(full_flow(state), cfg))] for name, fn in fns.items()}
    for k in range(n_steps):
        state = v_step(state)
        if (k + 1) % every == 0:
            times.append(state.t)
            phi = full_flow(state)
            for name, fn in fns.items():
                values[name].append(np.asarray(fn(phi, cfg)))
    series = {name: ObservableSeries(name, np.array(times), np.stack(vals))
              for name, vals in values.items()}
    return {"series": series, "state": state}


def time_averages(series: dict, burn: float, T: float) -> dict:
    """Per-trajectory time averages (1/(T - burn)) int_burn^T F dt, by
    trapezoid over the stored sample times, for each observable."""
    out = {}
    for name, s in series.items():
        if T > s.times[-1] + 1e-12:
            raise ValueError(f"T = {T} lies beyond the stored horizon {s.times[-1]}")
        mask = (s.times >= burn - 1e-12) & (s.times <= T + 1e-12)
        t = s.times[mask]
        v = s.values[mask]
        out[name] = np.trapezoid(v, t, axis=0) / (t[-1] - t[0])
    return out


def worker_count() -> int:
    """Worker processes for the two-start ensembles: SDNLW_WORKERS, default 1."""
    raw = os.environ.get("SDNLW_WORKERS", "1")
    if not (raw.strip().isdecimal() and int(raw) >= 1):
        raise ConfigError(f"SDNLW_WORKERS: expected a positive integer, got {raw!r}")
    return int(raw)


def _chunk(seq: list, k: int) -> list:
    k = max(1, min(k, len(seq)))
    size = (len(seq) + k - 1) // k
    return [seq[i: i + size] for i in range(0, len(seq), size)]


def _averages_worker(payload) -> dict:
    cfg, u0, T, seeds = payload
    run = sample_trajectory(cfg, u0, seeds, T)
    return time_averages(run["series"], 0.25 * T, T)


# ---------------------------------------------------------------------------
# experiments


def compare_averages(a1, a2) -> dict:
    """Difference of two ensembles' mean time averages against three
    combined standard errors of the across-seed scatter."""
    a1, a2 = np.asarray(a1), np.asarray(a2)
    se = float(np.hypot(a1.std(ddof=1), a2.std(ddof=1)) / np.sqrt(len(a1)))
    diff = float(a1.mean() - a2.mean())
    return {"avg1": float(a1.mean()), "avg2": float(a2.mean()), "diff": diff,
            "combined_se": se, "within_3se": abs(diff) <= 3.0 * se or se == 0.0}


def compare_starts(cfg: SimConfig, u1_0, u2_0, T: float, seeds) -> dict:
    """Independent ensembles from two starts on the same seeds: for each
    observable of cfg, |avg1 - avg2| of the per-trajectory time averages
    over [T/4, T] against their combined standard error.

    Both starts' seed chunks go to one pool of ``worker_count()`` processes;
    with one worker each start runs in-process as one batch.
    """
    seeds = list(seeds)
    if len(seeds) < 2:  # the across-seed standard error needs two
        raise ValueError(f"seeds: need at least 2 for a standard error, got {len(seeds)}")
    names = tuple(cfg.observables)
    workers = worker_count()
    chunks = _chunk(seeds, workers)
    payloads = [(cfg, u0, T, chunk) for u0 in (u1_0, u2_0) for chunk in chunks]
    if workers == 1:
        results = [_averages_worker(p) for p in payloads]
    else:  # imported here so that in-process runs do not pay for it
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        with ProcessPoolExecutor(min(workers, len(payloads)),
                                 mp_context=get_context("spawn")) as pool:
            results = list(pool.map(_averages_worker, payloads))
    avg1, avg2 = ({name: np.concatenate([r[name] for r in part]) for name in names}
                  for part in (results[:len(chunks)], results[len(chunks):]))
    return {"observables": {name: compare_averages(avg1[name], avg2[name])
                            for name in names},
            "seeds": tuple(seeds), "T": T}


def two_start_convergence(cfg: SimConfig, u1_0, u2_0, T: float, seeds,
                          coupling_opts: CouplingOptions | None = None,
                          dn_n: int = 1, dn_every: float = 2.0) -> dict:
    """``compare_starts`` plus the empirical coupled d_n series from the
    Girsanov-shift construction run on the same seeds."""
    seeds = list(seeds)
    n_steps = steps(T, cfg.dt, "T")
    every = max(steps(dn_every, cfg.dt, "dn_every"), 1)
    report = compare_starts(cfg, u1_0, u2_0, T, seeds)
    # coupled d_n bound from the shift construction, same seeds
    opts = coupling_opts or CouplingOptions(eps_every=10)
    rec = coupling_init(cfg, u1_0, u2_0, opts, seed=seeds, batch=(len(seeds),))
    dn_times, dn_vals = [0.0], [float(np.mean(coupling_distance(rec, dn_n)))]
    for k in range(n_steps):
        rec = coupling_step(rec)
        if (k + 1) % every == 0:
            dn_times.append(rec.t)
            dn_vals.append(float(np.mean(coupling_distance(rec, dn_n))))
    report["coupled_dn"] = {"times": np.array(dn_times), "values": np.array(dn_vals),
                            "n": dn_n, "final": dn_vals[-1]}
    return report


def krylov_bogolyubov_diagnostic(cfg: SimConfig, radii, n_samples: int,
                                 t_sample: float, seed: int = 0) -> dict:
    """Tightness table: fraction of samples with
    |stick|_{Z-proxy} + |v|_{H^{1+alpha}} > R, against the O(1/R) shape."""
    seeds = [seed + j for j in range(n_samples)]
    run = sample_trajectory(cfg, None, seeds, t_sample, ())
    state: FlowState = run["state"]
    z = weighted_sup_norm(state.stick.value, cfg.alpha, Z_PROXY_P, pad=cfg.M_pad)
    vnorm = hnorm(state.v, 1.0 + cfg.alpha)
    size = z + vnorm
    radii = np.asarray(sorted(radii), dtype=float)
    fractions = np.array([float(np.mean(size > r)) for r in radii])
    return {"radii": radii, "fractions": fractions,
            "fraction_times_R": fractions * radii, "sizes": size}


def linear_moment_report(N: int, s: float, T: float, dt_sample: float = 0.25,
                         seed: int = 0, n_paths: int = 4) -> dict:
    """Exact-oracle check of the averaging pipeline on the linear flow.

    Time-averages the per-mode second moments of an exactly sampled stick
    trajectory and compares with the closed-form stationary covariance;
    sigma is the windowed-autocorrelation standard error, pooled over the
    independent paths.
    """
    n_steps = steps(T, dt_sample, "T")
    state = noise_mod.stick_init(N, s, [seed + j for j in range(n_paths)],
                                 (n_paths,))
    K = 2 * N + 1
    mom_u = np.empty((n_steps, n_paths, K, K))
    mom_ut = np.empty((n_steps, n_paths, K, K))
    for k in range(n_steps):
        state = noise_mod.stick_step_exact(state, dt_sample)
        mom_u[k] = np.abs(state.value[:, 0]) ** 2
        mom_ut[k] = np.abs(state.value[:, 1]) ** 2
    stat = noise_mod.stationary_covariance(N, s)

    def pooled(mom):
        mean = np.zeros((K, K))
        se = np.zeros((K, K))
        for a in range(K):
            for b in range(K):
                per = [mean_with_error(mom[:, j, a, b]) for j in range(n_paths)]
                means = np.array([p[0] for p in per])
                errs = np.array([p[1] for p in per])
                mean[a, b] = means.mean()
                se[a, b] = np.sqrt(np.sum(errs**2)) / n_paths
        return mean, se

    mu_u, se_u = pooled(mom_u)
    mu_ut, se_ut = pooled(mom_ut)
    dev_u = np.abs(mu_u - stat[..., 0, 0]) / se_u
    dev_ut = np.abs(mu_ut - stat[..., 1, 1]) / se_ut
    return {"mean_u": mu_u, "se_u": se_u, "mean_ut": mu_ut, "se_ut": se_ut,
            "stationary_u": stat[..., 0, 0], "stationary_ut": stat[..., 1, 1],
            "max_dev_sigma": float(max(dev_u.max(), dev_ut.max()))}
