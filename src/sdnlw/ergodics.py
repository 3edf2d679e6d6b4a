"""Time-averaged observables, ensemble statistics, and the two-initial-data
convergence experiment.

``compare_starts`` (behind ``sdnlw ergodic`` and criterion 10) steps its
two starts in lockstep on the same seeds: one white-noise increment and
one stochastic convolution per step serve both (synchronous coupling), as
does, under the midpoint integrator, one half-step stochastic convolution;
with coupling options a coupling record toward the second start carries
the first start's flow.  The seeds are split over one spawn process pool
sized by SDNLW_WORKERS; a path's numbers depend only on its seed and the
starts and join in seed order, so none depends on the worker count.  A
script calling it with SDNLW_WORKERS > 1 needs an ``if __name__ ==
"__main__":`` guard, or the pool fails at once with ``BrokenProcessPool``.

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
from .dynamics import FlowState, _midpoint_stick, flow_init, full_flow, next_increment, \
    v_step
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


def register_observable(name: str, fn) -> None:
    """Add a named functional ``fn(pair, cfg)`` of the full state to the
    observables a config may list."""
    _REGISTRY[name] = fn


def get_observable(name: str):
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown observable {name!r}; "
                       f"known: {sorted(_REGISTRY)}") from None


def _observable_fns(names) -> dict:
    """The registered functional of each name; a ConfigError naming
    ``observables`` for a name not registered."""
    try:
        return {name: get_observable(name) for name in names}
    except KeyError as exc:
        raise ConfigError(f"observables: {exc.args[0]}") from None


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


def _sample_starts(cfg: SimConfig, starts: tuple, seeds, T: float | None,
                   observables: tuple | None = None,
                   coupled: tuple | None = None) -> list:
    """Run one (batched) trajectory per start in lockstep on the same seeds
    (module docstring) and sample observables on the cadence; a start's
    numbers equal its own run's bit for bit (the same lineage), and a
    blow-up of any start stops the run.  Returns one {"series", "state"} per
    start, as ``sample_trajectory``; with ``coupled = (opts, n, every)`` the
    first run's "coupled_dn" series holds d_n of the coupled pair per path
    every ``every`` steps.
    """
    T = cfg.T if T is None else T
    names = observables if observables is not None else cfg.observables
    fns = _observable_fns(names)
    n_steps = steps(T, cfg.dt, "T")
    every = steps(cfg.obs_interval, cfg.dt, "obs_interval")
    steps(T, cfg.obs_interval, "T")
    batch = () if seeds is None or np.isscalar(seeds) else (len(seeds),)
    states = [flow_init(cfg, u0, seed=seeds, batch=batch) for u0 in starts]
    if coupled is not None:
        opts, dn_n, dn_every = coupled
        rec = coupling_init(cfg, *starts, opts, seed=seeds, batch=batch)
        states[0] = rec.flow
        dn_times, dn_vals = [0.0], [coupling_distance(rec, dn_n)]
    times = [0.0]
    values = [{name: [np.asarray(fn(full_flow(state), cfg))] for name, fn in fns.items()}
              for state in states]
    midpoint = cfg.integrator == "midpoint" and not cfg.linear_only
    for k in range(n_steps):
        incr = next_increment(states[0])
        stick = noise_mod.stick_step_shared(states[0].stick, cfg.dt, incr)
        half = _midpoint_stick(states[0].stick, cfg.dt, incr) if midpoint else None
        if coupled is None:
            states = [v_step(state, incr, stick=stick, half_stick=half)
                      for state in states]
        else:
            rec = coupling_step(rec, incr, stick=stick, half_stick=half)
            states = [rec.flow, v_step(states[1], incr, stick=stick, half_stick=half)]
            if (k + 1) % dn_every == 0:
                dn_times.append(stick.t)
                dn_vals.append(coupling_distance(rec, dn_n))
        if (k + 1) % every == 0:
            times.append(stick.t)
            for state, vals in zip(states, values):
                phi = full_flow(state)
                for name, fn in fns.items():
                    vals[name].append(np.asarray(fn(phi, cfg)))
    runs = [{"series": {name: ObservableSeries(name, np.array(times), np.stack(v))
                        for name, v in vals.items()},
             "state": state}
            for state, vals in zip(states, values)]
    if coupled is not None:
        runs[0]["coupled_dn"] = ObservableSeries("coupled_dn", np.array(dn_times),
                                                 np.stack(dn_vals))
    return runs


def sample_trajectory(cfg: SimConfig, u0=None, seeds=None, T: float | None = None,
                      observables: tuple | None = None) -> dict:
    """Run one (batched) trajectory and sample observables on the cadence.

    T and obs_interval must be multiples of dt, and T of obs_interval (a
    ConfigError before any step otherwise).  Returns
    {"series": {name: ObservableSeries}, "state": final FlowState}.
    """
    return _sample_starts(cfg, (u0,), seeds, T, observables)[0]


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


def _averages_worker(payload) -> tuple:
    """Per-trajectory averages over [T/4, T] of every start, and the
    coupled d_n series (None when uncoupled), for one seed chunk."""
    cfg, starts, T, seeds, coupled = payload
    runs = _sample_starts(cfg, starts, seeds, T, coupled=coupled)
    return ([time_averages(run["series"], 0.25 * T, T) for run in runs],
            runs[0].get("coupled_dn"))


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


def compare_starts(cfg: SimConfig, u1_0, u2_0, T: float, seeds,
                   coupling_opts: CouplingOptions | None = None,
                   dn_n: int = 1, dn_every: float = 2.0) -> dict:
    """Ensembles from two starts on the same seeds, stepped in lockstep
    (module docstring): for each observable of cfg, |avg1 - avg2| of the
    per-trajectory time averages over [T/4, T] against their combined
    standard error.  With ``coupling_opts``, "coupled_dn" holds the seed
    mean of d_n of the coupled pair every ``dn_every``, which must be > 0
    and divide T (a ConfigError before any step otherwise).
    """
    seeds = list(seeds)
    if len(seeds) < 2:  # the across-seed standard error needs two
        raise ValueError(f"seeds: need at least 2 for a standard error, got {len(seeds)}")
    names = tuple(cfg.observables)
    _observable_fns(names)  # refuse an unknown name before any worker starts
    coupled = None
    if coupling_opts is not None:
        if not dn_every > 0:
            raise ConfigError(f"dn_every: must be > 0, got {dn_every}")
        steps(T, dn_every, "dn_every")
        coupled = (coupling_opts, dn_n, steps(dn_every, cfg.dt, "dn_every"))
    workers = worker_count()
    payloads = [(cfg, (u1_0, u2_0), T, chunk, coupled)
                for chunk in _chunk(seeds, workers)]
    if workers == 1:
        results = [_averages_worker(p) for p in payloads]
    else:  # imported here so that in-process runs do not pay for it
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
        with ProcessPoolExecutor(len(payloads), mp_context=get_context("spawn")) as pool:
            results = list(pool.map(_averages_worker, payloads))
    avg1, avg2 = ({name: np.concatenate([avgs[i][name] for avgs, _ in results])
                   for name in names} for i in range(2))
    report = {"observables": {name: compare_averages(avg1[name], avg2[name])
                              for name in names},
              "seeds": tuple(seeds), "T": T}
    if coupled is not None:
        # one 1-d array of all seeds per time, so the chunking moves no bit
        per_path = np.concatenate([dn.values for _, dn in results], axis=1)
        dn_vals = [float(np.mean(row)) for row in per_path]
        report["coupled_dn"] = {"times": results[0][1].times, "values": np.array(dn_vals),
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
