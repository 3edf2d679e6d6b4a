"""Time-averaged observables, ensemble statistics, and the two-initial-data
convergence experiment.

``compare_starts`` (behind ``sdnlw ergodic`` and criterion 10) steps its
two starts in lockstep on the same seeds and one stick object: one
``dynamics.step_noise`` per step, the white-noise increment with the
stochastic convolution advanced by it, serves both (synchronous
coupling); with coupling options a coupling
record toward the second start carries the first start's flow.  Every
seed runs in-process as one batch per start, and a path's numbers depend
only on its seed and the starts.

Birkhoff averages (1/T) int_0^T F(Phi_t) dt are computed by the trapezoid
rule over the stored sampling times.  Error bars use the integrated
autocorrelation time with automatic windowing (smallest window W with
W >= c tau_int, c = 5), so standard errors reflect the effective sample
size rather than the raw sample count.  ``autocorr_time`` and
``mean_with_error`` take the series along axis 0 of an array of any
trailing shape and give each series the numbers it gets alone, bit for bit.

The stochastic convolution alone (the stick, the flow's linear part with
zero data) is an exactly solvable Gaussian system whose per-mode
stationary covariance is known in closed form
(noise.stationary_covariance); ``linear_moment_report`` steps the stick
exactly in law and pits the whole averaging pipeline against that law.

The Hoelder-type norm of the tightness argument is replaced throughout by
the computable exponentially weighted sup with p = 16, labelled "Z-proxy".
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import coupling as coupling_mod
from . import noise as noise_mod
from .config import ConfigError, SimConfig, steps
from .coupling import CouplingOptions, coupling_distance, coupling_init, coupling_step
from .dynamics import flow_init, full_flow, run_steps, step_noise, v_step
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
    return coupling_mod.d_n(pair, 1, cfg.alpha)


# the observables a config may list, read when a run starts
_REGISTRY = {
    "mean_u": _mean_u,
    "mean_u2": _mean_u2,
    "mean_u4": _mean_u4,
    "clipped_halpha": _clipped_halpha,
    "dn_to_ref": _dn_to_ref,
}


def _observable_fns(names) -> dict:
    """The functional of each name; a ConfigError naming ``observables``
    for a name not in the table."""
    try:
        return {name: _REGISTRY[name] for name in names}
    except KeyError as exc:
        raise ConfigError(f"observables: unknown observable {exc.args[0]!r}; "
                          f"known: {sorted(_REGISTRY)}") from None


# ---------------------------------------------------------------------------
# autocorrelation-aware error bars


def autocorr_time(x: np.ndarray) -> np.ndarray:
    """Integrated autocorrelation time tau = 1 + 2 sum_{k<=W} rho_k of each
    series along axis 0 (a 0-d array for a 1-d series), windowed at the
    smallest W >= 5 tau_W, or at W = n - 1 when none is; 1 for a series of
    under four samples or a constant one, NaN for one holding a NaN."""
    x = np.ascontiguousarray(np.moveaxis(np.asarray(x, dtype=float), 0, -1))
    n = x.shape[-1]
    if n < 4:
        return np.ones(x.shape[:-1])
    y = x - x.mean(axis=-1, keepdims=True)
    constant = np.mean(y * y, axis=-1) == 0
    m = 1 << (2 * n - 1).bit_length()  # FFT autocovariance, zero-padded
    f = np.fft.rfft(y, m, axis=-1)
    acov = np.fft.irfft(f * np.conj(f), m, axis=-1)[..., :n].real / np.arange(n, 0, -1)
    with np.errstate(invalid="ignore"):  # 0 / 0 on a constant series
        tau_w = 1.0 + 2.0 * np.cumsum(acov[..., 1:] / acov[..., :1], axis=-1)
    hit = np.arange(1, n) >= 5.0 * tau_w
    w = np.where(hit.any(axis=-1), hit.argmax(axis=-1), n - 2)
    tau = np.take_along_axis(tau_w, w[..., None], axis=-1)[..., 0]
    return np.where(constant, 1.0, np.maximum(tau, 1.0))


def _effective_size(n: int, tau: np.ndarray) -> np.ndarray:
    """Effective sample size n / tau_int, at least 1 (tau_int = 1 + 2 sum rho)."""
    return np.maximum(n / tau, 1.0)


def mean_with_error(x: np.ndarray) -> tuple:
    """(mean, stderr, tau_int) of each correlated series along axis 0, which
    must hold two or more samples; each series gets the numbers it gets
    alone, bit for bit, whatever stands beside it."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    if n < 2:
        raise ValueError(f"a series of {n} samples has no standard error")
    tau = autocorr_time(x)
    x = np.ascontiguousarray(np.moveaxis(x, 0, -1))
    se = x.std(axis=-1, ddof=1) / np.sqrt(_effective_size(n, tau))
    return x.mean(axis=-1), se, tau


def _window(times: np.ndarray, burn: float) -> np.ndarray:
    """The mask of the times in [burn, times[-1]], which must hold two samples."""
    mask = times >= burn - 1e-12
    if np.count_nonzero(mask) < 2:
        raise ValueError(f"the window [{burn}, {times[-1]}] holds under two samples")
    return mask


def _pooled(means: np.ndarray, errs: np.ndarray) -> tuple:
    """Mean of the per-path means along axis 0 and its standard error
    sqrt(sum se^2) / n."""
    return means.mean(axis=0), np.sqrt(np.sum(errs**2, axis=0)) / len(means)


def ensemble_summary(times: np.ndarray, series: dict, burn: float) -> dict:
    """Pooled mean/variance/autocorrelation time/standard error per
    observable over [burn, times[-1]]; the standard error uses the effective
    sample size from the windowed autocorrelation estimate."""
    mask = _window(times, burn)
    out = {}
    for name, values in series.items():
        vals = values[mask].reshape(np.count_nonzero(mask), -1)  # a column per path
        means, errs, taus = mean_with_error(vals)
        mean, stderr = _pooled(means, errs)
        out[name] = {
            "mean": float(mean),
            "var": float(vals.var(ddof=1)),
            "act": float(taus.mean()),
            "stderr": float(stderr),
            "n_eff": float(np.sum(_effective_size(len(vals), taus))),
        }
    return out


# ---------------------------------------------------------------------------
# trajectory sampling


def _sample_starts(cfg: SimConfig, starts: tuple, seeds,
                   coupled: tuple | None = None) -> list:
    """Run one (batched) trajectory per start to cfg.T in lockstep on the
    same seeds (module docstring) and sample cfg.observables on the
    cadence; a start's numbers equal its own run's bit for bit (the same
    lineage), and a blow-up of any start stops the run.  Returns one
    {"times", "series", "state"} per start, as ``sample_trajectory``; with
    ``coupled = (opts, n, every)`` the first start's flow is the one a
    coupling record toward the second carries, and the first run's
    "coupled_dn" pair (times, values) holds d_n of the coupled pair per
    path every ``every`` steps.

    Each series is one preallocated float64 buffer of shape
    (n_samples,) + batch that every sample is copied into, so no sampled
    state outlives its step.  A sample's time is its step x dt, the
    sampled state's ``t`` bit for bit.
    """
    fns = _observable_fns(cfg.observables)
    n_steps = steps(cfg.T, cfg.dt, "T")
    every = steps(cfg.obs_interval, cfg.dt, "obs_interval")
    steps(cfg.T, cfg.obs_interval, "T")  # the samples must land on T
    batch = () if seeds is None or np.isscalar(seeds) else (len(seeds),)
    if coupled is None:
        states = [flow_init(cfg, starts[0], seed=seeds, batch=batch)]
    else:
        opts, dn_n, dn_every = coupled
        rec = coupling_init(cfg, *starts, opts, seed=seeds, batch=batch)
        states = [rec.flow]
        dn_times = np.arange(0, n_steps + 1, dn_every) * cfg.dt
        dn_vals = np.empty(dn_times.shape + batch)
        dn_vals[0] = coupling_distance(rec, dn_n)
    # one stick object for every start, so one step_noise serves them all
    states += [replace(flow_init(cfg, u0, seed=seeds, batch=batch), stick=states[0].stick)
               for u0 in starts[1:]]
    times = np.arange(0, n_steps + 1, every) * cfg.dt
    values = [{name: np.empty(times.shape + batch) for name in fns} for _ in states]

    def sample(i, states):
        for state, vals in zip(states, values):
            phi = full_flow(state)
            for name, fn in fns.items():
                vals[name][i] = fn(phi, cfg)

    sample(0, states)
    for k in range(n_steps):
        noise = step_noise(states[0])
        if coupled is None:
            states = [v_step(state, noise) for state in states]
        else:
            rec = coupling_step(rec, noise)
            states = [rec.flow, v_step(states[1], noise)]
            if (k + 1) % dn_every == 0:
                dn_vals[(k + 1) // dn_every] = coupling_distance(rec, dn_n)
        if (k + 1) % every == 0:
            sample((k + 1) // every, states)
    runs = [{"times": times, "series": vals, "state": state}
            for state, vals in zip(states, values)]
    if coupled is not None:
        runs[0]["coupled_dn"] = (dn_times, dn_vals)
    return runs


def sample_trajectory(cfg: SimConfig, u0=None, seeds=None) -> dict:
    """Run one (batched) trajectory to cfg.T and sample cfg.observables on
    the cadence.

    T and obs_interval must be multiples of dt, and T of obs_interval (a
    ConfigError before any step otherwise).  Returns {"times": the sample
    times, "series": {name: float64 values of shape (samples,) + batch},
    "state": final FlowState}.
    """
    return _sample_starts(cfg, (u0,), seeds)[0]


def time_averages(times: np.ndarray, series: dict, burn: float) -> dict:
    """Per-trajectory time averages (1/(T - burn)) int_burn^T F dt to the stored
    horizon T = times[-1], by trapezoid over the sample times, per observable."""
    mask = _window(times, burn)
    t = times[mask]
    return {name: np.trapezoid(v[mask], t, axis=0) / (t[-1] - t[0])
            for name, v in series.items()}


def _check_window(cfg: SimConfig, T: float) -> None:
    """Refuse a run that samples no observable, or whose averaging window
    [T/4, T] holds under two samples."""
    if not cfg.observables:
        raise ConfigError("observables: the list is empty, so the run checks nothing")
    if steps(T, cfg.obs_interval, "T") < 2:
        raise ConfigError(f"T: the averaging window [T/4, T] of T = {T} holds fewer "
                          f"than two samples at obs_interval {cfg.obs_interval}")


# ---------------------------------------------------------------------------
# experiments


def compare_averages(a1, a2) -> dict:
    """Difference of two ensembles' mean time averages against three
    combined standard errors of the across-seed scatter; with zero scatter
    only equal averages are within."""
    a1, a2 = np.asarray(a1), np.asarray(a2)
    se = float(np.hypot(a1.std(ddof=1), a2.std(ddof=1)) / np.sqrt(len(a1)))
    diff = float(a1.mean() - a2.mean())
    return {"avg1": float(a1.mean()), "avg2": float(a2.mean()), "diff": diff,
            "combined_se": se, "within_3se": abs(diff) <= 3.0 * se}


def compare_starts(cfg: SimConfig, u1_0, u2_0, T: float, seeds,
                   coupling_opts: CouplingOptions | None = None,
                   dn_n: int = 1, dn_every: float = 2.0) -> dict:
    """Ensembles from two starts on the same seeds, stepped in lockstep
    (module docstring): for each observable of cfg, |avg1 - avg2| of the
    per-trajectory time averages over [T/4, T] against their combined
    standard error.  With ``coupling_opts``, "coupled_dn" holds the seed
    mean of d_n of the coupled pair every ``dn_every``, which must be > 0
    and divide T; the window must hold two samples (a ConfigError before
    any step otherwise), and the seeds two or more distinct ones.
    """
    seeds = list(seeds)
    if len(seeds) < 2:  # the across-seed standard error needs two
        raise ValueError(f"seeds: need at least 2 for a standard error, got {len(seeds)}")
    try:  # set(), not a numpy sort: the sort's first call adds 0.3 MB to peak RSS
        repeated = len(set(seeds)) < len(seeds)
    except TypeError:  # nested seeds, which the state's seed checks refuse
        repeated = False
    if repeated:  # repeated seeds run identical paths
        raise ValueError(f"seeds: must be distinct for a standard error, got {seeds}")
    steps(T, cfg.dt, "T")  # first, so a negative T is not reported as dn_every's span
    coupled = None
    if coupling_opts is not None:
        if not dn_every > 0:
            raise ConfigError(f"dn_every: must be > 0, got {dn_every}")
        steps(T, dn_every, "dn_every")
        coupled = (coupling_opts, dn_n, steps(dn_every, cfg.dt, "dn_every"))
    _check_window(cfg, T)
    runs = _sample_starts(replace(cfg, T=T), (u1_0, u2_0), seeds, coupled=coupled)
    avg1, avg2 = (time_averages(run["times"], run["series"], 0.25 * T) for run in runs)
    report = {"observables": {name: compare_averages(avg1[name], avg2[name])
                              for name in avg1},
              "seeds": tuple(seeds), "T": T}
    if coupled is not None:
        dn_times, dn = runs[0]["coupled_dn"]
        dn_means = dn.mean(axis=-1)
        report["coupled_dn"] = {"times": dn_times, "values": dn_means,
                                "n": dn_n, "final": float(dn_means[-1])}
    return report


def krylov_bogolyubov_diagnostic(cfg: SimConfig, radii, n_samples: int,
                                 t_sample: float, seed: int = 0) -> dict:
    """Tightness table: fraction of samples with
    |stick|_{Z-proxy} + |v|_{H^{1+alpha}} > R, against the O(1/R) shape."""
    seeds = [seed + j for j in range(n_samples)]
    state = run_steps(flow_init(cfg, seed=seeds, batch=(n_samples,)),
                      steps(t_sample, cfg.dt, "t_sample"))
    z = weighted_sup_norm(state.stick.value, cfg.alpha, Z_PROXY_P)
    vnorm = hnorm(state.v, 1.0 + cfg.alpha)
    size = z + vnorm
    radii = np.asarray(sorted(radii), dtype=float)
    fractions = np.mean(size > radii[:, None], axis=-1)
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
    mu_u, se_u = _pooled(*mean_with_error(mom_u)[:2])
    mu_ut, se_ut = _pooled(*mean_with_error(mom_ut)[:2])
    dev_u = np.abs(mu_u - stat[..., 0, 0]) / se_u
    dev_ut = np.abs(mu_ut - stat[..., 1, 1]) / se_ut
    return {"mean_u": mu_u, "se_u": se_u, "mean_ut": mu_ut, "se_ut": se_ut,
            "stationary_u": stat[..., 0, 0], "stationary_ut": stat[..., 1, 1],
            "max_dev_sigma": float(max(dev_u.max(), dev_ut.max()))}
