"""Layered benchmark of sdnlw: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads, metrics and bounds are listed in BENCHMARK.json at the root of
the checkout; perfbench/README.md says why each was chosen and how each
metric is estimated.

A run does a fixed amount of work, ``round(seconds / UNIT_S)`` units, on
program inputs generated from ``--seed``.  With ``--trace 0`` it measures
the end-to-end metrics with tracing off.  With ``--trace 1`` it runs half
that work, each unit once untraced and then again with a span around every
public function of the sdnlw modules, and reports the per-layer metrics,
the tracing overhead and whether both passes gave the same output digest.

Lines before the last describe the run (environment, digest, every metric
with its unit); the last line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A copy of the run record goes
to ``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
import zlib
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import common  # noqa: E402

# fresh-process set-up samples taken before and after the timed phase, so
# that one slow phase of the host does not set the estimate
SETUP_BEFORE, SETUP_AFTER = 4, 4
# a run stops issuing units once it has taken this many times --seconds
DEADLINE_FACTOR = 2.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def environment(args, units: int) -> dict:
    import numpy as np
    from sdnlw import spectral
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "workload": args.workload, "workload_seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "units": units,
        "cpu_count": os.cpu_count(), "nproc": common.nproc(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy_version,
        "fft_backend": spectral._fft.__name__,
        "SDNLW_WORKERS": os.environ["SDNLW_WORKERS"],
        "thread_caps": {v: os.environ[v] for v in common.THREAD_VARS},
    }


def setup_samples(name: str, workdir: Path, count: int) -> list[tuple]:
    """(set-up s, probe ms) of ``count`` fresh processes, so import-time and
    cached work is paid by every sample; each process times the probe
    right after its set-up."""
    samples = []
    for i in range(count):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), name, str(workdir / f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        setup_s, probe_ms = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(setup_s), float(probe_ms)))
    return samples


class StepTimer:
    """Start time and duration of every call of the outermost step function.

    On entry, before the call is timed, the wrapper lets ``probe`` run when
    it is due; ``marks`` holds the entry times, so the time between one
    call's start and the next call's mark excludes the probe.
    """

    def __init__(self, module: str, name: str, probe):
        from spans import rebind
        fn = getattr(sys.modules["sdnlw." + module], name)
        self.marks: list[float] = []
        self.starts: list[float] = []
        self.ms: list[float] = []
        marks, starts, ms, perf = self.marks, self.starts, self.ms, time.perf_counter

        @functools.wraps(fn)
        def timed(*a, **kw):
            mark = perf()
            probe.maybe()
            t0 = perf()
            out = fn(*a, **kw)
            ms.append((perf() - t0) * 1e3)
            marks.append(mark)
            starts.append(t0)
            return out
        self._undo = rebind(fn, timed)

    def uninstall(self) -> None:
        from spans import restore
        restore(self._undo)


def run_units(wl, seeds: list, deadline: float) -> tuple[list, list]:
    """Run the units in order; returns the (start, end) time of each unit
    and the unit results."""
    from workloads import UnitResult, sha
    spans, results = [], []
    for seed in seeds:
        t0 = time.perf_counter()
        if t0 > deadline:
            break
        try:
            res = wl.unit(seed)
        except Exception:  # a failing unit is counted, the run goes on
            text = traceback.format_exc()
            print(text, file=sys.stderr)
            res = UnitResult(wl.UNIT_PATHS, wl.UNIT_PATHS, sha(text.encode()), "exception")
        spans.append((t0, time.perf_counter()))
        results.append(res)
    return spans, results


def digest_of(results: list) -> str:
    from workloads import sha
    return sha(*(r.digest for r in results)).hex()


def profile(wl, timer: StepTimer, probe, units: list, scaled: bool = True):
    """Time of every step call of a unit and of the unit itself.

    With ``scaled``, each call and each unit is timed at the reference host
    speed: its duration times REF_MS over the mean probe time around it
    (hostspeed.py).  A unit's time is its wall time less the probe calls
    made inside it, so work between steps, such as observables, I/O and
    checks, counts.  The duration of a call of kind ``wl.kind(k)`` is the
    median over all calls of that kind in the run.  Only units that made
    the usual number of step calls count, so a unit that stopped early
    adds nothing.

    Returns ``(step_ms, unit_s, calls)``: the duration in ms of each of the
    ``calls`` step calls of a unit and the median time of one unit, or
    ``None`` without a single complete unit.
    """
    import numpy as np
    from hostspeed import REF_MS
    marks, starts, ms = np.array(timer.marks), np.array(timer.starts), np.array(timer.ms)
    per_unit = [np.flatnonzero((starts >= u0) & (starts < u1)) for u0, u1 in units]
    sizes = Counter(idx.size for idx in per_unit)
    calls = max(sizes, key=lambda c: (sizes[c], c)) if sizes else 0
    if calls == 0:
        return None
    kept = [(u, idx) for u, idx in zip(units, per_unit) if idx.size == calls]
    bounds = np.array([u for u, _ in kept])
    unit_s = bounds[:, 1] - bounds[:, 0] - np.array(
        [(starts[idx] - marks[idx]).sum() for _, idx in kept])
    idx = np.concatenate([idx for _, idx in kept])
    call_ms = ms[idx]
    if scaled:
        unit_s = unit_s * REF_MS / probe.mean_around(bounds[:, 0], bounds[:, 1])
        call_ms = call_ms * REF_MS / probe.mean_around(starts[idx], starts[idx] + ms[idx] / 1e3)
    kinds = np.array([wl.kind(k) for k in range(calls)])
    of_call = np.tile(kinds, len(kept))
    est = {c: float(np.nanmedian(call_ms[of_call == c])) for c in set(kinds.tolist())}
    return np.array([est[c] for c in kinds]), float(np.nanmedian(unit_s)), calls


def end_to_end(wl, setup: list, timer: StepTimer, probe, units: list,
               results) -> tuple[dict, dict]:
    """Timing metrics at the reference host speed, see :func:`profile`.
    Returns the metrics and the same timings unscaled.

    ``step_ms_p50`` and ``step_ms_p90`` are percentiles (method "higher")
    over the call durations of one unit.  In girsanov one call in ten
    evaluates eps, so p90 is the eps step and p50 a plain step; elsewhere
    every call is of one kind and the two are equal.  ``path_steps_per_s``
    is a unit's paths x steps over its time.  ``setup_s`` is the median
    of the fresh-process set-up samples, each scaled by its own process's
    probe.  Without a complete unit the timing metrics are left out.
    """
    import numpy as np
    from hostspeed import REF_MS
    attempted = sum(r.paths for r in results)
    failed = sum(r.failed for r in results)
    out = {
        "setup_s": float(np.median([s * REF_MS / p for s, p in setup])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": 1.0 - failed / attempted if attempted else 0.0,
    }
    raw = {"setup_s": float(np.median([s for s, _ in setup]))}
    for target, scaled in ((out, True), (raw, False)):
        prof = profile(wl, timer, probe, units, scaled)
        if prof is None:
            break
        step_ms, unit_s, calls = prof
        target["path_steps_per_s"] = calls * wl.STEP_BATCH / unit_s
        for q in (50, 90):
            target[f"step_ms_p{q}"] = float(np.percentile(step_ms, q, method="higher"))
    return out, raw


def per_layer(tracer, traced_s: float, untraced_s: float, traced: list,
              hits: list, digests_match: bool, failed_frac: float) -> dict:
    from spans import MODULES
    agg = tracer.aggregate()
    out = dict(tracer.counts)
    for name, a in agg.items():
        out[name + ".calls"] = a["calls"]
        out[name + ".self_s"] = a["self_s"]
        out[name + ".incl_s"] = a["incl_s"]
    traced_self = 0.0
    for mod in MODULES:
        s = sum(a["self_s"] for name, a in agg.items() if name.split(".")[0] == mod)
        out[mod + ".share"] = s / traced_s
        traced_self += s
    out["other.share"] = 1.0 - traced_self / traced_s
    out["propagator.xalpha_norm.incl_share"] = (
        agg["propagator.xalpha_norm"]["incl_s"] / traced_s)
    n_hits, n_misses = hits
    out["propagator.propagator_tables.hit_ratio"] = (
        n_hits / (n_hits + n_misses) if n_hits + n_misses else 0.0)
    monitored = sum(r.stats.get("monitored", 0) for r in traced)
    stopped = sum(r.stats.get("stopped", 0) for r in traced)
    out["coupling.stopped_frac"] = stopped / monitored if monitored else 0.0
    steps = agg["coupling.coupling_step"]["calls"]
    out["coupling.eps_evals_per_step"] = (
        agg["coupling.epsilon_scale"]["calls"] / steps if steps else 0.0)
    out["trace.run_s"] = traced_s
    out["trace.untraced_run_s"] = untraced_s
    out["trace.overhead"] = traced_s / untraced_s - 1.0
    out["trace.digest_match"] = int(digests_match)
    out["trace.missing_functions"] = len(tracer.missing)
    out["failed_frac"] = failed_frac
    return out


def measure(cls, seeds, work: Path, deadline_s: float):
    """Tracing off: set-up samples around one timed phase of all units."""
    import numpy as np

    from hostspeed import Probe
    setup = setup_samples(cls.NAME, work / "before", SETUP_BEFORE)
    wl = cls(work / "main")
    wl.setup()
    wl.warmup()
    probe = Probe()
    timer = StepTimer(*cls.STEP, probe)
    try:
        units, results = run_units(wl, seeds, time.perf_counter() + deadline_s)
    finally:
        timer.uninstall()
    setup += setup_samples(cls.NAME, work / "after", SETUP_AFTER)
    digest = digest_of(results)
    metrics, raw = end_to_end(wl, setup, timer, probe, units, results)
    (common.OUT / "results").mkdir(parents=True, exist_ok=True)
    np.savez(common.OUT / "results" / f"{cls.NAME}-timings.npz",
             units=np.array(units), marks=timer.marks, starts=timer.starts,
             ms=timer.ms, probe_starts=probe.starts, probe_ms=probe.ms,
             setup=np.array(setup))
    run_s = units[-1][1] - units[0][0] if units else 0.0
    lines = [f"digest {digest}", f"run_s {run_s!r} (wall time of the timed phase)",
             f"setup samples (s, probe ms) {setup}",
             f"probe calls {len(probe.ms)}, mean {sum(probe.ms) / max(len(probe.ms), 1)!r} ms",
             "unscaled " + " ".join(f"{k}={v!r}" for k, v in raw.items())]
    ok = "step_ms_p50" in metrics
    if not ok:
        lines.append("no unit completed its step calls: timing metrics left out")
    return metrics, results, digest, lines, ok


def trace(cls, seeds, work: Path, deadline_s: float):
    """Each unit untraced, then traced: both passes see the same host phases."""
    from sdnlw.propagator import propagator_tables

    from spans import Tracer
    wl = cls(work / "main")
    wl.setup()
    wl.warmup()
    tracer = Tracer()
    untraced, traced = [], []
    untraced_s = traced_s = 0.0
    hits = [0, 0]
    deadline = time.perf_counter() + deadline_s
    for seed in seeds:
        spans, res = run_units(wl, [seed], deadline)
        if not res:
            break
        untraced_s += spans[0][1] - spans[0][0]
        untraced += res
        before = propagator_tables.cache_info()
        tracer.install()
        try:
            spans, res = run_units(wl, [seed], float("inf"))
        finally:
            tracer.uninstall()
        after = propagator_tables.cache_info()
        hits[0] += after.hits - before.hits
        hits[1] += after.misses - before.misses
        traced_s += spans[0][1] - spans[0][0]
        traced += res
    digest, traced_digest = digest_of(untraced), digest_of(traced)
    match = digest == traced_digest
    both = untraced + traced
    paths = sum(r.paths for r in both)
    failed_frac = sum(r.failed for r in both) / paths if paths else 1.0
    metrics = per_layer(tracer, traced_s, untraced_s, traced, hits, match, failed_frac)
    spans_path = common.OUT / "results" / f"{cls.NAME}-spans.npz"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(spans_path)
    lines = [f"digest untraced {digest}", f"digest traced   {traced_digest}",
             f"digests {'match' if match else 'DIFFER'}", f"spans {spans_path}"]
    if tracer.missing:
        # such a name reports zero calls and zero time: absent, not free
        lines.append("untraced (not found in sdnlw): " + ", ".join(tracer.missing))
    return metrics, both, digest, lines, match


def run(args, bench: dict, work: Path) -> dict:
    import numpy as np

    from workloads import WORKLOADS
    cls = WORKLOADS[args.workload]
    rng = np.random.default_rng([zlib.crc32(cls.NAME.encode()), args.seed])
    share = 0.5 if args.trace else 1.0
    units = max(1, round(args.seconds * share / cls.UNIT_S))
    seeds = [int(s) for s in rng.integers(0, 2**31 - 2**20, size=units)]
    env = environment(args, units)
    phase = trace if args.trace else measure
    metrics, results, digest, lines, ok = phase(
        cls, seeds, work, DEADLINE_FACTOR * args.seconds * share)
    expected = units * (2 if args.trace else 1)
    if len(results) < expected:
        lines.append(f"deadline: ran {len(results)} of {expected} units")

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing and ok:
        raise RuntimeError(f"metrics not computed: {missing}")
    reported = {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                for m in wanted if m["name"] in metrics}
    attempted = sum(r.paths for r in results)
    failed = sum(r.failed for r in results)
    correct = ok and failed == 0 and attempted > 0
    notes = [f"unit {i}: failed {r.failed}/{r.paths}: {r.note}"
             for i, r in enumerate(results) if r.failed]
    record = {"env": env, "digest": digest, "lines": lines, "failures": notes,
              "unit_checks": [r.note for r in results], "metrics": reported,
              "correct": correct, "attempted": attempted, "failed": failed}
    path = common.OUT / "results" / f"{cls.NAME}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print("env " + json.dumps(env, sort_keys=True))
    for line in lines + notes:
        print(line)
    if results and results[0].note:
        print(f"check (unit 0): {results[0].note}")
    for name, m in reported.items():
        print(f"metric {name} = {m['value']!r} {m['unit']}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": reported}


def main(argv=None) -> int:
    args = parse_args(argv)
    common.pin_environment()
    bench_path = common.ROOT / "BENCHMARK.json"
    if not bench_path.is_file():
        print(f"error: {bench_path} not found", file=sys.stderr)
        return 2
    common.use_checkout_src()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    work = common.OUT / f"work-{os.getpid()}"
    try:
        result = run(args, bench, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
