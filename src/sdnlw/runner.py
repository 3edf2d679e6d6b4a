"""Result emission, run manifests, and the single-trajectory run.

Observable series go to CSV with columns ``t,<observable>...`` and floats
printed with 17 significant digits; summaries go to JSON under the schema
tag "sdnlw-summary-1".
"""

from __future__ import annotations

import datetime
import hashlib
import json
import platform
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__, spectral
from .checkpoint import write_checkpoint
from .config import SimConfig, dump_config
from .ergodics import _check_window, ensemble_summary, sample_trajectory, time_averages
from .noise import RNG_STREAM

SUMMARY_SCHEMA = "sdnlw-summary-1"


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def write_series_csv(path, times, columns: dict) -> None:
    names = list(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t," + ",".join(names) + "\n")
        for i, t in enumerate(times):
            row = [fmt_float(t)] + [fmt_float(columns[n][i]) for n in names]
            fh.write(",".join(row) + "\n")


def write_summary_json(path, payload: dict) -> None:
    body = {"schema": SUMMARY_SCHEMA}
    body.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=2, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON-serializable: {type(obj)}")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def run_environment() -> dict:
    """What bit-reproducibility depends on: library versions, the FFT module
    ``spectral`` bound, the SIMD extensions numpy dispatches to (its array
    and scalar kernels may round differently in the last bit), and the
    random stream."""
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover
        scipy_version = None
    try:
        from numpy._core._multiarray_umath import (
            __cpu_baseline__, __cpu_dispatch__, __cpu_features__)
        simd = list(__cpu_baseline__) + [
            f for f in __cpu_dispatch__ if __cpu_features__.get(f)]
    except ImportError:  # pragma: no cover
        simd = None
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy_version, "fft": spectral._fft.__name__, "simd": simd,
            "rng_stream": dict(RNG_STREAM)}


@dataclass
class RunManifest:
    config_text: str
    config_digest: str
    seeds: list
    code_version: str = __version__
    started: str = ""
    finished: str = ""
    outputs: dict = field(default_factory=dict)
    environment: dict = field(default_factory=run_environment)

    @classmethod
    def begin(cls, cfg: SimConfig, seeds) -> "RunManifest":
        return cls(config_text=dump_config(cfg), config_digest=cfg.digest(),
                   seeds=list(seeds),
                   started=datetime.datetime.now(datetime.timezone.utc).isoformat())

    def finish(self, output_paths) -> None:
        self.finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.outputs = {str(p): sha256_file(p) for p in output_paths}

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def simulate_run(cfg: SimConfig, out_dir=None, u0=None) -> dict:
    """One trajectory from the pair ``u0`` (zero data when None): observable
    series CSV, summary JSON, final checkpoint, manifest.  Deterministic in
    (config, seed, u0)."""
    _check_window(cfg, cfg.T)
    out = Path(out_dir if out_dir is not None else cfg.output_dir)
    manifest = RunManifest.begin(cfg, [cfg.seed])
    run = sample_trajectory(cfg, u0, seeds=cfg.seed)
    out.mkdir(parents=True, exist_ok=True)
    times, series = run["times"], run["series"]
    csv_path = out / "series.csv"
    write_series_csv(csv_path, times, series)
    burn = 0.25 * cfg.T
    avgs = time_averages(times, series, burn)
    summary = {
        "config": cfg.as_dict(),
        "kind": "simulate",
        "time_averages": {k: float(v) for k, v in avgs.items()},
        "statistics": ensemble_summary(times, series, burn),
        "burn_in": burn,
    }
    json_path = out / "summary.json"
    write_summary_json(json_path, summary)
    ckpt_path = out / "final.ckpt"
    write_checkpoint(run["state"], ckpt_path)
    manifest.finish([csv_path, json_path, ckpt_path])
    manifest.write(out / "manifest.json")
    return {"series": csv_path, "summary": json_path, "checkpoint": ckpt_path,
            "state": run["state"]}

