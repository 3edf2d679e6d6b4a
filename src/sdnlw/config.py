"""Run configuration: the flat key=value file format and its validation.

Constraints enforced here: N >= 0, s > 0, 0 < alpha < min(s, 1/3), dt > 0,
T >= 0, M_pad >= 1, obs_interval > 0, blowup_threshold > 0, and every float
key finite except blowup_threshold, which may be +inf.  NaN fails every
constraint.  Each violated constraint is reported individually, naming the
offending key.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

DEFAULT_OBSERVABLES = ("mean_u", "mean_u2", "clipped_halpha")

_INTEGRATORS = ("euler", "midpoint")


class ConfigError(ValueError):
    """Invalid configuration; the message names every offending key."""


@dataclass(frozen=True)
class SimConfig:
    N: int = 8
    s: float = 1.0
    gamma: float = 0.0
    alpha: float = 0.25
    dt: float = 0.01
    T: float = 10.0
    seed: int = 0
    integrator: str = "euler"
    M_pad: float = 2.0                 # quadrature zero-padding factor
    observables: tuple = DEFAULT_OBSERVABLES
    output_dir: str = "."
    obs_interval: float = 0.25
    linear_only: bool = False          # disable the cubic term (diagnostics)
    blowup_threshold: float = 1e12

    def validate(self) -> list[str]:
        # every comparison fails on NaN; only blowup_threshold may be inf
        errs = []
        if self.N < 0:
            errs.append(f"N: must be >= 0, got {self.N}")
        if not 0 < self.s < math.inf:
            errs.append(f"s: must be finite and > 0, got {self.s}")
        if not math.isfinite(self.gamma):
            errs.append(f"gamma: must be finite, got {self.gamma}")
        if not 0.0 < self.alpha < min(self.s, 1.0 / 3.0):
            errs.append(
                f"alpha: must satisfy 0 < alpha < min(s, 1/3) = "
                f"{min(self.s, 1.0/3.0):.6g}, got {self.alpha}")
        if not 0 < self.dt < math.inf:
            errs.append(f"dt: must be finite and > 0, got {self.dt}")
        if not 0 <= self.T < math.inf:
            errs.append(f"T: must be finite and >= 0, got {self.T}")
        if self.integrator not in _INTEGRATORS:
            errs.append(f"integrator: must be one of {_INTEGRATORS}, got "
                        f"{self.integrator!r}")
        if not 1.0 <= self.M_pad < math.inf:
            errs.append(f"M_pad: must be finite and >= 1, got {self.M_pad}")
        if not 0 < self.obs_interval < math.inf:
            errs.append(f"obs_interval: must be finite and > 0, got {self.obs_interval}")
        if not self.blowup_threshold > 0:
            errs.append(f"blowup_threshold: must be > 0 (inf allowed), got "
                        f"{self.blowup_threshold}")
        return errs

    def check(self) -> "SimConfig":
        errs = self.validate()
        if errs:
            raise ConfigError("; ".join(errs))
        return self

    def digest(self) -> str:
        items = sorted((f.name, repr(getattr(self, f.name))) for f in fields(self))
        blob = "\n".join(f"{k}={v}" for k, v in items).encode()
        return hashlib.sha256(blob).hexdigest()

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["observables"] = list(self.observables)
        return d


_PARSERS = {
    "N": int,
    "s": float,
    "gamma": float,
    "alpha": float,
    "dt": float,
    "T": float,
    "seed": int,
    "integrator": str,
    "M_pad": float,
    "observables": lambda v: tuple(x.strip() for x in v.split(",") if x.strip()),
    "output_dir": str,
    "obs_interval": float,
    "linear_only": lambda v: v.strip().lower() in ("1", "true", "yes", "on"),
    "blowup_threshold": float,
}


def parse_config(text: str) -> SimConfig:
    """Parse flat key=value text (# comments, blank lines allowed)."""
    values = {}
    errs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errs.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _PARSERS:
            errs.append(f"{key}: unknown configuration key")
            continue
        try:
            values[key] = _PARSERS[key](val)
        except ValueError:
            errs.append(f"{key}: cannot parse value {val!r}")
    if errs:
        raise ConfigError("; ".join(errs))
    cfg = replace(SimConfig(), **values)
    return cfg.check()


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def dump_config(cfg: SimConfig) -> str:
    """Canonical key=value rendering (bit-exact logging for manifests)."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        if f.name == "observables":
            v = ",".join(v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"
