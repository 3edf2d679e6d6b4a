"""Run configuration: the flat key=value file format and its validation.

A SimConfig is checked when it is built, whether by its constructor,
``dataclasses.replace`` or ``parse_config``, so every SimConfig is valid.
Constraints enforced here: N an integer >= 0, seed an integer in
[-2**63, 2**63), every float key a real number (not a bool), s > 0,
0 < alpha < min(s, 1/3), dt > 0, T >= 0, obs_interval > 0,
blowup_threshold > 0, and every float key finite except blowup_threshold,
which may be +inf, every observables name one a config line can select
(``selectable_name``) and listed once, and output_dir free of '#', line breaks and
surrounding whitespace, so that a config survives dump_config and
parse_config unchanged.  NaN fails every constraint.  One ConfigError
names every violated constraint and its key.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from dataclasses import dataclass, fields

DEFAULT_OBSERVABLES = ("mean_u", "mean_u2", "clipped_halpha")


class ConfigError(ValueError):
    """Invalid configuration; the message names every offending key."""


def selectable_name(name) -> bool:
    """Whether an ``observables`` line can select ``name``: a non-empty str
    with no whitespace and none of ``,``, ``#`` or ``=``."""
    return (isinstance(name, str) and name != ""
            and not any(c.isspace() or c in ",#=" for c in name))


@dataclass(frozen=True)
class SimConfig:
    N: int = 8
    s: float = 1.0
    gamma: float = 0.0
    alpha: float = 0.25
    dt: float = 0.01
    T: float = 10.0
    seed: int = 0
    observables: tuple = DEFAULT_OBSERVABLES
    output_dir: str = "."
    obs_interval: float = 0.25
    blowup_threshold: float = 1e12

    def __post_init__(self):
        # every comparison fails on NaN; only blowup_threshold may be inf
        errs = []

        def real(key, ok, need) -> bool:
            """Append an error for ``key`` unless it holds a real number that
            passes ``ok`` (a bool is not one here, though Python counts it
            as one); return whether it holds a real number."""
            val = getattr(self, key)
            if isinstance(val, bool) or not isinstance(val, numbers.Real):
                errs.append(f"{key}: must be a real number, got {val!r}")
                return False
            if not ok(val):
                errs.append(f"{key}: must {need}, got {val}")
            return True

        if isinstance(self.N, bool) or not isinstance(self.N, numbers.Integral) \
                or self.N < 0:
            errs.append(f"N: must be an integer >= 0, got {self.N!r}")
        s_real = real("s", lambda v: 0 < v < math.inf, "be finite and > 0")
        real("gamma", math.isfinite, "be finite")
        cap = min(self.s, 1.0 / 3.0) if s_real else 1.0 / 3.0
        real("alpha", lambda v: 0.0 < v < cap,
             f"satisfy 0 < alpha < min(s, 1/3) = {cap:.6g}")
        real("dt", lambda v: 0 < v < math.inf, "be finite and > 0")
        real("T", lambda v: 0 <= v < math.inf, "be finite and >= 0")
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral) \
                or not -2**63 <= self.seed < 2**63:
            errs.append(f"seed: must be an integer in [-2**63, 2**63), got {self.seed!r}")
        real("obs_interval", lambda v: 0 < v < math.inf, "be finite and > 0")
        real("blowup_threshold", lambda v: v > 0, "be > 0 (inf allowed)")
        names = list(self.observables)
        bad = [name for name in names if not selectable_name(name)]
        if bad:
            errs.append(f"observables: {bad} cannot be selected by a config line "
                        f"(empty, or holding whitespace, ',', '#' or '=')")
        repeated = [name for i, name in enumerate(names) if name in names[:i]]
        if repeated:
            errs.append(f"observables: {repeated} listed more than once")
        out = str(self.output_dir)
        if "#" in out or len(out.splitlines()) > 1 or out != out.strip():
            errs.append(f"output_dir: must hold no '#' or line break and no leading "
                        f"or trailing whitespace, got {self.output_dir!r}")
        if errs:
            raise ConfigError("; ".join(errs))

    def digest(self) -> str:
        return hashlib.sha256(dump_config(self).encode()).hexdigest()

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["observables"] = list(self.observables)
        return d


# the keys a resumed run must share with its checkpoint; the rest may change
_RESUME_KEYS = ("N", "s", "gamma", "alpha", "dt")


# one parser per key, chosen by the SimConfig field's declared type
_TYPE_PARSERS = {
    "int": int, "float": float, "str": str,
    "tuple": lambda v: tuple(x.strip() for x in v.split(",") if x.strip()),
}
_PARSERS = {f.name: _TYPE_PARSERS[f.type] for f in fields(SimConfig)}


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
    return SimConfig(**values)


def steps(span: float, dt: float, key: str) -> int:
    """The exact number of steps of length dt in span; a ConfigError naming
    ``key`` unless span >= 0 is a whole multiple of dt (relative tolerance 1e-9)."""
    if span < 0:
        raise ConfigError(f"{key}: must be >= 0, got {span}")
    n = span / dt
    if not (math.isfinite(n) and math.isclose(round(n) * dt, span, rel_tol=1e-9)):
        raise ConfigError(f"{key}: {span} is not a whole multiple of {dt}")
    return round(n)


def load_config(path) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def dump_config(cfg: SimConfig) -> str:
    """Canonical key=value rendering (bit-exact logging for manifests): each
    value cast to its field's type, so that equal configs render alike."""
    lines = []
    for f in fields(cfg):
        v = getattr(cfg, f.name)
        v = ",".join(v) if f.name == "observables" else _PARSERS[f.name](v)
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"
