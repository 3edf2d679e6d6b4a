"""Command-line surface.

Subcommands: simulate, stick-stats, couple, ergodic, verify, resume.
Exit codes: 0 success; 1 an input was refused before the run (bad usage,
config, horizon or checkpoint); 2 blow-up signal; 3 the run finished but
its check failed (an ergodic observable DIFFERS, stick-stats flagged
modes, a verify FAIL line).  Refused inputs print a message naming the
offending key, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .config import ConfigError, SimConfig, load_config, steps
from .coupling import CouplingOptions, coupling_distance, run_coupling, \
    shifted_flow_check
from .dynamics import BlowUpError, run_steps
from .ergodics import compare_starts
from .noise import lattice_covariance, stationary_moment_report
from .runner import simulate_run, write_summary_json
from .spectral import gaussian_bump_pair, hnorm
from .verify import format_table, run_identity_suite


def _load_cfg(args) -> SimConfig:
    cfg = load_config(args.config) if args.config else SimConfig()
    over = {"seed": getattr(args, "seed", None), "T": getattr(args, "t", None)}
    return replace(cfg, **{k: v for k, v in over.items() if v is not None}).check()


def _finite(text: str) -> float:
    """argparse type: a float that is neither nan nor +-inf."""
    value = float(text)
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _add_common(p, *names):
    """--config plus those of --seed, --out and --t that ``names`` lists."""
    p.add_argument("--config", help="flat key=value configuration file")
    if "seed" in names:
        p.add_argument("--seed", type=int)
    if "out" in names:
        p.add_argument("--out", help="output directory")
    if "t" in names:
        p.add_argument("--t", "--T", dest="t", type=float, help="override time horizon T")


def _write_json(args, name: str, payload: dict) -> None:
    """Write the summary JSON ``name`` under --out, when given."""
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_summary_json(out / name, payload)
        print(f"summary:    {out / name}")


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    paths = simulate_run(cfg, args.out, args.u0, args.amplitude)
    print(f"series:     {paths['series']}")
    print(f"summary:    {paths['summary']}")
    print(f"checkpoint: {paths['checkpoint']}")
    return 0


def cmd_stick_stats(args) -> int:
    cfg = _load_cfg(args)
    rep = stationary_moment_report(cfg.s, cfg.N, args.samples, seed=cfg.seed)
    n_flag = int(rep["drift_flags"].sum())
    eig_min = float(np.linalg.eigvalsh(lattice_covariance(cfg.N, cfg.dt, cfg.s)).min())
    print(f"modes flagged for variance drift: {n_flag} / {rep['drift_flags'].size}")
    print(f"one-step covariance min eigenvalue: {eig_min:.3e}")
    dev = np.abs(rep["var_u"][-1] - rep["stationary_u"]) / rep["se_u"][-1]
    print(f"max |var - stationary|/se at t={rep['times'][-1]}: {dev.max():.2f}")
    _write_json(args, "stick_stats.json", {
        "kind": "stick-stats", "config": cfg.as_dict(),
        "times": list(rep["times"]), "n_samples": args.samples,
        "flagged_modes": n_flag,
        "var_u": rep["var_u"], "var_ut": rep["var_ut"],
        "stationary_u": rep["stationary_u"],
        "stationary_ut": rep["stationary_ut"],
    })
    return 0 if n_flag == 0 else 3


def cmd_couple(args) -> int:
    cfg = _load_cfg(args)
    if not args.check_horizon > 0:
        raise ValueError(f"check_horizon must be > 0, got {args.check_horizon}")
    u2 = gaussian_bump_pair(cfg.N, args.u2_perturbation)
    opts = CouplingOptions(eps_every=args.eps_every)
    horizon = min(cfg.T, args.check_horizon)
    n_run = steps(cfg.T, cfg.dt, "T")
    n_check = steps(horizon, cfg.dt, "check_horizon")
    check = shifted_flow_check(cfg, None, u2, horizon, opts, seed=cfg.seed)
    # the check's coupling record is the first part of the run to T
    rec = run_coupling(check["record"], n_run - n_check)
    hcost = float(rec.hcost)
    w_h1 = float(hnorm(rec.w))
    d1 = float(coupling_distance(rec, 1))
    residual = float(check["rel_residual"][-1])
    print(f"h-cost int |h|^2 dt:      {hcost:.6e}")
    print(f"|w(T)|_H1:                {w_h1:.6e}")
    print(f"coupled d_1(T):           {d1:.6e}")
    print(f"shifted-flow residual:    {residual:.3e} (relative)")
    _write_json(args, "couple.json", {
        "kind": "couple", "config": cfg.as_dict(), "T": cfg.T,
        "u2_perturbation": args.u2_perturbation,
        "hcost": hcost,
        "w_h1": w_h1,
        "coupled_d1": d1,
        "shifted_flow_rel_residual": residual,
    })
    return 0


def cmd_ergodic(args) -> int:
    cfg = _load_cfg(args)
    seeds = [cfg.seed + j for j in range(args.seeds)]
    bump = gaussian_bump_pair(cfg.N, args.u2_amplitude)
    report = {"kind": "ergodic", "config": cfg.as_dict(),
              **compare_starts(cfg, None, bump, cfg.T, seeds)}
    rows = report["observables"]
    for name, row in rows.items():
        print(f"{name:<16s} diff {row['diff']:+.4e}  (3se = {3*row['combined_se']:.4e})"
              f"  {'ok' if row['within_3se'] else 'DIFFERS'}")
    _write_json(args, "ergodic.json", report)
    return 0 if all(row["within_3se"] for row in rows.values()) else 3


def cmd_verify(args) -> int:
    cfg = _load_cfg(args)
    results = run_identity_suite(cfg)
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 3


def cmd_resume(args) -> int:
    cfg = _load_cfg(args) if args.config else None
    state = read_checkpoint(args.checkpoint, cfg)
    cfg = state.cfg
    T = args.t if args.t is not None else cfg.T
    n = steps(T, cfg.dt, "T") - state.step
    if n < 0:
        raise ConfigError(f"T: checkpoint is already past T={T}")
    state = run_steps(state, n)
    out = Path(args.out) if args.out else Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    ckpt = out / "resumed.ckpt"
    write_checkpoint(state, ckpt)
    print(f"resumed to t={state.t:.6g} (step {state.step})")
    print(f"checkpoint: {ckpt}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sdnlw",
        description="Pseudospectral laboratory for the stochastic damped "
                    "cubic wave equation on the 2-torus.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="one trajectory, emit observable series")
    _add_common(p, "seed", "out", "t")
    p.add_argument("--u0", choices=("zero", "bump"), default="zero")
    p.add_argument("--amplitude", type=_finite, default=1.0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("stick-stats", help="stochastic-convolution diagnostics")
    _add_common(p, "seed", "out")
    p.add_argument("--samples", type=int, default=2000)
    p.set_defaults(fn=cmd_stick_stats)

    p = sub.add_parser("couple", help="Girsanov coupling experiment")
    _add_common(p, "seed", "out", "t")
    p.add_argument("--u2-perturbation", type=_finite, default=1.0,
                   help="bump amplitude of the second initial datum")
    p.add_argument("--eps-every", type=int, default=5)
    p.add_argument("--check-horizon", type=float, default=2.0)
    p.set_defaults(fn=cmd_couple)

    p = sub.add_parser("ergodic", help="two-initial-data convergence experiment")
    _add_common(p, "seed", "out", "t")
    p.add_argument("--seeds", type=int, default=8)
    p.add_argument("--u2-amplitude", type=_finite, default=1.0)
    p.set_defaults(fn=cmd_ergodic)

    p = sub.add_parser("verify", help="analytic identity suite (pass/fail table)")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("resume", help="continue a run from a checkpoint")
    _add_common(p, "out", "t")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_resume)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on bad usage
        return 1 if exc.code else 0
    try:
        return args.fn(args)
    except (ConfigError, CheckpointError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BlowUpError as exc:
        print(f"blow-up: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
