"""Command-line surface.

Subcommands: simulate, stick-stats, couple, ergodic, verify, resume.
Exit codes: 0 success, 1 validation failure (bad config, bad checkpoint,
failed verify), 2 blow-up signal.  Configuration errors print a message
naming the offending key, never a traceback.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointError, read_checkpoint, write_checkpoint
from .config import ConfigError, SimConfig, load_config
from .coupling import CouplingOptions, coupling_distance, run_coupling, \
    shifted_flow_check
from .dynamics import BlowUpError, run_steps
from .noise import lattice_covariance, stationary_moment_report
from .runner import ensemble_time_averages, simulate_run, write_summary_json
from .spectral import gaussian_bump_pair, hnorm
from .verify import format_table, run_identity_suite


def _load_cfg(args) -> SimConfig:
    cfg = load_config(args.config) if args.config else SimConfig()
    over = {}
    if getattr(args, "seed", None) is not None:
        over["seed"] = args.seed
    if getattr(args, "t", None) is not None:
        over["T"] = args.t
    if over:
        cfg = replace(cfg, **over)
    return cfg.check()


def _add_common(p):
    p.add_argument("--config", help="flat key=value configuration file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--t", "--T", dest="t", type=float, default=None,
                   help="override time horizon T")


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
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_summary_json(out / "stick_stats.json", {
            "kind": "stick-stats", "config": cfg.as_dict(),
            "times": list(rep["times"]), "n_samples": args.samples,
            "flagged_modes": n_flag,
            "var_u": rep["var_u"], "var_ut": rep["var_ut"],
            "stationary_u": rep["stationary_u"],
            "stationary_ut": rep["stationary_ut"],
        })
        print(f"summary:    {out / 'stick_stats.json'}")
    return 0 if n_flag == 0 else 1


def cmd_couple(args) -> int:
    cfg = _load_cfg(args)
    T = args.t if args.t is not None else cfg.T
    if not args.check_horizon > 0:
        raise ValueError(f"check_horizon must be > 0, got {args.check_horizon}")
    u2 = gaussian_bump_pair(cfg.N, args.u2_perturbation)
    opts = CouplingOptions(eps_every=args.eps_every)
    horizon = min(T, args.check_horizon)
    check = shifted_flow_check(cfg, None, u2, horizon, opts, seed=cfg.seed)
    # the check's coupling record is the first part of the run to T
    rec = run_coupling(check["record"], round(T / cfg.dt) - round(horizon / cfg.dt))
    hcost = float(rec.hcost)
    w_h1 = float(hnorm(rec.w))
    d1 = float(coupling_distance(rec, 1))
    residual = float(check["rel_residual"][-1])
    print(f"h-cost int |h|^2 dt:      {hcost:.6e}")
    print(f"|w(T)|_H1:                {w_h1:.6e}")
    print(f"coupled d_1(T):           {d1:.6e}")
    print(f"shifted-flow residual:    {residual:.3e} (relative)")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_summary_json(out / "couple.json", {
            "kind": "couple", "config": cfg.as_dict(), "T": T,
            "u2_perturbation": args.u2_perturbation,
            "hcost": hcost,
            "w_h1": w_h1,
            "coupled_d1": d1,
            "shifted_flow_rel_residual": residual,
        })
        print(f"summary:    {out / 'couple.json'}")
    return 0


def cmd_ergodic(args) -> int:
    cfg = _load_cfg(args)
    T = args.t if args.t is not None else cfg.T
    seeds = [cfg.seed + j for j in range(args.seeds)]
    u2 = gaussian_bump_pair(cfg.N, args.u2_amplitude)
    # per-seed averages through the worker pool (deterministic merge)
    avg1 = ensemble_time_averages(cfg, "zero", 0.0, T, seeds, cfg.observables)
    avg2 = ensemble_time_averages(cfg, "bump", args.u2_amplitude, T, seeds,
                                  cfg.observables)
    report = {"kind": "ergodic", "config": cfg.as_dict(), "T": T,
              "seeds": seeds, "observables": {}}
    ok = True
    for name in cfg.observables:
        a1 = np.array([avg1[s][name] for s in seeds])
        a2 = np.array([avg2[s][name] for s in seeds])
        se = float(np.hypot(a1.std(ddof=1), a2.std(ddof=1)) / np.sqrt(len(seeds)))
        diff = float(a1.mean() - a2.mean())
        passed = abs(diff) <= 3.0 * se or se == 0.0
        ok = ok and passed
        report["observables"][name] = {
            "avg1": float(a1.mean()), "avg2": float(a2.mean()),
            "diff": diff, "combined_se": se, "within_3se": passed}
        print(f"{name:<16s} diff {diff:+.4e}  (3se = {3*se:.4e})"
              f"  {'ok' if passed else 'DIFFERS'}")
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        write_summary_json(out / "ergodic.json", report)
        print(f"summary:    {out / 'ergodic.json'}")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    cfg = _load_cfg(args)
    results = run_identity_suite(cfg)
    print(format_table(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_resume(args) -> int:
    cfg = _load_cfg(args) if args.config else None
    state = read_checkpoint(args.checkpoint, cfg)
    cfg = state.cfg
    T = args.t if args.t is not None else cfg.T
    n = round((T - state.t) / cfg.dt)
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
    _add_common(p)
    p.add_argument("--u0", choices=("zero", "bump"), default="zero")
    p.add_argument("--amplitude", type=float, default=1.0)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("stick-stats", help="stochastic-convolution diagnostics")
    _add_common(p)
    p.add_argument("--samples", type=int, default=2000)
    p.set_defaults(fn=cmd_stick_stats)

    p = sub.add_parser("couple", help="Girsanov coupling experiment")
    _add_common(p)
    p.add_argument("--u2-perturbation", type=float, default=1.0,
                   help="bump amplitude of the second initial datum")
    p.add_argument("--eps-every", type=int, default=5)
    p.add_argument("--check-horizon", type=float, default=2.0)
    p.set_defaults(fn=cmd_couple)

    p = sub.add_parser("ergodic", help="two-initial-data convergence experiment")
    _add_common(p)
    p.add_argument("--seeds", type=int, default=8)
    p.add_argument("--u2-amplitude", type=float, default=1.0)
    p.set_defaults(fn=cmd_ergodic)

    p = sub.add_parser("verify", help="analytic identity suite (pass/fail table)")
    _add_common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("resume", help="continue a run from a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_resume)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
