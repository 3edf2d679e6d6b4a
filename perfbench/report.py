"""Run every workload once and print each end-to-end metric by name and unit.

    python3 perfbench/report.py --seed N

Every workload listed in BENCHMARK.json runs for its ``run_seconds`` with
tracing off, each in its own ``perfbench/run.py`` process, one after the
other, so peak memory is that of the workload alone.  Running again with
another ``--seed`` repeats the measurement on inputs the numbers were not
tuned on.  Exits 1 if any workload's output check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from common import ROOT  # noqa: E402


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)

    ok = True
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(bench["run_seconds"]),
             "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"== {name}: exit {proc.returncode}\n{proc.stderr}")
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        print(f"== {name} (seed {args.seed}): correct={result['correct']} "
              f"failed {result['failed']}/{result['attempted']} paths")
        for line in lines[:-1]:
            if line.startswith(("env ", "digest", "check ")):
                print("   " + line)
        for metric, m in result["metrics"].items():
            print(f"   {metric:<40s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
