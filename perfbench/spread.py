"""Run the benchmark over several seeds and report how steady it is.

    python3 perfbench/spread.py --workload eval-many --seeds 1-10 --trace 0

For each metric: the median over seeds, the distance between the first and
third quartile as a share of the median (`statistics.quantiles(n=4)`), and the
bound from BENCHMARK.json where there is one. With `--trace 1` it also says,
for each count derived from shapes rather than measured, in how many runs it
repeated the first run's value exactly. Runs are made one after another.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from layers import COMPUTED

HERE = Path(__file__).resolve().parent
REPO = HERE.parent


def _seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=REPO, capture_output=True, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        results.append(result)
        print(f"seed {seed}: correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", flush=True)

    print(f"{'metric':48} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (0, 0, 0)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        line = f"{name:48} {median:12.6g} {spread:8.4f} {bound if bound else '':>6}"
        if name in COMPUTED:
            same = sum(v == values[0] for v in values)
            line += f"  computed; repeated exactly in {same}/{len(values)} runs"
        print(line)
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
