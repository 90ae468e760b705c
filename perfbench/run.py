"""sedmtl benchmark: one workload of the real pipeline, in process.

    python3 perfbench/run.py --workload paper-train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/`. The run sets up the workload's inputs from the seed (several times,
reporting the median set-up time), then repeats the workload's pipeline of
`sedmtl` CLI calls until `--seconds` have passed, at least twice. Every
iteration's outputs are parsed and checked, and their sha256 digests must
match the first iteration's: the program is deterministic for one seed.

With `--trace 0` the last stdout line reports the end-to-end metrics, medians
over iterations. With `--trace 1` iterations alternate between untraced and
traced (see tracing.py); the last line reports per-layer counts and times
from the traced iterations, and the traced outputs must be byte-identical to
the untraced ones. Details (environment, digests, stage times, the full span
summary) go to `.perfbench/results/`, spans of traced runs next to them.

All runs are single-process with one BLAS thread; the variables below are set
before numpy loads.
"""

import argparse
import contextlib
import gzip
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["SEDMTL_WORKERS"] = "1"

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
OUT = REPO / ".perfbench"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class StageFailed(Exception):
    pass


class Runner:
    """Runs `sedmtl` CLI calls in process, timing each into a named stage."""

    def __init__(self, cli, log_path):
        self._cli = cli
        self._log_path = log_path
        self.stages = {}  # stage -> summed seconds
        self.samples = []  # (stage, seconds) per call
        self.calls = 0

    def cli(self, stage, argv):
        self.calls += 1
        with open(self._log_path, "a", encoding="utf-8") as log:
            log.write(f"$ sedmtl {' '.join(argv)}\n")
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                    code = self._cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the program failed; record it and go on reporting
                traceback.print_exc(file=log)
                code = -1
            seconds = time.perf_counter() - start
            self.stages[stage] = self.stages.get(stage, 0.0) + seconds
            self.samples.append((stage, seconds))
        if code != 0:
            raise StageFailed(f"sedmtl {argv[0]} exited with {code}")

    def log_exception(self):
        with open(self._log_path, "a", encoding="utf-8") as log:
            traceback.print_exc(file=log)


class Tally:
    """Checked operations and their failures; feeds attempted/failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)
            print(f"FAILED: {message}", file=sys.stderr)
        return ok


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu_model = ""
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    return {
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "SEDMTL_WORKERS": os.environ.get("SEDMTL_WORKERS"),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu_model,
    }


def loadavg():
    with contextlib.suppress(OSError):
        return Path("/proc/loadavg").read_text().split()[:3]
    return None


def run_setups(workload, runner, tally, work, seed):
    """Set the workload up `setup_repeats` times; returns the last context
    and every set-up time. Each repeat must produce the same outputs."""
    ctx, times, first = None, [], None
    for k in range(workload.setup_repeats):
        start = time.perf_counter()
        try:
            ctx, digests = workload.setup(runner, work / f"setup{k}", seed)
        except Exception as exc:  # StageFailed, or outputs that do not parse
            runner.log_exception()
            tally.record(False, f"set-up {k}: {exc!r}")
            return None, times
        times.append(time.perf_counter() - start)
        if first is None:
            first = digests
        else:
            tally.record(digests == first, f"set-up {k} outputs differ from set-up 0")
    return ctx, times


def run_iterations(workload, runner, tally, ctx, work, seconds, tracer):
    """Repeat the pipeline: at least twice, then while the next iteration
    should end within `seconds` judging by the mean so far. With a tracer,
    every second iteration is traced."""
    import layers

    iterations, snapshots = [], []
    begin = time.perf_counter()
    while not tally.failures and (
        len(iterations) < 2
        or (time.perf_counter() - begin) * (len(iterations) + 1) / len(iterations) <= seconds
    ):
        index = len(iterations)
        traced = tracer is not None and index % 2 == 1
        out = work / f"iter{index}"
        reset_dir(out)
        runner.stages, runner.samples = {}, []
        if traced:
            tracer.run_id = index
            tracer.install()
            unwrapped = tracer.unpatched_bindings()
            tally.record(not unwrapped, f"names left unwrapped: {unwrapped}")
        calls_before = runner.calls
        start = time.perf_counter()
        try:
            workload.iterate(runner, ctx, out)
            failure = None
        except StageFailed as exc:
            failure = str(exc)
        finally:
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        tally.attempted += runner.calls - calls_before - (failure is not None)
        if failure is not None:
            tally.record(False, failure)
            break
        try:
            digests, overall = workload.check(ctx, out)
        except Exception as exc:  # any way the outputs can fail to parse
            runner.log_exception()
            tally.record(False, f"iteration {index} outputs: {exc!r}")
            break
        tally.record(True, "")
        kind = "traced" if traced else "untraced"
        for name, digest in digests.items():
            if iterations:
                tally.record(digest == iterations[0]["digests"].get(name),
                             f"iteration {index} ({kind}) {name} differs from iteration 0")
        record = {"index": index, "traced": traced, "wall_s": wall,
                  "stages": dict(runner.stages), "digests": digests,
                  "eval_calls_s": [t for stage, t in runner.samples if stage == "eval"],
                  "f1_pct": overall["f1"], "er": overall["er"]}
        record.update(workload.stage_rates(ctx, runner.stages))
        iterations.append(record)
        if traced:
            snapshots.append(layers.snapshot(tracer, index))
            missing = [name for name in workload.expected_spans
                       if snapshots[-1]["calls"].get(name, 0) == 0]
            tally.record(not missing, f"self-test: no calls recorded for {missing}")
            tracer.reset()
        print(f"iteration {index} ({kind}): wall {wall:.3f} s, "
              + ", ".join(f"{k} {v:.3f} s" for k, v in runner.stages.items())
              + f"; F1 {overall['f1']:.2f}% ER {overall['er']:.3f}")
    return iterations, snapshots


def end_to_end(setup_times, plain):
    """End-to-end metrics, {name: (value, unit)}: medians over repeats.

    Peak RSS is reported beside them but not as a metric: between identical
    runs it moved by up to a fifth (heap retention by the allocator)."""
    metrics = {}
    if setup_times:
        metrics["setup_s"] = (statistics.median(setup_times), "s")
    if plain:
        metrics["wall_s"] = (statistics.median(it["wall_s"] for it in plain), "s")
        metrics["eval_s"] = (statistics.median(
            t for it in plain for t in it["eval_calls_s"]), "s")
    return metrics


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    Path(path).mkdir(parents=True)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "sedmtl" / "__init__.py").is_file():
        print(f"error: no sedmtl sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from sedmtl import cli

    import layers
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    env["loadavg_start"] = loadavg()
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / tag
    reset_dir(work)
    runner = Runner(cli, work / "sedmtl.log")
    tally = Tally()
    tracer = Tracer("sedmtl") if args.trace else None

    ctx, setup_times = run_setups(workload, runner, tally, work, args.seed)
    iterations, snapshots = [], []
    if ctx is not None:
        iterations, snapshots = run_iterations(
            workload, runner, tally, ctx, work, args.seconds, tracer)
    plain = [it for it in iterations if not it["traced"]]
    if tracer is not None:
        metrics = layers.metrics(snapshots, plain, [it for it in iterations if it["traced"]])
    else:
        metrics = end_to_end(setup_times, plain)
    env["loadavg_end"] = loadavg()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = len(tally.failures)
    attempted = max(tally.attempted, 1)
    result = {
        "correct": failed == 0 and len(iterations) >= 2,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_s": setup_times,
        "iterations": iterations, "failed_frac": failed / attempted,
        "failures": tally.failures, "peak_rss_mb": peak_rss_mb, **result,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        details["layers"] = snapshots
        details["computed_counts"] = layers.computed_repeats(snapshots)
        with gzip.open(results / f"{tag}-spans.json.gz", "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "run"],
                       "spans": tracer.spans}, fh)
    (results / f"{tag}.json").write_text(json.dumps(details, indent=1, sort_keys=True))
    if tally.failures:
        log = (work / "sedmtl.log").read_text(encoding="utf-8").splitlines()
        print("\n".join(["program log tail:"] + log[-20:]), file=sys.stderr)
    else:
        shutil.rmtree(work, ignore_errors=True)

    print(f"environment: {json.dumps(env, sort_keys=True)}")
    print(f"setup: {', '.join(f'{t:.3f}' for t in setup_times)} s; "
          f"failed {failed}/{attempted} (failed_frac {failed / attempted:.4f}); "
          f"peak RSS {peak_rss_mb:.1f} MB")
    if iterations:
        print("digests: " + ", ".join(
            f"{name} {digest[:16]}" for name, digest in sorted(iterations[0]["digests"].items())))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
