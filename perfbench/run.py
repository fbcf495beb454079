"""finrep benchmark: three seeded closed-loop workloads with oracles.

One run of one workload (the form a harness calls):

    python3 perfbench/run.py --workload cli --seed 0 --seconds 25 --trace 0

With `--trace 0` it times whole rounds of the workload's operations
until `--seconds` have passed and prints the end-to-end metrics.  With
`--trace 1` it runs the workload's trace slice (one operation of each
kind) untraced, then again with the tracer installed, and prints the
per-layer metrics and the tracing overhead.  Either way the last line of
standard output is one JSON object:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
`failed` counts operations that disagreed with their oracle in any way;
`correct` is false when an operation answered with verdicts, witnesses,
notes or report bytes other than expected (a crash, or a missing
refusal, fails the operation without making the answer wrong).

Every workload, end to end and traced, with a result file:

    python3 perfbench/run.py --all --runs 3 --out result.json

Ratios of a result file against an earlier one, one row per workload:

    python3 perfbench/run.py --compare old.json new.json

The tracer self-test: `python3 -m pytest perfbench/tests`.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 3
# one BLAS/OpenMP thread here and in every child: a workload runs one
# busy process at a time, well within the two CPUs it is sized for
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
E2E_UNITS = {
    "verdict_s.p50": "s",
    "verdict_s.p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _require_program():
    missing = [p for p in (SRC / "finrep" / "cli.py", ROOT / "corpus" / "membership2.doc")
               if not p.is_file()]
    if missing:
        print(f"error: the finrep sources are not here: {missing[0]} is missing",
              file=sys.stderr)
        raise SystemExit(2)


def _prepare_imports():
    os.environ.update(THREAD_ENV)       # before numpy loads its BLAS
    sys.path[:0] = [str(SRC), str(HERE)]


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "child_thread_env": dict(THREAD_ENV),
    }


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    k = max(1, -(-len(ordered) * q // 1))        # ceil(n q), at least 1
    return ordered[int(k) - 1]


# ------------------------------------------------------------ one run

class Run:
    def __init__(self, workload_name: str, seed: int):
        import numpy as np
        from workloads import WORKLOADS

        self.np = np
        self.workload = WORKLOADS[workload_name]()
        self.seed = seed
        (HERE / "_work").mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=HERE / "_work"))
        self.records = []          # (op, outcome, mismatch or None)
        self.first_bytes = {}

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass

    def setup(self):
        self.workload.setup(self.seed, self.work)

    def execute(self, ops):
        from workloads import check

        outcomes = []
        for op in ops:
            out = op.call()
            bad = check(op, out)
            if bad is None and out.text:
                first = self.first_bytes.setdefault(op.key, out.text)
                if first != out.text:
                    bad = ("wrong", "report bytes differ from an earlier run of this operation")
            self.records.append((op, out, bad))
            outcomes.append(out)
        return outcomes

    def summary(self) -> tuple[bool, int, int]:
        failed = [r for r in self.records if r[2] is not None]
        correct = not any(r[2][0] == "wrong" for r in failed)
        return correct, len(self.records), len(failed)

    def print_failures(self):
        seen = Counter((op.key, bad) for op, _, bad in self.records if bad is not None)
        for (key, (kind, reason)), count in seen.items():
            print(f"  {kind}: {key}  x{count}  -- {reason}")


def setup_samples(workload: str, seed: int) -> list[float]:
    """Set-up time of fresh processes: imports, inputs and warm-up."""
    samples = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-only",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-400:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def measure(workload: str, seed: int, seconds: float) -> dict:
    setup_times = setup_samples(workload, seed)
    run = Run(workload, seed)
    try:
        run.setup()
        rng = run.np.random.default_rng([seed, 4])
        outcomes = []
        rounds = 0
        t0 = time.perf_counter()
        while True:
            outcomes += run.execute(run.workload.round(rng))
            rounds += 1
            elapsed = time.perf_counter() - t0
            # start another round only if it would end nearer the deadline
            if elapsed + elapsed / rounds / 2 >= seconds:
                break
        correct, attempted, failed = run.summary()
        times = [o.seconds for o in outcomes]
        n = len(times)
        p90 = nearest_rank(times, 0.9)
        metrics = {
            "verdict_s.p50": nearest_rank(times, 0.5),
            "verdict_s.p90": p90,
            "ops_per_s": n / elapsed,
            "peak_rss_mb": run.workload.peak_rss_mb(outcomes),
            "setup_s": statistics.median(setup_times),
        }
        print(f"perfbench {workload} seed {seed}: {rounds} round(s), {n} operations "
              f"in {elapsed:.2f} s")
        print(f"  env: {json.dumps(environment())}")
        print(f"  setup_s        {metrics['setup_s']:.4f} s  "
              f"(median of {len(setup_times)} fresh processes: "
              + ", ".join(f"{t:.3f}" for t in setup_times) + ")")
        print(f"  verdict_s.p50  {metrics['verdict_s.p50']:.4f} s  (n={n})")
        print(f"  verdict_s.p90  {p90:.4f} s  (n={n}, {sum(t > p90 for t in times)} beyond)")
        print(f"  ops_per_s      {metrics['ops_per_s']:.4f} 1/s")
        print(f"  failed_frac    {failed / attempted:.4f} ratio  ({failed}/{attempted})")
        print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
        if n - -(-n * 9 // 10) < 10:
            print(f"  warning: only {n} operations, fewer than ten beyond p90")
        by_kind = {}
        for op, out, _ in run.records:
            by_kind.setdefault(op.kind, []).append(out.seconds)
        print("  by kind: " + ", ".join(
            f"{k} {len(v)}x{statistics.median(v):.3f}s" for k, v in sorted(by_kind.items())))
        run.print_failures()
        failed_ops = sorted({op.key for op, _, bad in run.records if bad is not None})
        print("detail: " + json.dumps({"failed_frac": failed / attempted,
                                       "failed_ops": failed_ops, "n": n,
                                       "env": environment()}))
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}
    finally:
        run.close()


def traced_slice(workload: str, seed: int):
    """Run the trace slice untraced, then traced.

    Returns (run, span snapshot, cli import seconds, untraced wall,
    traced wall).  The caller closes the run.
    """
    run = Run(workload, seed)
    try:
        return run, *_traced_passes(run, seed)
    except BaseException:
        run.close()
        raise


def _traced_passes(run: Run, seed: int):
    import tracer as tr

    run.setup()
    slice_seed = [seed, 9]
    if run.workload.in_process:
        # one pass first, so both timed passes find the interned carriers
        # that the first operation of each kind leaves behind
        run.execute(run.workload.trace_slice(run.np.random.default_rng(slice_seed), False))
    t0 = time.perf_counter()
    run.execute(run.workload.trace_slice(run.np.random.default_rng(slice_seed), False))
    wall_untraced = time.perf_counter() - t0

    traced_ops = run.workload.trace_slice(run.np.random.default_rng(slice_seed), True)
    if run.workload.in_process:
        with tr.Tracer() as tracer:
            t0 = time.perf_counter()
            run.execute(traced_ops)
            wall_traced = time.perf_counter() - t0
        return tracer.snapshot(), 0.0, wall_untraced, wall_traced
    t0 = time.perf_counter()
    outcomes = run.execute(traced_ops)
    wall_traced = time.perf_counter() - t0
    snaps = [o.stats for o in outcomes if o.stats]
    import_s = sum(s["import_s"] for s in snaps)
    return tr.merge(snaps), import_s, wall_untraced, wall_traced


def measure_traced(workload: str, seed: int) -> dict:
    import tracer as tr

    run, snap, import_s, wall_untraced, wall_traced = traced_slice(workload, seed)
    try:
        metrics = tr.per_layer(snap, import_s, wall_traced, wall_untraced)
        correct, attempted, failed = run.summary()
        self_sum = tr.self_time_total(snap)
        print(f"perfbench {workload} seed {seed} traced: {attempted} operations, "
              f"untraced {wall_untraced:.2f} s, traced {wall_traced:.2f} s, "
              f"self times sum {self_sum:.2f} s")
        if self_sum > wall_traced or any(v[2] < -1e-9 for v in snap["stats"].values()):
            print("  warning: span self times are inconsistent with the traced wall time")
        for name, (value, unit) in metrics.items():
            print(f"  {name:44s} {value:.6g} {unit}")
        run.print_failures()
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    finally:
        run.close()


# ------------------------------------------------- all, and compare

def run_all(workloads: list[str], runs: int, seconds: int, seed0: int, out: str | None):
    result = {"schema": "perfbench-result/1", "seconds": seconds, "env": environment(),
              "workloads": {}}
    for w in workloads:
        entry = result["workloads"][w] = {"runs": [], "trace": None}
        for r in range(runs):
            seed = seed0 + r
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{w} seed {seed} failed")
            lines = proc.stdout.strip().splitlines()
            detail = next(json.loads(x[len("detail: "):]) for x in lines
                          if x.startswith("detail: "))
            res = json.loads(lines[-1])
            entry["runs"].append({"seed": seed, **res, **detail})
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(seed0),
             "--seconds", str(seconds), "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{w} traced run failed")
        entry["trace"] = json.loads(proc.stdout.strip().splitlines()[-1])
    print()
    print_table(result)
    if out:
        Path(out).write_text(json.dumps(result, indent=1) + "\n")
        print(f"wrote {out}")


def _values(entry: dict, metric: str) -> list[float]:
    if metric == "failed_frac":
        return [r["failed_frac"] for r in entry["runs"]]
    return [r["metrics"][metric]["value"] for r in entry["runs"]]


def spread(values: list[float]) -> float | None:
    """Quartile distance over the median; None below four values."""
    if len(values) < 4:
        return None
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else None


def print_table(result: dict):
    for w, entry in result["workloads"].items():
        n = entry["runs"][0]["n"] if entry["runs"] else 0
        print(f"{w}: {len(entry['runs'])} run(s), {n} operations in the first")
        for metric, unit in list(E2E_UNITS.items()) + [("failed_frac", "ratio")]:
            vals = _values(entry, metric)
            med = statistics.median(vals)
            sp = spread(vals)
            tail = f"  spread {sp:.3f}" if sp is not None else ""
            print(f"  {metric:14s} {med:.4f} {unit}{tail}")
        failing = sorted({k for r in entry["runs"] for k in r["failed_ops"]})
        for key in failing:
            print(f"    failing: {key}")


def compare(old_path: str, new_path: str):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    print(f"old: {old_path}  env {json.dumps(old['env'])}")
    print(f"new: {new_path}  env {json.dumps(new['env'])}")
    for w, entry in new["workloads"].items():
        base = old["workloads"].get(w)
        if base is None:
            print(f"{w}: not in {old_path}")
            continue
        cells = []
        for metric in list(E2E_UNITS) + ["failed_frac"]:
            a, b = _values(base, metric), _values(entry, metric)
            ma, mb = statistics.median(a), statistics.median(b)
            ratio = f"{mb / ma:.3f}x" if ma else f"{ma:g}->{mb:g}"
            bound, better = bounds.get(metric, (None, "lower"))
            if bound is None:
                cells.append(f"{metric} {ratio}")
                continue
            spreads = [spread(a), spread(b)]
            worse = (mb > ma * (1 + bound)) if better == "lower" else (mb < ma * (1 - bound))
            every_better = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
            if any(s is None or s > bound for s in spreads) and not every_better:
                status = "unresolved"
            else:
                status = "worse" if worse else "ok"
            cells.append(f"{metric} {ratio} {status}")
        print(f"{w}: " + "; ".join(cells))


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["cli", "probe-checks", "kleene"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--all", action="store_true", help="run every workload")
    p.add_argument("--runs", type=int, default=1, help="untraced runs per workload with --all")
    p.add_argument("--out", help="result file for --all")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = p.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    _require_program()
    _prepare_imports()
    if args.seconds < 1 or args.runs < 1:
        p.error("--seconds and --runs must be at least 1")
    if args.all:
        run_all(["cli", "probe-checks", "kleene"], args.runs, args.seconds, args.seed, args.out)
        return 0
    if args.workload is None:
        p.error("give --workload, --all or --compare")
    if args.setup_only:
        run = Run(args.workload, args.seed)
        try:
            run.setup()
            print(json.dumps({"setup_s": time.perf_counter() - _PROCESS_START}))
        finally:
            run.close()
        return 0
    if args.trace:
        result = measure_traced(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
