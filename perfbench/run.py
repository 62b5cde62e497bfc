"""The qal benchmark: end-to-end job metrics and a traced per-layer breakdown.

    python3 perfbench/run.py --workload pvh|hilbert|rewrite|all --seed N
                             --seconds S --trace 0|1

Run it from the root of a checkout.  Each job is a fixed list of `qal`
commands run in a fresh single-threaded worker process (`worker.py`), the
way a CLI user runs them; one worker runs at a time.  Jobs repeat for
about `--seconds`.  The last stdout line is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`; the lines before it print
every metric by name with its unit.

With `--trace 0` the metrics are the end-to-end ones of BENCHMARK.json:
set-up time of a fresh worker, median job wall time, and peak worker RSS.
With `--trace 1` traced and untraced jobs alternate and the metrics are the
per-layer ones (see tracing.py), plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("pvh", "hilbert", "rewrite")

#: Fewest jobs per run, and fewest set-ups timed per run.
MIN_JOBS = 3
MIN_SETUPS = 20
#: No worker starts after this many seconds of a run, and none outlives it.
RUN_LIMIT_S = 170
#: Largest layer of the traced baseline.  Printed beside the measured one and
#: not enforced: a change that speeds up that layer is meant to change it.
BASELINE_LARGEST = {"pvh": "exact_core.nullspace",
                    "hilbert": "exact_core.echelon",
                    "rewrite": "graph_basis.prune_normal_form"}


class Run:
    """One benchmark invocation on one workload."""

    def __init__(self, workload: str, seed: int, seconds: int):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def worker(self, *flags: str) -> tuple[dict | None, str]:
        """Run one worker; (its result, or None with the reason)."""
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), *flags]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "worker timed out"
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
            return None, f"worker failed: {tail[0]}"
        res = json.loads(lines[-1])
        res["setup_s"] = res["ready"] - spawned
        return res, ""

    def jobs(self, flag_cycle: list[list[str]], min_each: int) -> list[dict]:
        """Jobs until --seconds have passed, cycling through flag sets."""
        done: list[dict] = []
        k = 0
        last = 0.0
        # A job starts while it would end, on average, within --seconds.
        while (k < min_each * len(flag_cycle)
               or self.elapsed() + last / 2 < self.seconds) \
                and self.elapsed() < RUN_LIMIT_S:
            flags = flag_cycle[k % len(flag_cycle)]
            res, why = self.worker("--job", str(k), *flags)
            if res is None:
                done.append({"errors": [f"job {k}: {why}"]})
                break
            last = res["job_s"] + res["setup_s"]
            res["errors"] = [f"job {k}: {e}" for e in res["errors"]]
            done.append(res)
            k += 1
        digests = {r["digest"] for r in done if "digest" in r}
        if len(digests) > 1:
            for r in done:
                if r.get("digest") != done[0].get("digest"):
                    r["errors"].append("normal-form digest differs between "
                                       "jobs of the same seed")
        return done

    def setups(self, done: list[dict]) -> list[float]:
        times = [r["setup_s"] for r in done if "setup_s" in r]
        while len(times) < MIN_SETUPS and self.elapsed() < RUN_LIMIT_S:
            res, _ = self.worker("--setup-only")
            if res is None:
                break
            times.append(res["setup_s"])
        return times


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run: Run) -> tuple[dict, list[dict]]:
    done = run.jobs([[]], MIN_JOBS)
    setups = run.setups(done)
    timed = [r for r in done if "job_s" in r]
    metrics = {
        "setup_s": _median(setups),
        "job_s": _median([r["job_s"] for r in timed]),
        "peak_rss_mb": max((r["maxrss_kb"] for r in timed), default=0) / 1024,
    }
    failed = sum(1 for r in done if r["errors"])
    print(f"workload {run.workload}  seed {run.seed}  trace 0")
    print(f"  setup_s      {metrics['setup_s']:.4f} s    "
          f"median of {len(setups)} fresh workers")
    print(f"  job_s        {metrics['job_s']:.4f} s    median of {len(timed)} "
          f"jobs; cpu {_median([r['cpu_s'] for r in timed]):.4f} s (diagnostic)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.2f} MiB")
    print(f"  fail_ratio   {failed / len(done):.4f} 1     "
          f"{failed} of {len(done)} jobs failed")
    for r in done:
        if "digest" in r:
            print(f"  normal-form digest {r['digest'][:16]}")
            break
    return metrics, done


def per_layer(run: Run) -> tuple[dict, list[dict], list[str]]:
    import tracing

    done = run.jobs([["--trace"], []], 2)
    traced = [r for r in done if "timings" in r]
    plain = [r for r in done if "job_s" in r and "timings" not in r]
    problems = []
    if len(traced) < 2 or not plain:
        problems.append("too few traced and untraced jobs")
        return {}, done, problems

    metrics = {}
    for key in traced[0]["timings"]:
        if not key.endswith(".calls_ms"):
            metrics[key] = _median([r["timings"][key] for r in traced])
    for layer in tracing.PER_CALL:
        calls = [ms for r in traced for ms in r["timings"][f"{layer}.calls_ms"]]
        metrics[f"{layer}.p50_ms"] = tracing.percentile(calls, 50)
        metrics[f"{layer}.p99_ms"] = tracing.percentile(calls, 99)
    counts = traced[0]["counts"]
    differ = sorted({k for r in traced for k in counts
                     if r["counts"][k] != counts[k]})
    if differ:
        problems.append(f"counts differ between traced jobs: {differ}")
    metrics.update({k: v for k, v in counts.items() if not isinstance(v, list)})
    metrics["trace.overhead_ratio"] = metrics["trace.job_s"] / _median(
        [r["job_s"] for r in plain]) - 1
    if metrics["trace.coverage_ratio"] < 0.95:
        problems.append("spans cover only "
                        f"{metrics['trace.coverage_ratio']:.3f} of the job")

    layers = {k[:-len(".self_s")]: v for k, v in metrics.items()
              if k.endswith(".self_s")}
    top = max(layers, key=layers.get)
    print(f"workload {run.workload}  seed {run.seed}  trace 1  "
          f"({len(traced)} traced, {len(plain)} untraced jobs)")
    print(f"  largest layer: {top} "
          f"({layers[top] / metrics['trace.job_s']:.1%} of the traced job; "
          f"baseline: {BASELINE_LARGEST[run.workload]})")
    print(f"  relation_blocks_rank ranks: "
          f"{counts['quad_algebra.relation_blocks_rank.ranks']}")
    print(f"  exact counts repeat across traced jobs: "
          f"{'no' if differ else 'yes'}")
    return metrics, done, problems


def measure(workload: str, seed: int, seconds: int, trace: bool,
            spec: dict) -> dict:
    run = Run(workload, seed, seconds)
    if trace:
        values, done, problems = per_layer(run)
        wanted = spec["per_layer"]
    else:
        (values, done), problems = end_to_end(run), []
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            if trace:
                print(f"  {m['name']:48s} {values[m['name']]:.6g} {m['unit']}")
        elif values:
            problems.append(f"metric {m['name']} was not measured")
    errors = [e for r in done for e in r["errors"]] + problems
    for e in errors:
        print(f"  FAIL {e}")
    failed = sum(1 for r in done if r["errors"])
    return {"correct": not errors, "attempted": len(done), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "qal" / "cli.py").is_file():
        print(f"error: no qal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {w: measure(w, args.seed, args.seconds, bool(args.trace), spec)
               for w in names}
    if len(results) == 1:
        out = results[args.workload]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": v for w, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
