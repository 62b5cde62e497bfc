"""One benchmark job in a fresh process: set up, run, check, report.

    python3 perfbench/worker.py --workload pvh --seed 1 --job 0
                                [--trace | --setup-only]

The worker imports `qal` from the checkout's `src/`, builds the workload's
inputs (that is its set-up), runs the job once and checks every output.
Its last stdout line is a JSON object with the `time.monotonic()` reading
at the end of set-up (the clock is system-wide, so run.py subtracts its
own reading at spawn), the job's wall and CPU seconds, `ru_maxrss`, and the
failures by name.  With `--trace` it also reports per-layer numbers and
writes the job's spans under `.bench_build/perfbench/`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE.parent / ".bench_build" / "perfbench"
EXPECTED = HERE / "expected"

#: Strands of the rewrite forests, and forests per edge count: a fixed core
#: batch, and a batch drawn from the run's seed.  Normal-form cost per forest
#: is heavy-tailed (lex rewriting of one 6-edge forest takes 0.1 to 400 ms),
#: so a batch of 150 seeded forests made job times differ by about 25% from
#: seed to seed; the seeded part keeps to small forests.
FOREST_N = 7
CORE_FORESTS = {2: 30, 3: 30, 4: 30, 5: 30, 6: 30}
SEEDED_FORESTS = {2: 20, 3: 20, 4: 20}


def _euler(family: str, n: int, max_degree: int) -> list[str]:
    return ["verify", "euler", "--family", family, "--n", str(n),
            "--max-degree", str(max_degree), "--format", "json"]


def commands(workload: str) -> list[tuple[str, list[str]]]:
    """The CLI commands of one job, as (name, argv)."""
    if workload == "pvh":
        return [("pvh", ["verify", "pvh", "--family", "pvb", "--n", "5",
                         "--format", "json"])]
    if workload == "hilbert":
        return [("euler-pvb3", _euler("pvb", 3, 5)),
                ("euler-pfb5", _euler("pfb", 5, 4)),
                ("euler-pb5", _euler("pb", 5, 4)),
                ("psi6", ["verify", "psi", "--n", "6", "--format", "json"])]
    if workload == "rewrite":
        # A fixed confluence seed: its time varies by about 25% with the
        # seed, as its random monomials have the same heavy-tailed cost.
        return [("confluence0", ["verify", "confluence", "--n", "7",
                                 "--trials", "200", "--seed", "0"]),
                ("coproduct5", ["verify", "coproduct", "--n", "5"]),
                ("updown-n7-d3", ["basis", "updown", "--n", "7",
                                  "--degree", "3"])]
    raise ValueError(f"unknown workload {workload!r}")


def _draw(rng: random.Random, sizes: dict[int, int]) -> list[list[tuple[int, int]]]:
    """Random loop-free edge lists on FOREST_N strands, sizes[k] with k edges."""
    batch = []
    for k, count in sizes.items():
        for _ in range(count):
            parent = list(range(FOREST_N + 1))

            def find(x):
                while parent[x] != x:
                    x = parent[x]
                return x

            edges: list[tuple[int, int]] = []
            while len(edges) < k:
                a, b = rng.sample(range(1, FOREST_N + 1), 2)
                if find(a) != find(b):
                    parent[find(a)] = find(b)
                    edges.append((a, b))
            batch.append(edges)
    return batch


def forest_batch(seed: int) -> list[list[tuple[int, int]]]:
    """The rewrite workload's forests, the same for the same seed.

    The benchmark draws them with its own generator, not the program's, so
    a program change cannot change the workload.
    """
    return (_draw(random.Random("perfbench-rewrite:core"), CORE_FORESTS)
            + _draw(random.Random(f"perfbench-rewrite:{seed}"), SEEDED_FORESTS))


def check_outputs(outputs: dict[str, tuple[int, str]]) -> list[str]:
    """Each command's exit code, and its output against `expected/`."""
    errors = []
    for name, (rc, text) in outputs.items():
        if rc != 0:
            errors.append(f"{name}: exit code {rc}")
        exact = EXPECTED / name
        if exact.exists():
            if text != exact.read_text():
                errors.append(f"{name}: output differs from expected/{name}")
            continue
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest != (EXPECTED / f"{name}.sha256").read_text().split()[0]:
            errors.append(f"{name}: output digest {digest[:16]} differs "
                          f"from expected/{name}.sha256")
    return errors


def nf_digest(monos, prune, lex) -> str:
    h = hashlib.sha256()
    for m, p, l in zip(monos, prune, lex):
        for tag, nf in (("P", p), ("L", l)):
            h.update(f"{tag} {m} =".encode())
            for t, c in sorted(nf.items()):
                h.update(f" {c}*{t}".encode())
            h.update(b"\n")
    return h.hexdigest()


def check_normal_forms(monos, prune, lex) -> list[str]:
    """Shape invariants of every normal form, and exact core normal forms."""
    errors = []
    for m, p, l in zip(monos, prune, lex):
        if not all(t.forest(FOREST_N).is_chain_gang() for t in p):
            errors.append(f"prune_normal_form({m}): a term is not a chain gang")
        if not all(t.forest(FOREST_N).is_updown_forest() for t in l):
            errors.append(f"lex_normal_form({m}): a term is not an Up-Down forest")
    core = sum(CORE_FORESTS.values())
    want = (EXPECTED / "normal-forms-core.sha256").read_text().split()[0]
    if nf_digest(monos[:core], prune[:core], lex[:core]) != want:
        errors.append("normal forms of the core forests differ from "
                      "expected/normal-forms-core.sha256")
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--job", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true", dest="setup_only")
    args = ap.parse_args(argv)

    # -- set-up: import qal and build the inputs ----------------------------
    sys.path.insert(0, str(SRC))
    import qal.cli
    import qal.graph_basis as gb

    if not Path(qal.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"qal imported from {qal.__file__}, not from {SRC}")
    cmds = commands(args.workload)
    monos = []
    if args.workload == "rewrite":
        monos = [gb.WedgeMonomial.from_factors(edges)[0]
                 for edges in forest_batch(args.seed)]
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer(args.job)
        tracing.install(tracer)
        root = tracer.open(tracing.ROOT_SPAN)

    # -- the job ------------------------------------------------------------
    errors: list[str] = []
    outputs: dict[str, tuple[int, str]] = {}
    prune, lex = [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for name, cmd in cmds:
        out = io.StringIO()
        try:
            outputs[name] = (qal.cli.run(cmd, out=out), out.getvalue())
        except Exception as exc:  # a failed job is counted, not fatal
            errors.append(f"{name}: raised {exc!r}")
    try:
        for m in monos:
            prune.append(gb.prune_normal_form(m))
            lex.append(gb.lex_normal_form(m))
    except Exception as exc:
        errors.append(f"normal forms: raised {exc!r}")
    job_s = time.perf_counter() - t0
    cpu_s = time.process_time() - cpu0
    if tracer is not None:
        tracer.close(root)

    # -- checks (untimed) -----------------------------------------------------
    errors += check_outputs(outputs)
    if monos and len(prune) == len(monos) == len(lex):
        errors += check_normal_forms(monos, prune, lex)
        result["digest"] = nf_digest(monos, prune, lex)

    result.update(job_s=job_s, cpu_s=cpu_s, errors=errors,
                  maxrss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        result["timings"], result["counts"] = tracing.job_layers(tracer, job_s)
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}"
                                f"-job{args.job}.jsonl")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
