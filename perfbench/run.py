"""mpcover benchmark: three workloads, end-to-end metrics, and a traced run.

    python3 perfbench/run.py --workload survey-522 --seed 1 --seconds 30 --trace 0

Run from the checkout root (the directory holding ``src/mpcover``).  Every
measured run happens in a fresh interpreter (``child.py``), so set-up is cold
and no module-level cache carries over.  Workloads, a closed loop from this
one process with at most 2 worker processes:

* ``survey-522`` -- ``compute_D([5,2,2])``, t=2, d_max=4, threads=1, no
  checkpoint: the smallest shape where D = 3 is forced; the serial baseline.
* ``gk4-2t`` -- ``gk_survey(4, d=2, threads=2)`` with a fresh checkpoint
  file: the only workload using the process pool, sharding, checkpoint
  writes and survivor checks.
* ``fuzz`` -- seeded colorings in the ``mpcover fuzz`` distribution, cycling
  ``multipartite_cover``, ``tc2_cover`` and ``prune_with_constructions``,
  every cover re-checked by ``verify_cover``: large graphs (n <= 30), no
  symmetry, no pool.

Surveys are exhaustive and ignore ``--seed``.  A survey run repeats the
survey until ``--seconds`` have passed (at least once) and compares every
report byte for byte with ``golden/<workload>.json``; the fuzz run loops for
``--seconds``.  Any mismatch, exception or cover failing its check is a
failed operation, makes ``correct`` false and the exit code 1.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a traced run (``spans.py``) plus the tracing overhead
against an untraced run of the same work.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")
RUN_DIR = os.path.join(ROOT, ".perfbench-run")
# Bytecode is cached under RUN_DIR, never under src/, whatever the caller's
# environment; each run warms the cache with one unrecorded set-up.
CHILD_ENV = {k: v for k, v in os.environ.items()
             if k != "PYTHONDONTWRITEBYTECODE"}
CHILD_ENV["PYTHONPYCACHEPREFIX"] = os.path.join(RUN_DIR, "pycache")

THREADS = {"survey-522": 1, "gk4-2t": 2, "fuzz": 1}  # workload -> threads
SETUP_SAMPLES = 9          # set-up-only interpreters per run, besides the runs
RUN_BUDGET_S = 170.0       # a run must end within 180 s
TRACE_FUZZ_ITERATIONS = 6000  # fixed, so traced counts repeat exactly


def metric_units(kind):
    """{name: unit} of the ``end_to_end`` or ``per_layer`` metrics in
    BENCHMARK.json, which holds the metric names, units and directions."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class Run:
    """Failures and operation counts of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.started = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.started

    def child(self, spec):
        """Run child.py in a fresh interpreter; its JSON result, or None."""
        spec = dict(spec, root=ROOT, run_dir=RUN_DIR)
        timeout = max(1.0, RUN_BUDGET_S - self.elapsed())
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=RUN_DIR, start_new_session=True, env=CHILD_ENV)
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the child and its pool
            proc.communicate()
            self.failures.append(f"{spec['workload']}: child timed out")
            return None
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # stray pool workers
            except ProcessLookupError:
                pass
        if proc.returncode != 0 or not out.strip():
            tail = err.strip().splitlines()[-1:] or ["no output"]
            self.failures.append(f"{spec['workload']}: child exited "
                                 f"{proc.returncode}: {tail[0]}")
            return None
        return json.loads(out.strip().splitlines()[-1])

    def survey(self, workload, threads, trace=False):
        """One survey in a fresh interpreter, its report checked."""
        self.attempted += 1
        res = self.child({"workload": workload, "mode": "run",
                          "threads": threads, "trace": trace})
        if res is None:
            return None
        if res["failures"]:
            self.failures += res["failures"]
            return None
        problem = golden_mismatch(workload, res["report"])
        if problem:
            self.failures.append(problem)
            return None
        return res

    def fuzz(self, seed, seconds, iterations=None, trace=False):
        res = self.child({"workload": "fuzz", "mode": "run", "threads": 1,
                          "seed": seed, "seconds": seconds,
                          "iterations": iterations, "trace": trace})
        if res is None:
            self.attempted += 1
            return None
        self.attempted += res["iterations"]
        self.failures += res["failures"]
        return res

    def setups(self, workload, threads):
        """Set-up-only interpreters: [(seconds at reference speed, raw)]."""
        times = []
        for _ in range(SETUP_SAMPLES):
            res = self.child({"workload": workload, "mode": "setup",
                              "threads": threads})
            if res is not None:
                times.append((res["setup_s"], res["setup_raw_s"]))
        return times


def golden_mismatch(workload, report, golden_dir=GOLDEN):
    """None if the report equals the golden one byte for byte, else a note."""
    with open(os.path.join(golden_dir, workload + ".json")) as fh:
        golden = fh.read()
    if report == golden:
        return None
    return f"{workload}: report differs from golden/{workload}.json"


def quantile(values, q):
    """Nearest-rank quantile of a non-empty list."""
    s = sorted(values)
    return s[min(len(s) - 1, int(q * len(s)))]


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics
# ---------------------------------------------------------------------------

def measure(run, workload, seed, seconds):
    """(metrics {name: value}, printed extras [(name, value, unit)]).

    The gated times are at the reference speed of ``speed.py``; the printed
    extras are as measured.
    """
    threads = THREADS[workload]
    setups = run.setups(workload, threads)
    if workload == "fuzz":
        res = run.fuzz(seed, seconds)
        if res is None or not res["batches"]:
            return None, []
        setups.append((res["setup_s"], res["setup_raw_s"]))
        lat = res["latencies"]
        wall = statistics.median(res["batches_ref"])
        raw = statistics.median(res["batches"])
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "wall_s": wall,
            "colorings_per_s": res["batch_size"] / wall,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        extras = [
            ("setup_raw_s", statistics.median(r for _, r in setups), "s"),
            ("wall_raw_s", raw, "s"),
            ("iters_per_s", res["batch_size"] / raw, "iterations/s"),
            ("iter_p50_ms", 1e3 * quantile(lat, 0.50), "ms"),
            ("iter_p99_ms", 1e3 * quantile(lat, 0.99), "ms"),
            ("iter_samples", len(lat), "count"),
            ("batches", len(res["batches"]), "count"),
            ("prune_no_rule", res["no_rule"], "count"),
        ]
        return metrics, extras
    start = run.elapsed()
    reps = []
    while True:
        res = run.survey(workload, threads)
        if res is None:
            return None, []
        reps.append(res)
        if run.elapsed() - start >= seconds or \
                run.elapsed() + 1.5 * res["wall_s"] > RUN_BUDGET_S:
            break
    setups += [(r["setup_s"], r["setup_raw_s"]) for r in reps]
    wall = statistics.median(r["wall_s"] for r in reps)
    raw = statistics.median(r["wall_raw_s"] for r in reps)
    classes = reps[0]["classes"]
    metrics = {
        "setup_s": statistics.median(s for s, _ in setups),
        "wall_s": wall,
        "colorings_per_s": classes / wall,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reps),
    }
    extras = [
        ("setup_raw_s", statistics.median(r for _, r in setups), "s"),
        ("wall_raw_s", raw, "s"),
        ("classes_per_s", classes / raw, "classes/s"),
        ("speed_factor", statistics.median(r["speed"] for r in reps), "ratio"),
        ("classes", classes, "count"),
        ("surveys", len(reps), "count"),
        ("parallel_eff", statistics.median(
            r["cpu_s"] / (r["wall_raw_s"] * threads) for r in reps), "ratio"),
    ]
    return metrics, extras


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics
# ---------------------------------------------------------------------------

def traced_metrics(run, workload, seed):
    """Per-layer metrics {name: value} from one traced run, or None.

    The traced survey runs with threads=1: wrappers inside forked workers
    could not report back.  Tracing overhead is taken against an untraced
    run of the same work in its own interpreter; for gk4-2t that is an extra
    threads=1 run, next to the threads=2 one that gives parallel_eff.
    """
    threads = THREADS[workload]
    if workload == "fuzz":
        base = run.fuzz(seed, 0, TRACE_FUZZ_ITERATIONS)
        traced = run.fuzz(seed, 0, TRACE_FUZZ_ITERATIONS, trace=True)
        if base is None or traced is None:
            return None
        overhead = sum(traced["batches_ref"]) / sum(base["batches_ref"]) - 1
        parallel_eff = 0.0
        report = {"pruned_by_rule": {}, "classes_enumerated": 0}
    else:
        pooled = run.survey(workload, threads)
        base = pooled if threads == 1 else run.survey(workload, 1)
        traced = run.survey(workload, 1, trace=True)
        if pooled is None or base is None or traced is None:
            return None
        overhead = traced["wall_s"] / base["wall_s"] - 1
        parallel_eff = pooled["cpu_s"] / (pooled["wall_raw_s"] * threads)
        report = json.loads(traced["report"])

    m = {}
    for span, (n, secs) in traced["spans"].items():
        m.update({span + ".calls": n, span + ".writes": n, span + ".s": secs})
    m.update(traced["counts"])  # outcome counts, construct.case.<label> included
    m.update(traced["outcome_s"])
    for layer, secs in traced["layer_self_s"].items():
        m[layer + ".self_s"] = secs
    m = {name: m.get(name, 0) for name in metric_units("per_layer")}

    verify = m["covers.verify.calls"]
    if m["covers.verify.pass"] + m["covers.verify.fail"] != verify:
        run.failures.append("trace: covers.verify calls != pass + fail")
    classes = m["symmetry.classes"]
    if classes != report["classes_enumerated"]:
        run.failures.append("trace: symmetry.classes != classes_enumerated")
    m["covers.verify.pass_ratio"] = m["covers.verify.pass"] / verify if verify else 0.0
    m["search.decide_per_class"] = m["search.decide.calls"] / classes if classes else 0.0
    for rule, n in report["pruned_by_rule"].items():
        m["search.rule." + rule] = n
    m["search.parallel_eff"] = parallel_eff
    m["trace_overhead"] = overhead
    return m


# ---------------------------------------------------------------------------

def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(THREADS), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "mpcover", "__init__.py")):
        print(f"run.py: no mpcover package under {ROOT}/src; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if args.workload != "fuzz" and not os.path.isfile(
            os.path.join(GOLDEN, args.workload + ".json")):
        print(f"run.py: golden/{args.workload}.json is missing", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)

    run = Run()
    units = metric_units("per_layer" if args.trace else "end_to_end")
    run.child({"workload": args.workload, "mode": "setup",
               "threads": THREADS[args.workload]})  # warms the bytecode cache
    if args.trace:
        metrics = traced_metrics(run, args.workload, args.seed)
        extras = []
    else:
        metrics, extras = measure(run, args.workload, args.seed, args.seconds)
    if metrics is None and not run.failures:
        run.failures.append("no measurement was completed")
    failed = len(run.failures)
    attempted = max(run.attempted, failed, 1)

    print(f"# workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for note in run.failures[:20]:
        print(f"FAILED {note}")
    for name, value in sorted((metrics or {}).items()):
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    for name, value, unit in extras:
        print(f"{name:<40} {value:>16.6g} {unit}")
    print(f"{'error_rate':<40} {failed / attempted:>16.6g} fraction "
          f"({failed} of {attempted})")
    correct = not run.failures and metrics is not None
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in (metrics or {}).items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
