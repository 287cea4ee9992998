"""Self-test of the benchmark's own gates and tracing.

    python3 perfbench/selftest.py            # about two minutes

Checks that a corrupted golden report, a cover failing its check, an
exception and a pre-existing checkpoint file each count as failures; and that
two traced runs of the same work give identical counts (checkpoint bytes
within 0.1%: the checkpoint embeds elapsed seconds), with covers.verify calls
equal to passes plus failures.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import child
import run

FAILED = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILED.append(what)


def golden_gate(tmp):
    for workload in ("survey-522", "gk4-2t"):
        with open(os.path.join(run.GOLDEN, workload + ".json")) as fh:
            golden = fh.read()
        check(run.golden_mismatch(workload, golden) is None,
              f"{workload}: the golden report matches itself")
        bad = json.loads(golden)
        bad["classes_enumerated"] += 1
        corrupted = [json.dumps(bad, indent=2, sort_keys=True) + "\n",
                     golden.rstrip("\n"),
                     golden.replace('"d": ', '"d":  ', 1)]
        for i, text in enumerate(corrupted):
            with open(os.path.join(tmp, workload + ".json"), "w") as fh:
                fh.write(text)
            check(run.golden_mismatch(workload, golden, golden_dir=tmp) is not None,
                  f"{workload}: corrupted golden report {i} is detected")


def fuzz_gate(mods):
    from mpcover.errors import ConstructionExhausted
    construct, covers = mods["construct"], mods["covers"]
    real_tc2, real_mp = construct.tc2_cover, construct.multipartite_cover

    def short_tc2(chi):
        cover = real_tc2(chi)
        sub = cover.subgraphs[0]
        vs = sorted(sub.vertices)
        if len(vs) == 1:
            return covers.Cover(cover.subgraphs[1:])
        return covers.Cover((covers.MonoSubgraph(sub.color, frozenset(vs[1:])),)
                            + cover.subgraphs[1:])

    def exhausted(chi):
        raise ConstructionExhausted("forced", chi)

    spec = {"seed": 5, "seconds": 0, "iterations": 30}
    try:
        construct.tc2_cover = short_tc2
        res = child.run_fuzz(spec, mods)
        check(len(res["failures"]) >= 1, "a cover failing verify_cover is a failure")
        construct.tc2_cover = real_tc2
        construct.multipartite_cover = exhausted
        res = child.run_fuzz(spec, mods)
        check(len(res["failures"]) == 10,
              "ConstructionExhausted is a failure (10 of 10 construct iterations)")
    finally:
        construct.tc2_cover, construct.multipartite_cover = real_tc2, real_mp
    res = child.run_fuzz(spec, mods)
    check(not res["failures"] and res["iterations"] == 30,
          "the unmodified package passes 30 fuzz iterations")


def checkpoint_gate(mods, tmp):
    stale = os.path.join(tmp, "stale")
    os.makedirs(stale)
    with open(os.path.join(stale, "gk4.checkpoint.json"), "w") as fh:
        fh.write("{}")
    real = child.tempfile.mkdtemp
    try:
        child.tempfile.mkdtemp = lambda **kw: stale
        res = child.run_survey({"workload": "gk4-2t", "threads": 1,
                                "run_dir": tmp}, mods)
    finally:
        child.tempfile.mkdtemp = real
    check(bool(res["failures"]) and "wall_s" not in res,
          "an existing checkpoint file fails the run before any work")
    check(not os.path.exists(stale), "the checkpoint directory is removed")


def traced_twice(workload):
    r = run.Run()
    threads = 1
    runs = []
    for _ in range(2):
        if workload == "fuzz":
            runs.append(r.fuzz(7, 0, 1500, trace=True))
        else:
            runs.append(r.survey(workload, threads, trace=True))
    check(not r.failures, f"{workload}: two traced runs complete "
          f"{r.failures[:1]}")
    if r.failures:
        return
    a, b = runs
    calls_a = {k: v[0] for k, v in a["spans"].items()}
    calls_b = {k: v[0] for k, v in b["spans"].items()}
    # The checkpoint embeds the elapsed seconds, so its size varies slightly.
    bytes_a = a["counts"].pop("search.checkpoint.bytes", 0)
    bytes_b = b["counts"].pop("search.checkpoint.bytes", 0)
    differ = sorted(k for k in set(calls_a) | set(calls_b)
                    if calls_a.get(k) != calls_b.get(k))
    differ += sorted(k for k in set(a["counts"]) | set(b["counts"])
                     if a["counts"].get(k) != b["counts"].get(k))
    check(not differ, f"{workload}: span and outcome counts identical across "
          f"two traced runs {differ}")
    check(abs(bytes_a - bytes_b) <= 0.001 * max(bytes_a, bytes_b),
          f"{workload}: checkpoint bytes within 0.1% ({bytes_a} vs {bytes_b})")
    verify = calls_a.get("covers.verify", 0)
    check(verify > 0 and verify == a["counts"].get("covers.verify.pass", 0)
          + a["counts"].get("covers.verify.fail", 0),
          f"{workload}: covers.verify calls ({verify}) == pass + fail")


def main():
    os.makedirs(run.RUN_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.RUN_DIR)
    try:
        golden_gate(tmp)
        _, _, mods = child.set_up({"root": run.ROOT, "workload": "fuzz",
                                "threads": 1})
        fuzz_gate(mods)
        checkpoint_gate(mods, tmp)
        for workload in ("fuzz", "survey-522", "gk4-2t"):
            traced_twice(workload)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selftest:", "FAILED" if FAILED else "passed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
