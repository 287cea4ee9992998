"""One measured run of a benchmark workload, in a fresh interpreter.

Invoked by ``run.py`` as ``python3 perfbench/child.py '<json spec>'``; prints
one JSON object as its last stdout line.  A fresh interpreter per run keeps
module-level caches (the survey engine cache, per-coloring distance caches)
from carrying over, so every set-up is a cold start.

Timings come raw (``*_raw_s``) and at the reference speed of ``speed.py``.

Spec keys: ``root`` (checkout root), ``workload``, ``mode`` ("setup", "run"),
``threads``, ``trace`` (bool), ``seed``, ``seconds``, ``iterations`` (fuzz:
a fixed count instead of a time budget), ``run_dir`` (scratch directory
inside the checkout).
"""

from __future__ import annotations

import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time

import speed
from spans import Tracer

clock = time.perf_counter

SURVEY_SHAPES = {"survey-522": [5, 2, 2], "gk4-2t": [2, 2, 2, 2]}
PRUNE_SHAPE = [2, 2, 2, 2, 2]
FUZZ_KINDS = ("construct", "tc2", "prune")
FUZZ_BATCH = 600  # iterations per timed batch, 200 of each kind


def cpu_seconds():
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    """Peak RSS of this interpreter plus the largest of its waited-for children."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0


def _noop(_):
    return os.getpid()


def set_up(spec):
    """Cold start: import, build_shape, symmetry_group, pool start.

    Returns (raw seconds, seconds at reference speed, modules).  The pool is
    the kind the survey engine uses (fork context, ``threads`` workers); it is
    started, used once per worker and shut down, since the engine starts its
    own.  The reference loop runs three times before and twice after.
    """
    calib = [speed.calibrate() for _ in range(3)]
    t0 = clock()
    src = os.path.join(spec["root"], "src")
    sys.path.insert(0, src)
    from mpcover import construct, covers, graphs, search, symmetry
    if not os.path.abspath(graphs.__file__).startswith(os.path.abspath(src) + os.sep):
        raise RuntimeError(f"mpcover imported from {graphs.__file__}, not {src}")
    workload = spec["workload"]
    if workload in SURVEY_SHAPES:
        shape = graphs.build_shape(SURVEY_SHAPES[workload])
        symmetry.symmetry_group(shape)
        if spec["threads"] > 1:
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context
            with ProcessPoolExecutor(max_workers=spec["threads"],
                                     mp_context=get_context("fork")) as pool:
                list(pool.map(_noop, range(spec["threads"])))
    else:
        graphs.build_shape(PRUNE_SHAPE)
    raw = clock() - t0
    calib += [speed.calibrate() for _ in range(2)]
    mods = {"construct": construct, "covers": covers, "graphs": graphs,
            "search": search, "symmetry": symmetry}
    return raw, raw * speed.factor([statistics.median(calib)]), mods


# ---------------------------------------------------------------------------
# surveys
# ---------------------------------------------------------------------------

def run_survey(spec, mods, tracer=None):
    search = mods["search"]
    workload = spec["workload"]
    threads = spec["threads"]
    ckpt_dir = None
    out = {"failures": []}
    try:
        if workload == "gk4-2t":
            ckpt_dir = tempfile.mkdtemp(prefix="gk4-", dir=spec["run_dir"])
            ckpt = os.path.join(ckpt_dir, "gk4.checkpoint.json")
            if os.path.exists(ckpt):
                # compute_D would silently resume from it
                out["failures"].append(f"checkpoint {ckpt} already exists")
                return out
        root = tracer.begin("bench.survey") if tracer is not None else None
        cpu0 = cpu_seconds()
        with speed.Sampler() as sampler:
            t0 = clock()
            if workload == "survey-522":
                result = search.compute_D(SURVEY_SHAPES[workload], t=2,
                                          d_max=4, threads=threads)
            else:
                result = search.gk_survey(4, d=2, threads=threads,
                                          checkpoint_path=ckpt)
            wall = clock() - t0
        cpu = cpu_seconds() - cpu0
        if root is not None:
            tracer.end(root)
    finally:
        if ckpt_dir is not None:
            for name in os.listdir(ckpt_dir):
                os.unlink(os.path.join(ckpt_dir, name))
            os.rmdir(ckpt_dir)
    scale = sampler.factor()
    out.update({
        "wall_raw_s": wall,
        "wall_s": wall * scale,
        "speed": scale,
        "cpu_s": cpu,
        "classes": result.classes,
        "report": json.dumps(result.to_json(timing=False), indent=2,
                             sort_keys=True) + "\n",
    })
    return out


# ---------------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------------

def random_sizes(rng, k_lo, k_hi, n_max):
    """The part-size distribution of the ``mpcover fuzz`` drivers."""
    k = rng.randint(k_lo, k_hi)
    sizes = [1] * k
    budget = n_max - k
    for i in range(k):
        take = rng.randint(0, min(5, budget))
        sizes[i] += take
        budget -= take
    return sizes


def random_input(rng, kind):
    """(part sizes, edge bits) of one seeded coloring for an iteration kind."""
    if kind == "construct":
        sizes = random_sizes(rng, 3, 6, 30)
    elif kind == "tc2":
        sizes = random_sizes(rng, 2, 6, 30)
    else:
        sizes = PRUNE_SHAPE
    m = sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1:])
    return sizes, rng.getrandbits(m)


def fuzz_one(mods, kind, sizes, bits):
    """Cover one coloring and re-check it; returns a failure note, "no-rule"
    when no prune rule applies (not a claim, so nothing to check), or None."""
    graphs, covers = mods["graphs"], mods["covers"]
    chi = graphs.EdgeColoring(graphs.build_shape(sizes), bits)
    if kind == "construct":
        cover, _ = mods["construct"].multipartite_cover(chi)
        d = 3
    elif kind == "tc2":
        cover = mods["construct"].tc2_cover(chi)
        d = chi.n
    else:
        cover = mods["search"].prune_with_constructions(chi, 2)
        if cover is None:
            return "no-rule"
        d = 2
    bad = covers.verify_cover(chi, cover, d, 2)
    if bad is not None:
        return f"{kind} {sizes} bits={bits:x}: {bad.describe()}"
    return None


def run_fuzz(spec, mods, tracer=None):
    """Fuzz iterations for ``seconds`` (whole batches) or a fixed count.

    After each batch the reference loop runs, outside the timed iterations,
    and scales that batch.  When traced, each iteration is a root span that
    its spans descend from.
    """
    rng = random.Random(spec["seed"])
    fixed = spec.get("iterations")
    deadline = clock() + spec["seconds"]
    latencies = []
    batches = []
    batches_ref = []
    failures = []
    no_rule = 0
    batch_time = 0.0
    i = 0
    while True:
        if fixed is not None:
            if i >= fixed:
                break
        elif i % FUZZ_BATCH == 0 and i and clock() >= deadline:
            break
        kind = FUZZ_KINDS[i % 3]
        sizes, bits = random_input(rng, kind)
        root = tracer.begin("bench.iteration") if tracer is not None else None
        t0 = clock()
        try:
            note = fuzz_one(mods, kind, sizes, bits)
        except Exception as e:  # every exception is a failed iteration
            note = f"{kind} {sizes} bits={bits:x}: {type(e).__name__}: {e}"
        dt = clock() - t0
        if root is not None:
            tracer.end(root)
        latencies.append(dt)
        batch_time += dt
        if note == "no-rule":
            no_rule += 1
        elif note is not None:
            failures.append(note)
        i += 1
        if i % FUZZ_BATCH == 0:
            batches.append(batch_time)
            batches_ref.append(batch_time * speed.factor([speed.calibrate()]))
            batch_time = 0.0
    return {"failures": failures, "latencies": latencies, "batches": batches,
            "batches_ref": batches_ref, "batch_size": FUZZ_BATCH,
            "iterations": i, "no_rule": no_rule}


# ---------------------------------------------------------------------------

def main(spec):
    tracer = Tracer() if spec.get("trace") else None
    setup_raw_s, setup_s, mods = set_up(spec)
    out = {"setup_raw_s": setup_raw_s, "setup_s": setup_s}
    if spec["mode"] == "run":
        if tracer is not None:
            tracer.install()
        if spec["workload"] in SURVEY_SHAPES:
            out.update(run_survey(spec, mods, tracer))
        else:
            out.update(run_fuzz(spec, mods, tracer))
        out["peak_rss_mb"] = peak_rss_mb()
        if tracer is not None:
            tracer.write(os.path.join(spec["run_dir"],
                                      f"spans-{spec['workload']}"))
            out["spans"] = {k: list(v) for k, v in tracer.span_totals().items()}
            out["layer_self_s"] = tracer.layer_self_seconds()
            out["counts"] = dict(tracer.counts)
            out["outcome_s"] = dict(tracer.seconds)
    print(json.dumps(out))


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
