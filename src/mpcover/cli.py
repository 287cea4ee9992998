"""Command-line surface: generation, covering, surveys, and fuzz drivers.

Exit codes are a contract: 0 means the requested claim was verified, 1 means
it was refuted or a violation was found, 2 means a configuration or cap
error, and 3 means a survey lost a pool worker, so it decided nothing; a
rerun resumes from the checkpoint when the survey keeps one and starts over
when it does not.  Every report embeds the configuration
that produced it, and reports contain no timestamps or wall-clock data
unless explicitly requested, so a rerun with the same configuration is
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter

from .construct import GROUPINGS, multipartite_cover, tc2_cover
from .covers import (cover_from_json, cover_to_json, subgraph_diameter,
                     verify_cover)
from .errors import (CapExceeded, ConstructionExhausted, InequalityViolated,
                     InvalidParameter, MpcoverError, Unwritable, WorkerLost)
from .families import classify_tripartite, parse_family
from .graphs import (EdgeColoring, build_shape, color_diameter,
                     coloring_from_json, coloring_to_json)
from .ryser import Hypergraph, hypergraph_to_json, verify_equivalence_chain
from .ladder import find_cover, prune_with_constructions
from .search import (MAX_THREADS, SearchResult, compute_D, gk_checkpoint_path,
                     gk_survey)

OK = 0
REFUTED = 1
CONFIG_ERROR = 2
WORKER_LOST = 3


class _Unreadable(Exception):
    """An input that cannot be read or decoded as JSON."""


def _read_json(path: str):
    """The JSON document in a file, or on stdin for "-".

    Bad UTF-8, nesting too deep for the parser and integer literals past the
    interpreter's digit limit are unreadable input, like a syntax error.
    """
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (RecursionError, ValueError) as e:
        raise _Unreadable(e) from None


def _write(text: str, output=None) -> None:
    """Write report text to the file named by output, or to stdout."""
    if output and output != "-":
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise Unwritable(e.errno, e.strerror, output) from e
    else:
        sys.stdout.write(text)


def _emit(obj, output=None) -> None:
    _write(json.dumps(obj, indent=2, sort_keys=True) + "\n", output)


def _warn(msg: str) -> None:
    print(f"mpcover: {msg}", file=sys.stderr)


def _parts(text: str):
    try:
        sizes = [int(a) for a in text.split(",") if a.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad part list {text!r}")
    if not sizes:
        raise argparse.ArgumentTypeError("empty part list")
    return sizes


# ============================================================================
# COMMANDS
# ============================================================================

def cmd_gen(args) -> int:
    chi, labels = parse_family(args.family)
    _emit(coloring_to_json(chi, compact=args.compact, labels=labels),
          args.output)
    return OK


def cmd_cover(args) -> int:
    if args.d < 0:
        raise InvalidParameter(f"--d must be a non-negative integer, got {args.d}")
    chi = coloring_from_json(_read_json(args.input))
    cfg = {"command": "cover", "input": args.input, "d": args.d,
           "grouping": args.grouping}
    if chi.shape.k < 2:
        _warn("a single part has no edges; no connected cover exists")
        return CONFIG_ERROR
    try:
        if chi.shape.k == 2:
            _warn("the diameter-3 guarantee needs at least 3 parts; "
                  "falling back to an unbounded-diameter connected cover")
            cover = tc2_cover(chi)
            trace_json = {"cases": [{"label": "two-part-fallback",
                                     "witnesses": []}]}
        else:
            cover, trace = multipartite_cover(chi, args.grouping)
            trace_json = trace.to_json()
    except ConstructionExhausted as e:
        dump = {"coloring": coloring_to_json(chi),
                "trace": e.trace.to_json() if e.trace else None,
                "error": str(e)}
        path = "mpcover-exhausted.json"
        _emit(dump, path)
        _warn(f"construction exhausted; forensics in {path}")
        return REFUTED
    ok = verify_cover(chi, cover, args.d, 2)
    achieved = max((subgraph_diameter(chi, g) for g in cover), default=0)
    _emit({"cover": cover_to_json(cover), "trace": trace_json,
           "achieved_d": achieved, "ok": ok is None, "config": cfg},
          args.output)
    return OK if ok is None else REFUTED


def cmd_verify(args) -> int:
    if args.t < 1:
        raise InvalidParameter(f"--t must be a positive integer, got {args.t}")
    if args.d < 0:
        raise InvalidParameter(f"--d must be a non-negative integer, got {args.d}")
    chi = coloring_from_json(_read_json(args.coloring))
    cover = cover_from_json(_read_json(args.cover))
    cfg = {"command": "verify", "coloring": args.coloring, "cover": args.cover,
           "d": args.d, "t": args.t}
    violation = verify_cover(chi, cover, args.d, args.t)
    if violation is None:
        _emit({"ok": True, "config": cfg}, args.output)
        return OK
    _emit({"ok": False, "violation": violation.describe(), "config": cfg},
          args.output)
    return REFUTED


def cmd_exists(args) -> int:
    chi = coloring_from_json(_read_json(args.coloring))
    cfg = {"command": "exists", "coloring": args.coloring,
           "t": args.t, "d": args.d}
    cover = find_cover(chi, args.t, args.d)
    if cover is None:
        _emit({"exists": False, "config": cfg}, args.output)
        return REFUTED
    _emit({"exists": True, "witness": cover_to_json(cover), "config": cfg},
          args.output)
    return OK


def cmd_compute_d(args) -> int:
    cfg = {"command": "compute-d", "parts": args.parts, "t": args.t,
           "d_max": args.d_max, "threads": args.threads,
           "checkpoint": args.checkpoint, "use_symmetry": not args.no_symmetry,
           "prune": not args.no_prune, "format": args.format,
           "timing": args.timing}
    result = compute_D(args.parts, t=args.t, d_max=args.d_max,
                       use_symmetry=not args.no_symmetry,
                       prune=not args.no_prune, threads=args.threads,
                       checkpoint_path=args.checkpoint,
                       checkpoint_every=args.checkpoint_every,
                       stop_after_classes=args.stop_after)
    if result is None:
        _emit({"complete": False, "checkpoint": args.checkpoint,
               "config": cfg}, args.output)
        return OK
    if args.format == "tsv":
        _write(SearchResult.TSV_HEADER + "\n" + result.tsv_row(args.timing)
               + "\n", args.output)
    else:
        _emit({"complete": True, "result": result.to_json(args.timing),
               "config": cfg}, args.output)
    return OK


def cmd_classify(args) -> int:
    cfg = {"command": "classify", "parts": args.parts}
    d = classify_tripartite(args.parts)
    _emit({"shape": sorted(args.parts, reverse=True), "d": d, "config": cfg},
          args.output)
    return OK


def cmd_gk(args) -> int:
    cfg = {"command": "gk", "k": args.k, "checkpoint": args.checkpoint,
           "threads": args.threads, "timing": args.timing}
    result = gk_survey(args.k, threads=args.threads,
                       checkpoint_path=args.checkpoint,
                       checkpoint_every=args.checkpoint_every,
                       stop_after_classes=args.stop_after)
    if result is None:
        # the file that holds the progress, also when it was not given
        _emit({"complete": False,
               "checkpoint": gk_checkpoint_path(args.k, args.checkpoint),
               "config": cfg}, args.output)
        return OK
    _emit({"complete": True, "result": result.to_json(args.timing),
           "config": cfg}, args.output)
    return REFUTED if result.violations else OK


def cmd_ryser(args) -> int:
    chi = coloring_from_json(_read_json(args.coloring))
    cfg = {"command": "ryser", "coloring": args.coloring}
    try:
        report = verify_equivalence_chain(chi)
    except InequalityViolated as e:
        _emit({"ok": False, "report": e.report, "config": cfg}, args.output)
        return REFUTED
    _emit({"ok": True, "report": report, "config": cfg}, args.output)
    return OK


# ----------------------------------------------------------------------------
# Fuzz drivers
# ----------------------------------------------------------------------------
# The construct mode's colorings end in the pipeline's cases 1-3; cases 4-7
# are checked by tests/golden/construct-rare-cases.json and
# tests/sweep_construct.py.

def _random_sizes(rng, k_lo, k_hi, n_max):
    k = rng.randint(k_lo, k_hi)
    sizes = [1] * k
    budget = n_max - k
    for i in range(k):
        take = rng.randint(0, min(5, budget))
        sizes[i] += take
        budget -= take
    return sizes


def _random_coloring(rng, sizes) -> EdgeColoring:
    shape = build_shape(sizes)
    return EdgeColoring(shape, rng.getrandbits(shape.m) if shape.m else 0)


def _random_hypergraph(rng) -> Hypergraph:
    nv = rng.randint(2, 6)
    n1 = rng.randint(1, nv - 1)
    classes = [list(range(n1)), list(range(n1, nv))]
    edges = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.8:
            edges.append([rng.randrange(n1), n1 + rng.randrange(nv - n1)])
        elif rng.random() < 0.5:
            edges.append([rng.randrange(n1)])
        else:
            edges.append([n1 + rng.randrange(nv - n1)])
    return Hypergraph(classes, edges)


def _fuzz_one(mode, rng, i):
    """Run one fuzz iteration; returns (counter label, repro obj | None)."""
    if mode == "equivalence":
        if i % 2 == 0:
            h = _random_hypergraph(rng)
            try:
                verify_equivalence_chain(h)
            except InequalityViolated as e:
                return "violated", {"hypergraph": hypergraph_to_json(h),
                                    "report": e.report}
            return "hypergraph-ok", None
        sizes = rng.choice(((1, 1, 1), (2, 1, 1), (2, 2), (3, 2),
                            (2, 2, 1), (2, 2, 2), (3, 2, 1)))
        chi = _random_coloring(rng, sizes)
        try:
            verify_equivalence_chain(chi)
        except InequalityViolated as e:
            return "violated", {"coloring": coloring_to_json(chi),
                                "report": e.report}
        return "graph-ok", None
    # the other modes build one cover and verify it at d
    if mode in ("construct", "tc2"):
        construct = mode == "construct"
        chi = _random_coloring(rng, _random_sizes(rng, 3 if construct else 2,
                                                  6, 30))
        try:
            cover = multipartite_cover(chi)[0] if construct else tc2_cover(chi)
        except MpcoverError as e:
            return "exhausted", {"coloring": coloring_to_json(chi),
                                 "error": str(e)}
        d = 3 if construct else chi.n
        ok_label, bad_label = "covered", "bad-cover"
    elif mode == "prune":
        chi = _random_coloring(rng, [2, 2, 2, 2, 2])
        cover = prune_with_constructions(chi, 2)
        if cover is None:
            return "no-rule", None
        # the rules' tester passed this cover with verify_cover, so check it
        # again another way: one OR for coverage and each piece's exact
        # diameter by the full sweep
        covered = 0
        for g in cover:
            covered |= g.mask
        wide = [(i, diam) for i, g in enumerate(cover)
                if (diam := color_diameter(chi, g.color, g.vertices)) > 2]
        if len(cover) <= 2 and covered == chi.shape.full_mask and not wide:
            return "certified", None
        return "unverified-certificate", {
            "coloring": coloring_to_json(chi), "cover": cover_to_json(cover),
            "violation": f"{len(cover)} pieces, covered mask {covered:#x} of "
                         f"{chi.shape.full_mask:#x}, (piece, diameter) over 2: "
                         f"{wide}"}
    else:
        raise AssertionError(mode)
    bad = verify_cover(chi, cover, d, 2)
    if bad is None:
        return ok_label, None
    return bad_label, {"coloring": coloring_to_json(chi),
                       "cover": cover_to_json(cover),
                       "violation": bad.describe()}


FUZZ_MODES = ("construct", "tc2", "prune", "equivalence")


def run_fuzz(mode: str, seed: int, iterations: int):
    """Seeded property fuzz; returns (counters, violations list of paths)."""
    rng = random.Random(seed)
    counters = Counter()
    repro_paths = []
    bad_labels = {"exhausted", "bad-cover", "unverified-certificate", "violated"}
    for i in range(iterations):
        label, repro = _fuzz_one(mode, rng, i)
        counters[label] += 1
        if label in bad_labels and repro is not None:
            path = f"mpcover-repro-{mode}-{seed}-{i}.json"
            _write(json.dumps(repro, indent=2, sort_keys=True), path)
            repro_paths.append(path)
    violations = sum(counters[k] for k in bad_labels)
    return counters, violations, repro_paths


def cmd_fuzz(args) -> int:
    if args.n < 0:
        raise InvalidParameter(f"--n must be a non-negative integer, got {args.n}")
    cfg = {"command": "fuzz", "mode": args.mode, "seed": args.seed,
           "n": args.n}
    counters, violations, repro_paths = run_fuzz(args.mode, args.seed, args.n)
    _emit({"mode": args.mode, "seed": args.seed, "iterations": args.n,
           "counters": {k: counters[k] for k in sorted(counters)},
           "violations": violations, "reproducers": repro_paths,
           "config": cfg}, args.output)
    return REFUTED if violations else OK


# ============================================================================
# PARSER
# ============================================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mpcover",
        description="Monochromatic diameter-bounded covers of 2-edge-colored "
                    "complete multipartite graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--output", "-o", default="-",
                       help="write the report here instead of stdout")

    threads_help = ("worker processes; a process pool starts only above 1, "
                    f"with at most {MAX_THREADS}")

    p = sub.add_parser("gen", help="emit a named family coloring")
    p.add_argument("--family", required=True,
                   help="thm31:k=K | fig4 | fig3 (alias of thm31:k=2)")
    p.add_argument("--compact", action="store_true",
                   help="hex bitstring instead of an edge list")
    common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("cover", help="build a verified 2-piece cover")
    p.add_argument("--input", required=True, help="coloring JSON ('-' = stdin)")
    p.add_argument("--d", type=int, default=3, help="diameter bound to verify")
    p.add_argument("--grouping", choices=sorted(GROUPINGS), default="balanced")
    common(p)
    p.set_defaults(func=cmd_cover)

    p = sub.add_parser("verify", help="check a cover file against a coloring")
    p.add_argument("--coloring", required=True)
    p.add_argument("--cover", required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("exists", help="decide cover existence exactly")
    p.add_argument("--coloring", required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_exists)

    p = sub.add_parser("compute-d", help="survey a shape exhaustively")
    p.add_argument("--parts", type=_parts, required=True,
                   help="comma-separated part sizes, e.g. 4,2,2")
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--d-max", type=int, default=4)
    p.add_argument("--threads", type=int, default=1,
                   help=threads_help)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--checkpoint-every", type=int, default=5000)
    p.add_argument("--stop-after", type=int, default=None,
                   help="pause after this many classes (needs --checkpoint)")
    p.add_argument("--no-symmetry", action="store_true")
    p.add_argument("--no-prune", action="store_true")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock seconds (breaks byte-identity)")
    common(p)
    p.set_defaults(func=cmd_compute_d)

    p = sub.add_parser("classify", help="closed-form D for 3-part shapes")
    p.add_argument("--parts", type=_parts, required=True)
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gk", help="survey k parts of size 2 with clone pruning")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--checkpoint-every", type=int, default=5000)
    p.add_argument("--stop-after", type=int, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help=threads_help)
    p.add_argument("--timing", action="store_true")
    common(p)
    p.set_defaults(func=cmd_gk)

    p = sub.add_parser("ryser", help="verify the cover/matching inequalities")
    p.add_argument("--coloring", required=True)
    common(p)
    p.set_defaults(func=cmd_ryser)

    p = sub.add_parser("fuzz", help="seeded property fuzzing")
    p.add_argument("--mode", choices=FUZZ_MODES, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)
    p.set_defaults(func=cmd_fuzz)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Unwritable as e:
        _warn(f"cannot write {e.filename}: {e.strerror}")
        return CONFIG_ERROR
    except (_Unreadable, OSError) as e:
        _warn(f"cannot read input: {e}")
        return CONFIG_ERROR
    except CapExceeded as e:
        _warn(str(e))
        return CONFIG_ERROR
    except WorkerLost as e:
        _warn(str(e))
        return WORKER_LOST
    except MpcoverError as e:
        _warn(f"{type(e).__name__}: {e}")
        return CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
