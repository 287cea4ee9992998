"""Exhaustive shape surveys: D over the orbit leaders of a shape.

``compute_D`` maximizes the per-coloring minimal feasible d over the orbit
leaders of a shape, asking the decision ladder (``ladder._decide``) each d
once in ascending order from the counting bound (``_min_cover_d``,
``ladder.lowest_d``).  A survey starts from one key range; chunks of at
most ``CHUNK_CLASSES`` classes advance the ranges, and whenever free slots
outnumber the free ranges the widest is split (``_claim_ranges``).  A
pooled survey keeps two chunks in flight per worker, so a worker that
finishes one finds the next already queued while the parent merges results,
claims ranges and writes checkpoints.  Inside a chunk, each
leader's coloring is stepped from the previous leader's
(``EdgeColoring.recolored``), since leaders come in key order and consecutive
ones differ in about two edges; the first leader of a chunk is built from
scratch.  For the same reason each chunk keeps one short list of recent
two-bag winners per d, which the ladder tries as hints just before its
two-bag search; the lists are new in each chunk, so nothing is carried
between chunks, and ``find_cover`` never sees them.  Each chunk returns a
``_Tally``, a commutative monoid, so the report does not depend on thread
count, chunking or kill/resume boundaries.  A checkpoint holds merged
progress only.  Only a pooled survey (threads > 1) imports and starts the
process pool (``_fork_pool``); at threads 1 the chunks run inline, so
``multiprocessing`` and ``concurrent.futures`` are never loaded.
``gk_survey`` is the same engine on the k-parts-of-size-2 shapes with the
prune rules on, checking the structural facts of any coloring that survives
them (``ladder.survivor_property_violations``).
"""

from __future__ import annotations

import os
import json
import tempfile
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import cache

from .errors import CapExceeded, InvalidParameter, Unwritable
from .graphs import EdgeColoring, build_shape
# Only the first four are called here.  The benchmark looks the other four
# up as ``search`` attributes: three to trace, one to call in its fuzz loop.
from .ladder import (_check_td, _decide, lowest_d,
                     survivor_property_violations, _prune_labeled,
                     _spanning_diameter, prune_with_constructions,
                     two_bag_cover)
from .symmetry import (canonical_classes, key_to_bits, leader_count,
                       symmetry_group, vertex_group_order)

DEFAULT_CAP_EDGES = 28
CAP_ENV_VAR = "MPCOVER_CAP_EDGES"


def _min_cover_d(chi, t, d_max, prune, survey_d, recent=None):
    """(min feasible d or d_max+1, label, survivor violations or None).

    The walk starts at the counting bound (``lowest_d``).  No cover appears
    past d = n - 1, the most a piece of finite diameter has; the walk stops
    there, or at ``survey_d`` when that is later.  ``recent`` maps each d to
    its list of two-bag hints (see ``_chunk_worker``), or is None.
    """
    surv = None
    last = chi.n - 1 if survey_d is None else max(chi.n - 1, survey_d)
    for d in range(lowest_d(chi.shape, t), min(d_max, last) + 1):
        pieces, label = _decide(chi, t, d, prune,
                                None if recent is None else recent[d])
        if d == survey_d and (pieces is None or label == "trichotomy"):
            surv = tuple(survivor_property_violations(chi, pieces is not None))
        if pieces is not None:
            return d, label, surv
    return d_max + 1, "uncovered", surv


# ============================================================================
# SHAPE SURVEYS
# ============================================================================

@dataclass
class SearchResult:
    """Outcome of a shape survey: D, a witness attaining it, and counters.

    ``d`` is the max over coloring classes of the minimal feasible cover
    diameter; ``exceeded`` means some class had no cover at d_max (then
    d = d_max + 1 and the witness is such a class).  ``rules`` counts, per
    deciding rule, the classes whose minimal d was certified by that rule.
    """

    part_sizes: tuple
    t: int
    d: int
    exceeded: bool
    witness_bits: int
    classes: int
    rules: dict
    use_symmetry: bool = True
    survivors: int = 0
    violations: int = 0
    notes: tuple = ()
    seconds: float = 0.0

    def witness(self) -> EdgeColoring:
        return EdgeColoring(build_shape(self.part_sizes), self.witness_bits)

    def d_text(self) -> str:
        return f">{self.d - 1}" if self.exceeded else str(self.d)

    def to_json(self, timing: bool = False) -> dict:
        obj = {
            "shape": list(self.part_sizes),
            "t": self.t,
            "d": self.d,
            "exceeded": self.exceeded,
            "witness_bits": f"{self.witness_bits:x}",
            "classes_enumerated": self.classes,
            "pruned_by_rule": {k: self.rules[k] for k in sorted(self.rules)},
            "use_symmetry": self.use_symmetry,
            "seconds": round(self.seconds, 3) if timing else 0,
        }
        if self.survivors or self.violations:
            obj["survivors"] = self.survivors
            obj["property_violations"] = self.violations
            obj["violation_notes"] = list(self.notes)
        return obj

    TSV_HEADER = "shape\tt\tD\tclasses_enumerated\tpruned_by_rule\tseconds"

    def tsv_row(self, timing: bool = False) -> str:
        rules = ";".join(f"{k}={self.rules[k]}" for k in sorted(self.rules))
        secs = f"{self.seconds:.3f}" if timing else "0"
        return "\t".join([",".join(str(a) for a in self.part_sizes),
                          str(self.t), self.d_text(), str(self.classes),
                          rules or "-", secs])


MAX_NOTES = 25


def _note_order(note: str):
    # notes read "key=<hex> <fact>"; order by the class key as a number
    head, _, rest = note.partition(" ")
    return int(head[len("key="):], 16), rest


def keep_notes(*note_lists) -> list:
    """The MAX_NOTES smallest distinct notes by (class key, text), in order.

    Associative and commutative, so the notes a survey keeps do not depend
    on chunking, thread count or resume boundaries.
    """
    notes = set()
    for group in note_lists:
        notes.update(group)
    return sorted(notes, key=_note_order)[:MAX_NOTES]


def _count(value) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"count {value!r} is not a non-negative integer")
    return value


@dataclass
class _Tally:
    """A survey's outcome over the classes counted so far: a commutative monoid.

    ``best`` is the (min_d, key) with the biggest min_d, the smallest key on
    ties (None before the first class); ``rules`` counts classes per deciding
    rule; survivors, violations and the kept notes come from the survivor
    checks.  ``merge`` is associative and commutative, so a survey's tally
    does not depend on chunking, thread count or resume boundaries.
    """

    classes: int = 0
    rules: Counter = field(default_factory=Counter)
    best: tuple | None = None
    survivors: int = 0
    violations: int = 0
    notes: list = field(default_factory=list)

    def _take(self, best) -> None:
        # the bigger min_d wins, then the smaller key
        if best is not None and (self.best is None or (-best[0], best[1])
                                 < (-self.best[0], self.best[1])):
            self.best = best

    def add(self, key: int, min_d: int, label: str, surv) -> None:
        """Count one class; ``surv`` is its survivor violations or None."""
        self.classes += 1
        self.rules[label] += 1
        self._take((min_d, key))
        if surv is not None:
            self.survivors += 1
            self.violations += len(surv)
            if surv:
                self.notes = keep_notes(self.notes,
                                        [f"key={key:x} {note}" for note in surv])

    def merge(self, other: _Tally) -> None:
        self.classes += other.classes
        self.rules.update(other.rules)
        self._take(other.best)
        self.survivors += other.survivors
        self.violations += other.violations
        self.notes = keep_notes(self.notes, other.notes)

    def to_checkpoint(self, seconds: float) -> dict:
        """The checkpoint's ``best`` and ``counts`` entries."""
        best = self.best
        return {
            "best": {"d": best[0] if best else None,
                     "witness_bits": f"{best[1]:x}" if best else None},
            "counts": {"classes_enumerated": self.classes,
                       "pruned_by_rule": {k: self.rules[k] for k in sorted(self.rules)},
                       "survivors": self.survivors,
                       "property_violations": self.violations,
                       "violation_notes": self.notes,
                       "seconds": round(seconds, 3)},
        }

    @classmethod
    def from_checkpoint(cls, state: dict, d_max: int, m: int) -> _Tally:
        """The tally a checkpoint holds; ValueError when its counts do not fit.

        Counts must be non-negative integers that fit together: the rule
        counts add up to the class count, survivors are classes, and only
        survivors carry violations and notes.  The best class, present once a
        class was counted, must be a key of the shape with ``m`` edges
        (lower-case hex, as written) with a diameter in 0..d_max + 1.
        """
        counts = state["counts"]
        classes = _count(counts["classes_enumerated"])
        rules = Counter({str(k): _count(v)
                         for k, v in counts["pruned_by_rule"].items()})
        if sum(rules.values()) != classes:
            raise ValueError(f"rule counts add up to {sum(rules.values())}, "
                             f"not to the {classes} classes enumerated")
        d, bits = state["best"]["d"], state["best"]["witness_bits"]
        best = None
        if d is not None or bits is not None:
            # int(x, 16) alone would take a sign, as in "-1"
            if not set(bits) <= set("0123456789abcdef"):
                raise ValueError(f"witness_bits {bits!r} is not lower-case hex")
            best = (_count(d), int(bits, 16))
            if f"{best[1]:x}" != bits or best[0] > d_max + 1 \
                    or best[1] >= 1 << m:
                raise ValueError(f"best class {state['best']} is out of range")
        if (best is None) != (classes == 0):
            raise ValueError("a best class is kept exactly when some class "
                             "was enumerated")
        survivors = _count(counts.get("survivors", 0))
        violations = _count(counts.get("property_violations", 0))
        notes = counts.get("violation_notes", [])
        if not isinstance(notes, list):
            raise ValueError(f"violation_notes {notes!r} is not a list")
        # a survivor is a class, and only survivors carry violations and notes
        if survivors > classes or (violations and not survivors) \
                or len(notes) > violations:
            raise ValueError(f"{survivors} survivors, {violations} violations "
                             f"and {len(notes)} notes do not fit {classes} "
                             f"classes")
        return cls(classes, rules, best, survivors, violations,
                   keep_notes(notes))


@cache
def _engine(sizes, use_symmetry):
    """(shape, group) of a survey, built once per process."""
    shape = build_shape(sizes)
    return shape, symmetry_group(shape) if use_symmetry else None


def _chunk_worker(args):
    """(tally, next cursor) of one range advanced by up to ``limit`` classes."""
    (sizes, t, d_max, use_symmetry, prune, survey_d, hi, pos, limit) = args
    shape, group = _engine(sizes, use_symmetry)
    tally = _Tally()
    chi = None
    # consecutive leaders differ in about two edges: step the rows, and give
    # the ladder each d's latest two-bag winners in this chunk as hints
    recent = defaultdict(list)
    for key, bits in canonical_classes(shape, group, lo=pos, hi=hi):
        chi = (EdgeColoring(shape, bits) if chi is None
               else chi.recolored(bits))
        tally.add(key, *_min_cover_d(chi, t, d_max, prune, survey_d, recent))
        if tally.classes >= limit:
            return tally, key + 1
    return tally, hi


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_VERSION = 1


def _sibling_temp(path: str):
    """(fd, name) of a new temp file in the directory of ``path``."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    return tempfile.mkstemp(dir=directory, suffix=".tmp")


def _check_writable(path: str) -> None:
    """Raise ``Unwritable`` naming ``path`` unless a checkpoint can be saved
    there: a temp sibling is made and removed, and ``path`` is not touched.
    """
    try:
        fd, tmp = _sibling_temp(path)
        os.close(fd)
        os.unlink(tmp)
    except OSError as e:
        raise Unwritable(e.errno, e.strerror, path) from e


def save_checkpoint(path: str, state: dict) -> None:
    """Atomic JSON dump (write to a sibling temp file, then rename).

    A failed write raises ``Unwritable`` naming ``path``, not the temp file.
    """
    try:
        fd, tmp = _sibling_temp(path)
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(state, fh, sort_keys=True, indent=1)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as e:
        raise Unwritable(e.errno, e.strerror, path) from e


def load_checkpoint(path: str) -> dict:
    try:
        with open(path) as fh:
            state = json.load(fh)
    except (RecursionError, ValueError) as e:
        raise InvalidParameter(f"malformed checkpoint {path}: {e!r}")
    if not isinstance(state, dict) or type(state.get("version")) is not int \
            or state["version"] != CHECKPOINT_VERSION:
        raise InvalidParameter(f"unsupported checkpoint version in {path}")
    return state


def _check_ranges(ranges, end: int) -> None:
    """Cursor ranges must tile the key space [0, end) in key order.

    Each range is ``[lo, hi, pos]`` with ``lo <= pos <= hi``, and each starts
    where the one before it ends.  So none is repeated, overlaps another,
    leaves a gap or reaches outside the key space: every key is enumerated
    exactly once across a resume.
    """
    if not all(isinstance(r, list) and len(r) == 3
               and all(type(a) is int for a in r) for r in ranges):
        raise ValueError("cursor_ranges must hold [lo, hi, pos] integers")
    at = 0
    for lo, hi, pos in ranges:
        if lo != at:
            raise ValueError(f"cursor range {[lo, hi, pos]} should start at "
                             f"key {at}: ranges must be sorted, disjoint "
                             f"and gap-free")
        if not lo <= pos <= hi:
            raise ValueError(f"cursor range {[lo, hi, pos]} has its cursor "
                             f"outside [lo, hi]")
        at = hi
    if at != end:
        raise ValueError(f"cursor ranges end at key {at}, not at the end of "
                         f"the key space {end}")


def _resume(state: dict, path: str, config: dict, end: int, m: int):
    """(ranges, tally, seconds) of a checkpoint; InvalidParameter if malformed.

    ``end`` is the end of the key space the ranges must tile, ``m`` the
    shape's edge count.  The config must equal the run's as JSON, and the
    counts must fit together (``_Tally.from_checkpoint``).
    """
    try:
        # compared as JSON text, so that 1 and true or 2 and 2.0 differ
        if json.dumps(state["config"], sort_keys=True) \
                != json.dumps(config, sort_keys=True):
            raise InvalidParameter(
                f"checkpoint {path} was written with different "
                f"settings: {state['config']} vs {config}")
        ranges = state["cursor_ranges"]
        _check_ranges(ranges, end)
        tally = _Tally.from_checkpoint(state, config["d_max"], m)
        seconds = state["counts"].get("seconds", 0.0)
        if type(seconds) not in (int, float) or not 0 <= seconds < float("inf"):
            raise ValueError(f"seconds {seconds!r} is not a non-negative number")
        return [list(r) for r in ranges], tally, float(seconds)
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise InvalidParameter(f"malformed checkpoint {path}: {e!r}")


# ---------------------------------------------------------------------------
# The survey engine
# ---------------------------------------------------------------------------

def _edge_cap():
    raw = os.environ.get(CAP_ENV_VAR, str(DEFAULT_CAP_EDGES))
    if not (raw.isascii() and raw.strip().isdigit()):
        raise InvalidParameter(f"{CAP_ENV_VAR} must be a non-negative "
                               f"integer, got {raw!r}")
    return int(raw)


# Most classes per chunk, at every thread count.  Small, so that a dense range
# comes back often enough to be split while another worker would otherwise
# idle.  A restart re-walks the scan to its key and re-decides the tail block
# there: the first leader took 0.09 ms on [5,2,2], 0.28 ms on [2,2,2,2] and
# 0.44 ms on [3,3,3] (2-core VM), at most about 1.5% of a 500-class chunk.
CHUNK_CLASSES = 500


def _claim_ranges(ranges, busy, slots: int):
    """Up to ``slots`` pending ranges not in ``busy`` (ids), most keys left first.

    ``slots`` is how many more chunks may go in flight: one for the inline
    chunk at threads 1, else up to ``2 * threads`` in all, so that each pool
    worker has a chunk queued behind the one it runs.  Ties go in key order.
    While free slots outnumber the free ranges, the free range with the most
    keys left is split at the midpoint of those keys: ``[lo, hi, pos]``
    becomes ``[lo, mid, pos]`` plus ``[mid, hi, mid]``.  Enumeration restarts
    from any key, so both halves are sound cursors and together cover exactly
    the keys the range had left.
    """
    while True:
        free = sorted((r for r in ranges if r[2] < r[1] and id(r) not in busy),
                      key=lambda r: r[2] - r[1])
        if len(free) >= slots:
            return free[:slots]
        if not free or free[0][1] - free[0][2] < 2:
            return free
        wide = free[0]
        mid = (wide[2] + wide[1]) // 2
        ranges.append([mid, wide[1], mid])
        wide[1] = mid
        ranges.sort()


class _Ran:
    """A chunk run inline, read like a finished future by the merge loop."""
    __slots__ = ("value",)

    def __init__(self, args):
        self.value = _chunk_worker(args)

    def result(self):
        return self.value


def _fork_pool(threads: int):
    """A fork pool of ``threads`` workers, and a wait for its first result.

    The process-pool modules are imported here, so that only a survey that
    pools loads them: a threads=1 run never does.
    """
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from multiprocessing import get_context
    pool = ProcessPoolExecutor(max_workers=threads,
                               mp_context=get_context("fork"))
    return pool, lambda futures: wait(futures, return_when=FIRST_COMPLETED)[0]


# Most worker processes a survey may start.  The fork pool starts every worker
# at its first submit, so an unbounded count could exhaust the process table.
MAX_THREADS = 64


def _check_count(name: str, value, most: int | None = None,
                 least: int = 1) -> None:
    if not isinstance(value, int) or isinstance(value, bool) or value < least \
            or (most is not None and value > most):
        bound = f">= {least}" if most is None else f"in {least}..{most}"
        raise InvalidParameter(f"{name} must be an integer {bound}, got {value!r}")


def compute_D(part_sizes, t: int = 2, d_max: int = 4, *,
              use_symmetry: bool = True, prune: bool = True,
              threads: int = 1, checkpoint_path: str | None = None,
              checkpoint_every: int = 5000,
              stop_after_classes: int | None = None,
              survey_d: int | None = None):
    """Max over coloring classes of the minimal feasible cover diameter.

    ``part_sizes`` is a list of part sizes; ``MPCOVER_CAP_EDGES`` caps the
    shape's edge count.  Returns a SearchResult, or None when
    ``stop_after_classes`` ran out before the survey finished (progress lives
    in the checkpoint); a budget that runs out once all ``leader_count``
    classes have merged still finishes.  Results are byte-for-byte
    independent of ``threads``, chunking, and resume boundaries; wall-clock
    time is accumulated separately in ``seconds``.  ``survey_d``, in
    2..``d_max`` and only with the prune rules on, runs the survivor checks
    on the classes that reach the two-bag search at that d.

    At threads 1 one chunk runs inline at a time.  A pooled survey keeps up
    to ``2 * threads`` chunks in flight, so that the pool's queue holds a
    chunk for each worker that frees up while the parent merges results,
    claims and splits ranges and writes checkpoints.  Each chunk has at most
    ``min(checkpoint_every, CHUNK_CLASSES)`` classes and no more than is left
    of ``stop_after_classes``.  A checkpoint is written once
    ``checkpoint_every`` classes have merged since the last one, on stop and
    on finish; a resumed run redoes the chunks that were in flight and
    whatever merged after the last write.  A checkpoint path whose directory
    takes no new file raises ``Unwritable`` before any class is surveyed.
    """
    shape = build_shape(part_sizes)
    sizes = shape.part_sizes
    _check_td(t, 0)
    _check_count("d_max", d_max, least=0)
    if survey_d is not None:  # below 2 no prune rule runs; past d_max no walk
        _check_count("survey_d", survey_d, d_max, least=2)
        if not prune:
            raise InvalidParameter("survivor checks need the prune rules on")
    _check_count("threads", threads, MAX_THREADS)
    _check_count("checkpoint_every", checkpoint_every)
    if stop_after_classes is not None:
        _check_count("stop_after_classes", stop_after_classes)
        if not checkpoint_path:
            raise InvalidParameter("stopping early needs a checkpoint path to "
                                   "keep the progress in")
    cap = _edge_cap()
    if shape.m > cap:
        order = 2 * vertex_group_order(shape)
        estimate = max(1, (1 << shape.m) // order)
        raise CapExceeded(
            f"shape {list(sizes)} has {shape.m} edges, over the cap of {cap} "
            f"(roughly {estimate} classes); raise {CAP_ENV_VAR} to proceed",
            estimate=estimate)

    config = {"shape": list(sizes), "t": t, "d_max": d_max,
              "use_symmetry": use_symmetry, "prune": prune,
              "survey_d": survey_d}
    # One range of all keys, split as slots free up.  Orbit leaders always
    # start with a red edge (the color swap would beat them otherwise), so
    # the top half of the key space is empty.
    end = 1 << (shape.m - 1 if use_symmetry and shape.m >= 1 else shape.m)
    ranges = [[0, end, 0]]
    tally = _Tally()
    spent = 0.0

    if checkpoint_path:  # fail before any class is surveyed, not at a write
        _check_writable(checkpoint_path)
    resumed = bool(checkpoint_path) and os.path.exists(checkpoint_path)
    if resumed:
        ranges, tally, spent = _resume(load_checkpoint(checkpoint_path),
                                       checkpoint_path, config, end, shape.m)

    def snapshot():
        return {"version": CHECKPOINT_VERSION, "shape": list(sizes), "t": t,
                "config": config, "cursor_ranges": [list(r) for r in ranges],
                **tally.to_checkpoint(spent)}

    orbit_count = cache(  # the Burnside total, computed at most once
        lambda: leader_count(shape, _engine(sizes, use_symmetry)[1]))

    # budget: classes still allowed, less the limits of the chunks in flight
    budget = float("inf") if stop_after_classes is None else stop_after_classes
    limit = min(checkpoint_every, CHUNK_CLASSES)
    unsaved = 0
    prior_seconds = spent
    started = time.monotonic()
    in_flight = {}  # future -> (its range, its class limit)
    pool, slots = None, 1
    if threads > 1:
        pool, first_done = _fork_pool(threads)
        slots = 2 * threads  # one chunk running and one queued per worker
    try:
        while True:
            if budget > 0:
                busy = {id(r) for r, _ in in_flight.values()}
                for r in _claim_ranges(ranges, busy, slots - len(in_flight)):
                    chunk = min(limit, budget)
                    args = (sizes, t, d_max, use_symmetry, prune, survey_d,
                            r[1], r[2], chunk)
                    fut = (_Ran(args) if pool is None
                           else pool.submit(_chunk_worker, args))
                    in_flight[fut] = (r, chunk)
                    budget -= chunk
                    if budget <= 0:
                        break
            if not in_flight:
                if budget > 0 or tally.classes != orbit_count() \
                        or all(pos == hi for _, hi, pos in ranges):
                    break
                # every class merged: the keys left hold no leader, and a
                # leader found there fails the orbit-count check below
                budget = float("inf")
                continue
            # inline, the one chunk in flight has already run
            finished = list(in_flight) if pool is None else first_done(in_flight)
            for fut in finished:
                r, chunk = in_flight.pop(fut)
                part, r[2] = fut.result()
                tally.merge(part)
                unsaved += part.classes
                budget += chunk - part.classes  # a range ended short of its limit
            spent = prior_seconds + (time.monotonic() - started)
            if checkpoint_path and unsaved >= checkpoint_every:
                save_checkpoint(checkpoint_path, snapshot())
                unsaved = 0
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    if any(pos < hi for _, hi, pos in ranges):
        save_checkpoint(checkpoint_path, snapshot())  # the budget ran out
        return None
    classes, expected = tally.classes, orbit_count()
    if classes != expected:
        # a resumed survey's counts came from the file, which is then at fault
        error = InvalidParameter if resumed else RuntimeError
        source = f" after resuming checkpoint {checkpoint_path}" if resumed else ""
        raise error(f"survey of {list(sizes)} counted {classes} classes{source}, "
                    f"but the group has {expected} orbits")
    d, key = tally.best
    result = SearchResult(
        part_sizes=sizes, t=t, d=d, exceeded=d > d_max,
        witness_bits=key_to_bits(key, shape.m), classes=classes,
        rules={k: tally.rules[k] for k in sorted(tally.rules)},
        use_symmetry=use_symmetry, survivors=tally.survivors,
        violations=tally.violations, notes=tuple(tally.notes), seconds=spent)
    if checkpoint_path:
        save_checkpoint(checkpoint_path, snapshot())
    return result


def gk_checkpoint_path(k: int, checkpoint_path: str | None = None) -> str:
    """The checkpoint ``gk_survey`` keeps: the given path, else one from k."""
    return f"gk{k}.checkpoint.json" if checkpoint_path is None else checkpoint_path


def gk_survey(k: int, d: int = 2, *, threads: int = 1,
              checkpoint_path: str | None = None, checkpoint_every: int = 5000,
              stop_after_classes: int | None = None):
    """Survey the shape with k parts of size 2, clone pruning on.

    Checkpointing is always on (``gk_checkpoint_path``).  Any
    class reaching the exhaustive stage at diameter ``d`` is counted as a
    survivor and checked against the structural facts the pruning rules
    should have exploited; violations indicate bugs, and are carried in the
    result.
    """
    if not isinstance(k, int) or k < 3:
        raise InvalidParameter(f"need k >= 3, got {k!r}")
    return compute_D([2] * k, t=2, use_symmetry=True, prune=True,
                     threads=threads,
                     checkpoint_path=gk_checkpoint_path(k, checkpoint_path),
                     checkpoint_every=checkpoint_every,
                     stop_after_classes=stop_after_classes, survey_d=d)
