"""Span tracing for the benchmark's traced runs, installed from outside mpcover.

``Tracer.install`` replaces selected mpcover functions with timing wrappers.
A function is replaced in every loaded ``mpcover.*`` module that holds it, not
only in the module that defines it: ``search`` and ``construct`` import
``verify_cover`` by name, and a wrapper placed only on ``covers`` would miss
their calls.  ``install`` fails if any module still holds an original.

Each call records one span (name, start, end, parent span) in flat arrays kept
in memory; ``write`` saves them when the run ends and ``layer_self_seconds``
derives each layer's self time (span time minus the time its child spans
cover).  Outcome counters that a span alone cannot carry (verify pass/fail,
rung hits, checkpoint bytes, construction cases) are taken at the same
boundary, from the wrapped call's result.
"""

from __future__ import annotations

import array
import json
import os
import sys
import time
from collections import Counter

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._name_id = {}
        self.name_ids = array.array("i")
        self.parents = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.seconds = Counter()

    # ------------------------------------------------------------------ spans

    def begin(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        i = len(self.starts)
        self.name_ids.append(nid)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(i)
        self.starts.append(_clock())
        return i

    def end(self, i: int) -> float:
        t = _clock()
        self.ends[i] = t
        self._stack.pop()
        return t - self.starts[i]

    def span_totals(self):
        """{name: (calls, inclusive seconds)} over all recorded spans."""
        calls = [0] * len(self.names)
        secs = [0.0] * len(self.names)
        for nid, s, e in zip(self.name_ids, self.starts, self.ends):
            calls[nid] += 1
            secs[nid] += e - s
        return {name: (calls[i], secs[i]) for i, name in enumerate(self.names)}

    def layer_self_seconds(self):
        """{layer: self seconds}; a span's layer is its name up to the first dot."""
        child = [0.0] * len(self.starts)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = Counter()
        for i, nid in enumerate(self.name_ids):
            out[layer_of[nid]] += self.ends[i] - self.starts[i] - child[i]
        return dict(out)

    def write(self, stem: str) -> None:
        """Save the spans as ``stem.bin`` (four arrays) and ``stem.json``."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.name_ids, self.parents, self.starts, self.ends):
                arr.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self.starts),
                       "arrays": ["name_id:i", "parent:i", "start:d", "end:d"],
                       "counts": dict(self.counts)}, fh, indent=1)

    # --------------------------------------------------------------- wrappers

    def wrap(self, name, fn, on_result=None):
        begin, end = self.begin, self.end

        def wrapper(*args, **kwargs):
            i = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = end(i)
            if on_result is not None:
                on_result(result, dt, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_generator(self, name, fn, counter):
        """Time each step of a generator as its own span; count the items."""
        begin, end, counts = self.begin, self.end, self.counts

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                i = begin(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end(i)
                counts[counter] += 1
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ installing

    def install(self):
        """Wrap the measured mpcover functions in every module that holds them."""
        from mpcover import construct, covers, graphs, search, symmetry

        counts, seconds = self.counts, self.seconds

        def verify_outcome(result, dt, args):
            kind = "covers.verify.pass" if result is None else "covers.verify.fail"
            counts[kind] += 1
            seconds[kind + "_s"] += dt

        def hit(counter, test):
            def on_result(result, dt, args):
                if test(result):
                    counts[counter] += 1
            return on_result

        def checkpoint_bytes(result, dt, args):
            counts["search.checkpoint.bytes"] += os.path.getsize(args[0])

        def group_elements(result, dt, args):
            counts["symmetry.group_elements"] += len(result.elements)

        def construct_cases(result, dt, args):
            for label, _ in result[1].cases:
                counts["construct.case." + label] += 1

        plan = [
            (covers, "verify_cover", "covers.verify", verify_outcome),
            (search, "_decide", "search.decide", None),
            (search, "_spanning_diameter", "search.spanning", None),
            (search, "_prune_labeled", "search.prune",
             hit("search.prune.hits", lambda r: r[0] is not None)),
            (search, "two_bag_cover", "search.two_bag",
             hit("search.two_bag.hits", lambda r: r is not None)),
            (search, "survivor_property_violations", "search.survivor_checks",
             None),
            (search, "save_checkpoint", "search.checkpoint", checkpoint_bytes),
            (symmetry, "symmetry_group", "symmetry.symmetry_group",
             group_elements),
            (graphs, "diameter_in_mask", "graphs.diameter_in_mask", None),
            (graphs, "bilayer_partition", "graphs.bilayer_partition", None),
            (construct, "multipartite_cover", "construct.multipartite_cover",
             construct_cases),
            (construct, "tc2_cover", "construct.tc2_cover", None),
            (construct, "star_doublestar_search", "construct.star_doublestar",
             hit("construct.star_doublestar.hits", lambda r: r is not None)),
        ]
        replaced = {}
        for module, attr, name, on_result in plan:
            original = getattr(module, attr)
            replaced[id(original)] = (original,
                                      self.wrap(name, original, on_result))
        original = symmetry.canonical_classes
        replaced[id(original)] = (original, self.wrap_generator(
            "symmetry.canonical_classes", original, "symmetry.classes"))

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "mpcover" or n.startswith("mpcover."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
        distances = graphs.EdgeColoring.distances
        graphs.EdgeColoring.distances = self.wrap("graphs.distances", distances)

        for module in modules:
            for attr, value in vars(module).items():
                entry = replaced.get(id(value))
                if entry is not None and entry[0] is value:
                    raise RuntimeError(f"{module.__name__}.{attr} is still unwrapped")
