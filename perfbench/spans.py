"""Per-layer tracing from outside the library.

While an operation is traced, the public functions and methods listed in
``LAYERS`` are replaced by wrappers that record a span (name, start, end,
parent span) and count the work passed through them.  A function imported
with ``from .x import f`` is bound in several modules; it is replaced in
every ``narrowops`` module that holds it.  Spans stay in memory and are
written out once, when the run ends.

A span's self time is its duration minus the durations of its child spans.
Private helpers are not wrapped, so their time stays in the self time of the
public function that calls them (``_Ctx`` work in the pipeline's).
"""

from __future__ import annotations

import gzip
import itertools
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import narrowops


def _find_small_sign(args, kwargs, result, exc):
    if exc is not None:
        return {"no_sign_found": isinstance(exc, narrowops.NoSignFound)}
    rmap = result.refine_map
    return {f"hits.{result.strategy}": 1, "refined": rmap.n_new != rmap.n_old}


def _partition(args, kwargs, result, exc):
    if exc is not None:
        return {"atom_too_large": isinstance(exc, narrowops.AtomTooLarge)}
    return {"atoms": args[0].space.n_atoms, "cells": result.n_cells}


def _brute_force(args, kwargs, result, exc):
    if exc is not None and not isinstance(exc, narrowops.NoFeasibleSign):
        return {}  # refused before enumerating
    s = args[1].size
    full = kwargs.get("full_support", args[4] if len(args) > 4 else False)
    return {"patterns": 2**s if full else 3**s - 1}


def _ok(count):
    """Counter that applies only to calls that returned."""

    def counter(args, kwargs, result, exc):
        return {} if exc is not None else count(args, result)

    return counter


# (module, public name, time statistic, work counter, counter keys).  A
# counter returns increments for ``<module>.<name>.<key>``; a key starting
# with "=" names the metric in full instead.
LAYERS = [
    ("rounding", "sign_round", "self_s", None, ()),
    ("rounding", "round_half_integer", "self_s", _ok(lambda a, r: {
        "=rounding.elimination_steps": r.elimination_steps,
        "=rounding.vectors": a[0].n,
    }), ("=rounding.elimination_steps", "=rounding.vectors")),
    ("linalg", "null_vector", "total_s",
     _ok(lambda a, r: {"cols": a[0].shape[1]}), ("cols",)),
    ("linalg", "rank_factorization", "total_s", None, ()),
    ("narrowness", "partition_small_cells", "total_s", _partition,
     ("atoms", "cells", "atom_too_large")),
    ("narrowness", "find_small_sign", "self_s", _find_small_sign,
     ("hits.exhaustive", "hits.kernel_pairing", "hits.rademacher_scan",
      "refined", "no_sign_found")),
    ("narrowness", "net_cover", "total_s",
     _ok(lambda a, r: {"points": len(a[0]), "centers": r.size}),
     ("points", "centers")),
    ("operators", "brute_force_best_sign", "total_s", _brute_force,
     ("patterns",)),
    ("operators", "DiscreteOperator.apply", "total_s", None, ()),
    ("operators", "DiscreteOperator.refine", "total_s",
     _ok(lambda a, r: {"columns_out": r.space.n_atoms}), ("columns_out",)),
    ("measure", "MeasureSpace.refine_atoms", "total_s",
     _ok(lambda a, r: {"atoms_out": r[0].n_atoms}), ("atoms_out",)),
    ("measure", "SignVector.lift", "total_s",
     _ok(lambda a, r: {"values": len(r.values)}), ("values",)),
    ("measure", "RefineMap.compose", "total_s", None, ()),
    ("measure", "MeasurableSet.lift", "total_s", None, ()),
    # one call per SignVector constructed; its duration is the validation
    ("measure", "SignVector.__post_init__", "total_s", None, ()),
    ("measure", "rademacher_sign", "total_s", None, ()),
    ("norms", "fnorm", "total_s", None, ()),
    ("norms", "fnorm_many", "total_s", None, ()),
    ("pipelines", "pairing_construction", "self_s", None, ()),
    ("pipelines", "sum_finite_rank", "self_s", None, ()),
    ("pipelines", "sum_compact_locally_convex", "self_s", None, ()),
    ("pipelines", "sum_compact_via_truncation", "self_s", None, ()),
    ("pipelines", "check_absolute_continuity", "self_s", None, ()),
]


def _count_name(span: str, key: str) -> str:
    return key[1:] if key[0] == "=" else f"{span}.{key}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units = {}
    for module, name, stat, _, keys in LAYERS:
        span = f"{module}.{name}"
        units[f"{span}.calls"] = "calls/op"
        units[f"{span}.{stat}"] = "s/op"
        for key in keys:
            units[_count_name(span, key)] = "count/op"
    return units


class Tracer:
    """Records spans and counts for the operations run inside ``operation``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (op, id, parent, name, start, end)
        self.counts: Counter = Counter()
        self.ops = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._op = -1
        self._patches = self._plan()

    def _wrap(self, span_name, fn, counter):
        spans, stack, ids, counts = self.spans, self._stack, self._ids, self.counts
        clock = time.perf_counter

        def count(increments):
            for key, inc in increments.items():
                counts[_count_name(span_name, key)] += int(inc)

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if counter is not None:
                    count(counter(args, kwargs, None, exc))
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((self._op, sid, parent, span_name, start, end))
            if counter is not None:
                count(counter(args, kwargs, result, None))
            return result

        return traced

    def _plan(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        modules = [m for n, m in sys.modules.items()
                   if n == "narrowops" or n.startswith("narrowops.")]
        plan = []
        for module, name, _, counter, _ in LAYERS:
            span_name = f"{module}.{name}"
            home = sys.modules[f"narrowops.{module}"]
            if "." in name:
                cls_name, meth = name.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[meth]
                plan.append((owner, meth, original,
                             self._wrap(span_name, original, counter)))
                continue
            original = getattr(home, name)
            wrapper = self._wrap(span_name, original, counter)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        plan.append((m, attr, original, wrapper))
        return plan

    @contextmanager
    def operation(self, index: int):
        """Trace one operation under a root span ``bench.op``."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._op = index
        root = next(self._ids)
        self._stack.append(root)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((index, root, -1, "bench.op", start, end))
            for owner, attr, original, _ in self._patches:
                setattr(owner, attr, original)
            self.ops += 1

    def metrics(self) -> dict[str, float]:
        """Per-operation averages of every per-layer metric."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            child_time[parent] += end - start
        calls: Counter = Counter()
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for _, sid, _, name, start, end in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start - child_time[sid]
        per_op = 1.0 / max(self.ops, 1)
        out = {}
        for module, name, stat, _, keys in LAYERS:
            span = f"{module}.{name}"
            times = own if stat == "self_s" else total
            out[f"{span}.calls"] = calls[span] * per_op
            out[f"{span}.{stat}"] = times[span] * per_op
            for key in keys:
                metric = _count_name(span, key)
                out[metric] = self.counts[metric] * per_op
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines: op, id, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
