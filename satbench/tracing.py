"""In-memory spans around calls into satmat's public functions.

A traced round rebinds every public function of a freshly imported satmat
(each name in ``satmat.__all__`` that is a function, plus ``satmat.cli.main``)
to a wrapper that records one span per call: name, layer, start, end, parent
span and op id.  The rebinding covers every satmat module namespace that
holds the function, so calls the library makes between its own public
functions (the CLI calling ``exact.exact_sat``, ``exact_sat`` calling
``greedy_saturate``) get spans too.  A function's layer is the module that
defines it, so a refactor that moves code between private helpers needs no
benchmark change.  Untraced rounds run on a fresh import with no wrappers.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from bisect import bisect_right
from collections import defaultdict
from statistics import median

from spec import CONSTRUCTIONS_TIMED, CONTAINMENT_TIMED, EXACT_QUANTITIES, LAYERS

OP_LAYER = "op"
PROBE_LAYER = "probe"
_VERDICTS = ("is_saturating", "is_semisaturating")
_CONSTRUCTIONS = set(CONSTRUCTIONS_TIMED)
_SEARCHES = set(CONTAINMENT_TIMED)
_EXACT = {f"exact_{q}": q for q in EXACT_QUANTITIES}

# span fields
NAME, LAYER, START, END, PARENT, OP, NOTE = range(7)


class Tracer:
    """Spans of one traced round, kept in memory until the run ends."""

    def __init__(self, sm):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op = -1
        self._sm = sm
        self._embeddings_count = sm.embeddings_count
        self._seen_pairs: set = set()

    # -- op spans, opened by the benchmark's pass loop

    def begin_op(self, op_id: int, kind: str) -> None:
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append([kind, OP_LAYER, time.perf_counter(), 0.0, None, op_id, None])

    def end_op(self) -> None:
        self.spans[self._stack.pop()][END] = time.perf_counter()
        self._op = -1

    def add_probes(self, starts: list[float], ends: list[float]) -> None:
        """Record speed-probe samples as child spans of the span they interrupted.

        Spans start in list order and nest, so the innermost span open at
        time t is the last one started before t or one of its ancestors.
        """
        spans = self.spans
        opened = [s[START] for s in spans]
        for t0, t1 in zip(starts, ends):
            k = bisect_right(opened, t0) - 1
            while k is not None and k >= 0 and spans[k][END] < t0:
                k = spans[k][PARENT]
            if k is not None and k >= 0:
                spans.append(["probe", PROBE_LAYER, t0, t1, k, spans[k][OP], None])

    # -- layer spans

    def _note(self, fname: str, args, result, err):
        """Counts taken at the call boundary, outside the span's interval."""
        sm = self._sm
        if fname in _EXACT:
            if isinstance(err, sm.BudgetExceededError):
                return ("budget", err.nodes)
            return None if err is not None else ("nodes", result.nodes)
        if fname in _VERDICTS and err is None:
            host, pattern = args[0], args[1]
            key = (host.shape.extents, pattern)
            cold = key not in self._seen_pairs
            self._seen_pairs.add(key)
            return ("verdict", self._embeddings_count(host.shape, pattern), cold)
        if fname in _SEARCHES and err is None:
            return ("found", result is not None)
        if fname in _CONSTRUCTIONS and err is None:
            return ("cells", result.shape.cell_count)
        if fname == "main":
            # argparse reports usage errors by raising SystemExit
            return ("exit", result if err is None else getattr(err, "code", 1))
        return None

    def wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        fname = fn.__name__
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else None, self._op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as err:
                span[END] = clock()
                stack.pop()
                span[NOTE] = self._note(fname, args, None, err)
                raise
            span[END] = clock()
            stack.pop()
            span[NOTE] = self._note(fname, args, result, None)
            return result

        return traced


def instrument(sm, tracer: Tracer) -> None:
    """Rebind satmat's public functions to tracing wrappers, in every module."""
    public = [getattr(sm, n) for n in sm.__all__]
    public = [f for f in public if isinstance(f, types.FunctionType)]
    public.append(sm.cli.main)
    wrappers = {id(f): tracer.wrap(f) for f in public}
    for modname, mod in list(sys.modules.items()):
        if modname != "satmat" and not modname.startswith("satmat."):
            continue
        for key, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and id(val) in wrappers:
                setattr(mod, key, wrappers[id(val)])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(spans: list[list], wall_s: float, speeds: list[float]) -> dict[str, float]:
    """Per-layer metrics of one traced round (trace_overhead_s is added later).

    ``wall_s`` is already scaled; each span's time is multiplied by the
    machine-speed factor of its op.
    """
    own = [t * speeds[s[OP]] for s, t in zip(spans, self_times(spans))]
    calls: dict[str, int] = defaultdict(int)
    busy: dict[str, float] = defaultdict(float)
    by_name: dict[str, float] = defaultdict(float)
    cells = nodes = selections = cold_calls = exceeded = exit_nonzero = 0
    found = searches = 0
    cold_busy = warm_busy = verdict_busy = 0.0
    exact_nodes: dict[str, int] = defaultdict(int)
    for s, t in zip(spans, own):
        layer = s[LAYER]
        if layer in (OP_LAYER, PROBE_LAYER):
            continue
        calls[layer] += 1
        busy[layer] += t
        by_name[s[NAME]] += t
        note = s[NOTE]
        if note is None:
            continue
        kind = note[0]
        if kind == "cells":
            cells += note[1]
        elif kind in ("nodes", "budget"):
            nodes += note[1]
            exact_nodes[s[NAME].rsplit("_", 1)[-1]] += note[1]
            exceeded += kind == "budget"
        elif kind == "verdict":
            selections += note[1]
            verdict_busy += t
            if note[2]:
                cold_calls += 1
                cold_busy += t
            else:
                warm_busy += t
        elif kind == "found":
            searches += 1
            found += note[1]
        elif kind == "exit":
            exit_nonzero += note[1] != 0

    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = calls[layer]
        m[f"{layer}.busy_s"] = busy[layer]
        m[f"{layer}.share"] = _ratio(busy[layer], wall_s)
    construction_busy = 0.0
    for f in CONSTRUCTIONS_TIMED:
        m[f"constructions.{f}.busy_s"] = by_name[f"constructions.{f}"]
        construction_busy += by_name[f"constructions.{f}"]
    m["constructions.cells_per_s"] = _ratio(cells, construction_busy)
    m["saturation.cold_calls"] = cold_calls
    m["saturation.cold_busy_s"] = cold_busy
    m["saturation.warm_busy_s"] = warm_busy
    m["saturation.selections"] = selections
    m["saturation.selections_per_s"] = _ratio(selections, verdict_busy)
    for f in CONTAINMENT_TIMED:
        m[f"containment.{f}.busy_s"] = by_name[f"containment.{f}"]
    m["containment.found_ratio"] = _ratio(found, searches)
    exact_busy = 0.0
    for q in EXACT_QUANTITIES:
        m[f"exact.{q}.busy_s"] = by_name[f"exact.exact_{q}"]
        m[f"exact.{q}.nodes"] = exact_nodes[q]
        exact_busy += by_name[f"exact.exact_{q}"]
    m["exact.nodes"] = nodes
    m["exact.nodes_per_s"] = _ratio(nodes, exact_busy)
    m["exact.budget_exceeded"] = exceeded
    m["cli.exit_nonzero"] = exit_nonzero
    return m


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    return {k: median(r[k] for r in rounds) for k in rounds[0]}


def span_records(spans: list[list], round_no: int):
    """Spans as JSON-ready dicts, for the file written when the run ends."""
    for i, s in enumerate(spans):
        yield {
            "round": round_no,
            "id": i,
            "name": s[NAME],
            "layer": s[LAYER],
            "start": s[START],
            "end": s[END],
            "parent": s[PARENT],
            "op": s[OP],
        }
