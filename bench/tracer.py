"""Spans around the public functions of each steenrod layer.

The package is not edited: each traced function is replaced, in its
defining module and in every ``steenrod`` module that imported it by
name (``cli.normalize``, ``poly.rank_f2``, the package namespace, ...),
by a wrapper that records a span.  Internal calls therefore show up as
child spans, and a layer's self time is its span duration minus the
time covered by its direct children.  Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, function, span name).  Several functions may share a span name;
# their calls and self times are then summed into one layer figure.
TARGETS = [
    ("steenrod.parsing", "parse_sq", "parsing"),
    ("steenrod.parsing", "parse_poly", "parsing"),
    ("steenrod.adem", "normalize", "adem.normalize"),
    ("steenrod.adem", "product", "adem.product"),
    ("steenrod.adem", "admissible_basis", "adem.admissible_basis"),
    ("steenrod.poly", "act", "poly.act"),
    ("steenrod.poly", "total_square", "poly.total_square"),
    ("steenrod.poly", "faithful_rank", "poly.faithful_rank"),
    ("steenrod.linalg", "rank_f2", "linalg.rank"),
    ("steenrod.derive", "derive_adem_relations", "derive"),
    ("steenrod.modules", "verify_axioms", "modules.verify"),
    ("steenrod.modules", "act_on_module", "modules.act_on_module"),
    ("steenrod.modules", "distinguish_pi4", "modules.pi4"),
    ("steenrod.modfile", "dumps", "modfile"),
    ("steenrod.modfile", "loads", "modfile"),
    ("steenrod.cli", "main", "cli.main"),
]

# Per-layer metric -> (unit, better, the end-to-end metric and workload it
# should move).  A layer that a workload never calls reports 0 there.
LAYER_METRICS = {
    "parsing.calls": ("count", "lower", "op_p50_ms on algebra"),
    "parsing.self_s": ("s", "lower", "op_p50_ms on algebra"),
    "adem.normalize.calls": ("count", "lower", "cold_ops_per_s, op_tail_ms on algebra; not on modules"),
    "adem.normalize.self_s": ("s", "lower", "cold_ops_per_s, op_tail_ms on algebra; not on modules"),
    "adem.product.self_s": ("s", "lower", "cold_ops_per_s, op_tail_ms on algebra; not on modules"),
    "adem.admissible_basis.self_s": ("s", "lower", "cold_ops_per_s, op_tail_ms on algebra; not on modules"),
    "adem.nf_cache.entries_pass1": ("count", "lower", "cold_ops_per_s on algebra"),
    "adem.nf_cache.entries": ("count", "lower", "warm_ops_per_s on algebra"),
    "adem.budget_exceeded": ("count", "lower", "fail_ratio on algebra"),
    "poly.act.calls": ("count", "lower", "cold_ops_per_s on action; op_tail_ms on cli (derive-adem sweep)"),
    "poly.act.self_s": ("s", "lower", "cold_ops_per_s on action; op_tail_ms on cli (derive-adem sweep)"),
    "poly.act.monomials_out": ("count", "lower", "cold_ops_per_s on action"),
    "poly.faithful_rank.self_s": ("s", "lower", "op_tail_ms on action"),
    "poly.total_square.self_s": ("s", "lower", "op_tail_ms on action"),
    "poly.sq_monomial.hit_ratio": ("ratio", "higher", "warm_ops_per_s, peak_rss_mb on action"),
    "poly.sq_monomial.entries": ("count", "lower", "warm_ops_per_s, peak_rss_mb on action"),
    "poly.act_monomial.entries": ("count", "lower", "warm_ops_per_s, peak_rss_mb on action"),
    "linalg.rank.calls": ("count", "lower", "op_tail_ms on action"),
    "linalg.rank.self_s": ("s", "lower", "op_tail_ms on action"),
    "linalg.rank.rows": ("count", "lower", "op_tail_ms on action"),
    "derive.calls": ("count", "lower", "cold_ops_per_s on action"),
    "derive.self_s": ("s", "lower", "cold_ops_per_s on action"),
    "derive.relations": ("count", "lower", "cold_ops_per_s on action"),
    "modules.verify.calls": ("count", "lower", "cold_ops_per_s on modules; not on algebra or action"),
    "modules.verify.self_s": ("s", "lower", "cold_ops_per_s on modules; not on algebra or action"),
    "modules.verify.checks": ("count", "lower", "cold_ops_per_s on modules; not on algebra or action"),
    "modules.verify.failures": ("count", "lower", "cold_ops_per_s on modules (failure-reporting path)"),
    "modules.act_on_module.self_s": ("s", "lower", "cold_ops_per_s on modules; not on algebra or action"),
    "modules.pi4.self_s": ("s", "lower", "cold_ops_per_s on modules; not on algebra or action"),
    "modfile.calls": ("count", "lower", "op_p50_ms on modules; op_p50_ms on cli (verify from a file)"),
    "modfile.self_s": ("s", "lower", "op_p50_ms on modules; op_p50_ms on cli (verify from a file)"),
    "modfile.bytes": ("bytes", "lower", "op_p50_ms on modules; op_p50_ms on cli (verify from a file)"),
    "cli.interpreter_s": ("s", "lower", "op_p50_ms, setup_s on cli"),
    "cli.import_s": ("s", "lower", "op_p50_ms, setup_s on cli"),
    "cli.main.self_s": ("s", "lower", "op_p50_ms, setup_s on cli"),
    "trace.overhead_ratio": ("ratio", "lower", "none: cost of this traced run"),
    "trace.retained_mb": ("MB", "lower", "peak_rss_mb on the same workload"),
}


def _count_act(tracer, args, result):
    tracer.counters["poly.act.monomials_out"] += len(result.monomials)


def _count_relations(tracer, args, result):
    tracer.counters["derive.relations"] += len(result)


def _count_verify(tracer, args, result):
    tracer.counters["modules.verify.checks"] += result.checks
    tracer.counters["modules.verify.failures"] += len(result.failures)


def _count_dumps(tracer, args, result):
    tracer.counters["modfile.bytes"] += len(result.encode())


def _count_loads(tracer, args, result):
    tracer.counters["modfile.bytes"] += len(args[0].encode())


def _materialize_rows(tracer, args):
    # rank_f2 accepts any iterable; its callers pass lists, so taking a
    # list here changes nothing but lets the rows be counted.
    rows = list(args[0])
    tracer.counters["linalg.rank.rows"] += len(rows)
    return (rows, *args[1:])


_BEFORE = {("steenrod.linalg", "rank_f2"): _materialize_rows}
_AFTER = {
    ("steenrod.poly", "act"): _count_act,
    ("steenrod.derive", "derive_adem_relations"): _count_relations,
    ("steenrod.modules", "verify_axioms"): _count_verify,
    ("steenrod.modfile", "dumps"): _count_dumps,
    ("steenrod.modfile", "loads"): _count_loads,
}


class Tracer:
    """Records one span per call of a traced function while installed."""

    def __init__(self) -> None:
        # (span id, parent id, op index, name, start ns, end ns, child ns)
        self.spans: list[tuple] = []
        self.counters: defaultdict[str, int] = defaultdict(int)
        self.op = -1
        self._stack: list[list[int]] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items() if n == "steenrod" or n.startswith("steenrod.")]
        for module_name, func_name, span in TARGETS:
            home = sys.modules.get(module_name)
            if home is None:
                continue
            original = getattr(home, func_name)
            wrapper = self._wrap(
                span,
                original,
                _BEFORE.get((module_name, func_name)),
                _AFTER.get((module_name, func_name)),
            )
            for module in loaded:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, span, fn, before, after):
        from steenrod.adem import StepBudgetExceeded

        stack = self._stack
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(tracer, args)
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except StepBudgetExceeded:
                if span == "adem.normalize":
                    tracer.counters["adem.budget_exceeded"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append(
                    (span_id, parent[0] if parent else -1, tracer.op, span, start, end, frame[1])
                )
            if after is not None:
                after(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def layer_totals(self) -> dict[str, float]:
        """Calls and self seconds per span name, plus the counters."""
        calls: defaultdict[str, int] = defaultdict(int)
        self_ns: defaultdict[str, int] = defaultdict(int)
        for _, _, _, name, start, end, child in self.spans:
            calls[name] += 1
            self_ns[name] += end - start - child
        totals: dict[str, float] = dict(self.counters)
        for name in {span for _, _, span in TARGETS}:
            totals[f"{name}.calls"] = calls[name]
            totals[f"{name}.self_s"] = self_ns[name] / 1e9
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span,parent,op,name,start_ns,end_ns,child_ns\n")
            for record in self.spans:
                fh.write(",".join(map(str, record)) + "\n")
