"""Outside-in tracing: spans around the calls into each layer of ``repro``.

The program itself is not instrumented.  :class:`Tracer` replaces, for the
duration of one traced call, the names each caller looks up — module
globals such as ``repro.pipeline.detect_violations``, class attributes such
as ``RepairState.apply_changes``, the primitives of the resolved kernel
object — with wrappers that record one span per call: name, start, end,
parent span and run id.  Spans stay in memory and are written out at the
end.  A span's self time is its duration minus the time its child spans
cover; a layer's busy time is the self time of its spans.

The hottest counts are read from the program's public counters
(``RepairState.stats()``, ``ParallelStats``) instead of wrapping each call.
Pool workers forked during a traced call do not trace: their time shows as
the parent's ``parallel.*.pool`` span.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.io.sources import CSVSource, RelationSource, RowSource
from repro.kernels import get_kernel
from repro.repair.cost import CodeDistanceCache, CostModel
from repro.repair.incremental import RepairState

# By module path: the ``repro`` package re-exports functions (``repair``)
# under some of its subpackage names.
pipeline = importlib.import_module("repro.pipeline")
heuristic = importlib.import_module("repro.repair.heuristic")
parallel_engine = importlib.import_module("repro.parallel.engine")
parallel_repairer = importlib.import_module("repro.parallel.repairer")

#: The primitives of the kernel seam (``repro.kernels``).
KERNEL_PRIMITIVES = (
    "group_codes",
    "group_projections",
    "codes_disagree",
    "variable_violation_groups",
    "constant_mismatches",
    "partition_classes",
    "evaluate_classes",
)

#: Per-layer metrics (``--trace 1``): name -> unit.  ``<layer>.busy_s`` is
#: the layer's self time; ``<name>.busy_s`` of a single span name is that
#: name's self time.  Each reported value is the median over the traced
#: calls of one run.
PER_LAYER = {
    "analysis.busy_s": "s",
    "io.busy_s": "s",
    "relation.busy_s": "s",
    "detection.busy_s": "s",
    "detection.violations": "count",
    **{
        f"kernels.{primitive}.{field}": unit
        for primitive in KERNEL_PRIMITIVES
        for field, unit in (("calls", "count"), ("busy_s", "s"))
    },
    "repair.busy_s": "s",
    "repair.passes": "count",
    "repair.apply_changes.calls": "count",
    "repair.apply_changes.busy_s": "s",
    "repair.patterns_reevaluated": "count",
    "repair.partitions_reevaluated": "count",
    "repair.patterns_per_change": "ratio",
    "cost.projection_cost.calls": "count",
    "cost.projection_cost.busy_s": "s",
    "verify.busy_s": "s",
    **{
        f"parallel.{stage}.{field}": unit
        for stage in ("detect", "repair")
        for field, unit in (
            ("plan_s", "s"),
            ("pool_s", "s"),
            ("merge_s", "s"),
            ("shards", "count"),
            ("shard_s_max", "s"),
            ("shard_imbalance", "ratio"),
            ("mode", "code"),
        )
    },
    "parallel.peak_rss_workers_mb": "MiB",
    "pipeline.self_s": "s",
    "result.cells_changed": "count",
    "result.repair_cost": "cost",
    "trace.run_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
    "trace.spans_per_call": "count",
}

#: ``parallel.*.mode``; 0 means the engine did not run.
MODE_CODES = {"serial": 1, "process-pool": 2}

#: A finished span: (run id, span id, parent span id or 0, name, start, end,
#: seconds covered by child spans).
Span = Tuple[int, int, int, str, float, float, float]


def layer_of(name: str) -> str:
    """The layer a span name belongs to: the text before the first dot."""
    return name.split(".", 1)[0]


class Tracer:
    """Records spans around calls into the ``repro`` layers while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.run_id = 0
        # Open spans, innermost last: [span id, child seconds, name].
        self._stack: List[list] = []
        self._next_id = 1
        self._patches: List[Tuple[Any, str, Any, bool]] = []
        self._active = False
        #: Counters read from the program during the current run.
        self.repair_states: List[RepairState] = []
        self.parallel_stats: Dict[str, Any] = {}
        # A pool worker forked mid-call inherits the wrappers; it must not
        # record into its copy of the span list.
        os.register_at_fork(after_in_child=self._deactivate)

    def _deactivate(self) -> None:
        self._active = False

    # ------------------------------------------------------------------ spans
    def _wrap(
        self,
        fn: Callable,
        name: str,
        name_of: Optional[Callable[[tuple, dict], str]] = None,
        after: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable:
        tracer = self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            span_name = name_of(args, kwargs) if name_of else name
            stack = tracer._stack
            parent = stack[-1] if stack else None
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [span_id, 0.0, span_name]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                tracer.spans.append(
                    (
                        tracer.run_id,
                        span_id,
                        parent[0] if parent is not None else 0,
                        span_name,
                        start,
                        end,
                        frame[1],
                    )
                )
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _timed_rows(self, rows: Iterator) -> Iterator:
        """Charge the time spent producing streamed rows to an ``io`` span.

        One span covers the whole iteration; its self time is the time spent
        inside the row iterator, which is also taken off the self time of
        whichever span was consuming the rows.
        """
        perf = time.perf_counter
        stack = self._stack
        parent_id = stack[-1][0] if stack else 0
        span_id = self._next_id
        self._next_id += 1
        busy = 0.0
        first = last = perf()
        try:
            while True:
                start = perf()
                try:
                    row = next(rows)
                except StopIteration:
                    return
                finally:
                    last = perf()
                    busy += last - start
                    if stack:
                        stack[-1][1] += last - start
                yield row
        finally:
            self.spans.append(
                (self.run_id, span_id, parent_id, "io.stream", first, last, (last - first) - busy)
            )

    # ------------------------------------------------------------------ install
    def _patch(self, owner: Any, attr: str, replacement: Callable) -> None:
        namespace = vars(owner)
        own = attr in namespace
        self._patches.append((owner, attr, namespace.get(attr), own))
        setattr(owner, attr, replacement)

    def _span_at(self, owner: Any, attr: str, name: str, **options) -> None:
        """Wrap ``owner.attr`` — the name the caller looks up — in a span."""
        # A class attribute is wrapped as the plain function (the wrapper is
        # then bound like the original); anything else as the looked-up value.
        original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patch(owner, attr, self._wrap(original, name, **options))

    def install(self) -> None:
        """Put the wrappers in place (see the module docstring)."""
        if self._patches:
            raise RuntimeError("tracer already installed")

        def detect_or_verify(args: tuple, kwargs: dict) -> str:
            # The pipeline's verify stage calls detect_violations(method=...);
            # the detect stage passes config=.
            return "verify" if "method" in kwargs else "detection"

        def keep_state(args: tuple, result: Any) -> None:
            self.repair_states.append(args[0])

        def keep_detect_stats(args: tuple, run: Any) -> None:
            self.parallel_stats["detect"] = run.stats

        def keep_repair_stats(args: tuple, result: Any) -> None:
            self.parallel_stats["repair"] = args[0].stats

        self._span_at(pipeline.Cleaner, "clean", "pipeline.clean")
        self._span_at(pipeline.Cleaner, "detect", "pipeline.detect")
        self._span_at(pipeline, "analyze", "analysis")
        self._span_at(RowSource, "to_relation", "io")
        self._span_at(RelationSource, "to_relation", "io")
        self._span_at(pipeline, "apply_storage", "relation")
        self._span_at(heuristic, "apply_storage", "relation")
        self._span_at(pipeline, "detect_violations", "detection", name_of=detect_or_verify)
        self._span_at(pipeline, "detect_stream", "detection.stream")
        self._span_at(pipeline, "repair", "repair")
        self._span_at(RepairState, "__init__", "repair.state_init", after=keep_state)
        self._span_at(RepairState, "apply_changes", "repair.apply_changes")
        self._span_at(CostModel, "projection_cost", "cost.projection_cost")
        self._span_at(CodeDistanceCache, "projection_cost", "cost.projection_cost")
        self._span_at(
            parallel_engine, "detect_sharded", "parallel.detect", after=keep_detect_stats
        )
        self._span_at(parallel_engine, "shard_relation", "parallel.detect.plan")
        self._span_at(parallel_engine, "run_tasks", "parallel.detect.pool")
        self._span_at(
            parallel_repairer.ParallelRepairEngine,
            "run",
            "parallel.repair",
            after=keep_repair_stats,
        )
        self._span_at(parallel_repairer, "shard_relation", "parallel.repair.plan")
        self._span_at(parallel_repairer, "run_tasks", "parallel.repair.pool")
        # The kernel the default configs resolve to (REPRO_KERNEL is unset).
        kernel = get_kernel(None)
        for primitive in KERNEL_PRIMITIVES:
            self._span_at(kernel, primitive, f"kernels.{primitive}")

        original_iter = vars(CSVSource)["__iter__"]

        def streamed_rows(source: CSVSource) -> Iterator:
            rows = original_iter(source)
            if not self._active or (self._stack and layer_of(self._stack[-1][2]) == "io"):
                return rows
            return self._timed_rows(rows)

        self._patch(CSVSource, "__iter__", streamed_rows)

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._patches:
            owner, attr, original, own = self._patches.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------ runs
    def run(self, call: Callable[[], Any]) -> Any:
        """Run ``call`` traced, as a new run id; wrappers are removed after."""
        self.run_id += 1
        self.repair_states = []
        self.parallel_stats = {}
        self.install()
        self._active = True
        try:
            return call()
        finally:
            self._active = False
            self.uninstall()

    def write(self, path: Path) -> None:
        """Write every span recorded so far as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ("run", "span", "parent", "name", "start", "end", "child_s")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(fields, span))) + "\n")


# ---------------------------------------------------------------------------
# per-run summaries
# ---------------------------------------------------------------------------
def span_totals(spans: List[Span], run_id: int) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, self seconds and inclusive seconds in one run."""
    totals: Dict[str, Dict[str, float]] = {}
    for run, _span, _parent, name, start, end, child in spans:
        if run != run_id:
            continue
        entry = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child
        entry["total_s"] += end - start
    return totals


def layer_values(tracer: Tracer, entry: str, output: Any) -> Dict[str, float]:
    """The per-layer values of the tracer's last run (``entry``: clean/detect).

    Covers every :data:`PER_LAYER` name except the run-level ones
    (``trace.run_s``, ``trace.untraced_run_s``, ``trace.overhead_frac``,
    ``parallel.peak_rss_workers_mb``), which the caller fills in.
    """
    totals = span_totals(tracer.spans, tracer.run_id)
    layers: Dict[str, float] = {}
    for name, entry_totals in totals.items():
        layers[layer_of(name)] = layers.get(layer_of(name), 0.0) + entry_totals["self_s"]

    def total(name: str, field: str = "total_s") -> float:
        return totals.get(name, {}).get(field, 0.0)

    values: Dict[str, float] = {
        f"{layer}.busy_s": layers.get(layer, 0.0)
        for layer in ("analysis", "io", "relation", "detection", "repair", "verify")
    }
    for name in ("repair.apply_changes", "cost.projection_cost") + tuple(
        f"kernels.{primitive}" for primitive in KERNEL_PRIMITIVES
    ):
        values[f"{name}.calls"] = total(name, "calls")
        values[f"{name}.busy_s"] = total(name, "self_s")

    counters: Dict[str, int] = {}
    for state in tracer.repair_states:
        for key, value in state.stats().items():
            counters[key] = counters.get(key, 0) + value
    changes_applied = counters.get("changes_applied", 0)
    values["repair.patterns_reevaluated"] = counters.get("patterns_reevaluated", 0)
    values["repair.partitions_reevaluated"] = counters.get("partitions_reevaluated", 0)
    values["repair.patterns_per_change"] = (
        values["repair.patterns_reevaluated"] / changes_applied if changes_applied else 0.0
    )

    for stage in ("detect", "repair"):
        engine_s = total(f"parallel.{stage}")
        plan_s = total(f"parallel.{stage}.plan")
        pool_s = total(f"parallel.{stage}.pool")
        stats = tracer.parallel_stats.get(stage)
        seconds = [timing.seconds for timing in stats.timings] if stats else []
        longest = max(seconds, default=0.0)
        values.update(
            {
                f"parallel.{stage}.plan_s": plan_s,
                f"parallel.{stage}.pool_s": pool_s,
                f"parallel.{stage}.merge_s": max(0.0, engine_s - plan_s - pool_s),
                f"parallel.{stage}.shards": stats.shard_count if stats else 0,
                f"parallel.{stage}.shard_s_max": longest,
                f"parallel.{stage}.shard_imbalance": (
                    longest / statistics.mean(seconds) if longest > 0 else 0.0
                ),
                f"parallel.{stage}.mode": MODE_CODES.get(stats.mode, 0) if stats else 0,
            }
        )

    if entry == "clean":
        values["detection.violations"] = len(output.initial_report)
        values["repair.passes"] = output.passes
        values["result.cells_changed"] = len(output.changes)
        values["result.repair_cost"] = output.total_cost
    else:
        values["detection.violations"] = len(output)
        values["repair.passes"] = 0
        values["result.cells_changed"] = 0
        values["result.repair_cost"] = 0.0
    call_s = total(f"pipeline.{entry}")
    values["pipeline.self_s"] = layers.get("pipeline", 0.0)
    values["trace.accounted_frac"] = 1.0 - values["pipeline.self_s"] / call_s if call_s else 0.0
    values["trace.spans_per_call"] = sum(entry_totals["calls"] for entry_totals in totals.values())
    return values
