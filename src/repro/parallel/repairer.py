"""Sharded parallel repair (the ``method="parallel"`` repair backend).

Unlike the other repair backends — which are *detection engines* driven one
cell change at a time by the greedy loop in
:mod:`repro.repair.heuristic` — the parallel backend is **self-driving**: it
implements the optional ``run(cost_model)`` protocol hook, sharding the
relation with :func:`repro.parallel.sharding.shard_relation` and running the
*entire* incremental repair fixpoint per shard in a process pool.  Each
worker returns its shard's :class:`~repro.repair.heuristic.RepairResult`;
the parent remaps cell changes to global tuple indices, replays them onto
the working relation, and re-verifies the merged result.

Because per-shard repair decisions (pattern constants, plurality targets,
deterministic fresh values) are pure functions of the shard's data, and the
sharding invariant keeps every violation inside one shard, the merged
relation is byte-identical to what the serial incremental engine produces —
``benchmarks/test_ablation_parallel.py`` asserts exactly that on the 10K tax
workload.  The one caveat: a repair can *move* a tuple into an equivalence
class that lives in another shard (only possible when one CFD's RHS overlaps
another's LHS).  The merge therefore re-verifies, and when cross-shard
residue exists it finishes the job with a serial incremental pass
(``docs/parallel.md`` discusses when that triggers).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.config import RepairConfig
from repro.core.cfd import CFD
from repro.detection.indexed import find_violations_indexed, lhs_free_attributes
from repro.parallel.engine import ParallelStats, ShardTiming, resolve_shard_count
from repro.parallel.executor import SERIAL, resolve_workers, run_tasks
from repro.parallel.sharding import (
    Shard,
    ShardPlan,
    SpilledShardPlan,
    shard_relation,
    spill_shards,
)
from repro.registry import register_repairer
from repro.relation.mmap_store import MmapColumnStore
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.repair.cost import CostModel
from repro.repair.heuristic import CellChange, RepairResult, repair


def _repairs_may_cross_shards(cfds: Sequence[CFD]) -> bool:
    """Whether a repair could move a tuple into another shard's class.

    Constant and variable fixes write a pattern's non-``@`` RHS cells; only
    when such a written attribute is also some pattern's grouping attribute
    can a fix change a tuple's equivalence class and create an agreement the
    shard planner never saw.  (The last-resort LHS modification writes
    grouping attributes too, but its deterministic fresh values cannot
    produce a *new* cross-shard agreement — see ``docs/parallel.md``.)
    When this returns ``False`` the merged relation needs no re-verification:
    per-shard cleanliness is global cleanliness.
    """
    grouping = set()
    written = set()
    for cfd in cfds:
        for pattern in cfd.tableau:
            grouping.update(lhs_free_attributes(cfd, pattern))
            written.update(
                attr for attr in cfd.rhs if not pattern.rhs_cell(attr).is_dontcare
            )
    return bool(grouping & written)


def _localize_cost_model(model: CostModel, shard: Shard) -> CostModel:
    """Rekey per-tuple weights from global to shard-local indices."""
    if not model.tuple_weights:
        return model
    weights = {
        local: model.tuple_weights[global_index]
        for local, global_index in enumerate(shard.global_indices)
        if global_index in model.tuple_weights
    }
    return replace(model, tuple_weights=weights)


def _repair_shard(
    payload: Tuple[Relation, List[CFD], RepairConfig]
) -> Tuple[RepairResult, float]:
    """Worker body: run the full incremental repair fixpoint on one shard."""
    relation, cfds, config = payload
    start = time.perf_counter()
    result = repair(relation, cfds, config=config)
    return result, time.perf_counter() - start


def _localize_weights_spilled(model: CostModel, indices: Sequence[int]) -> CostModel:
    """Rekey per-tuple weights onto a spilled shard's local indices."""
    if not model.tuple_weights:
        return model
    weights = {
        local: model.tuple_weights[int(global_index)]
        for local, global_index in enumerate(indices)
        if int(global_index) in model.tuple_weights
    }
    return replace(model, tuple_weights=weights)


def _repair_spilled_shard(
    payload: Tuple[Schema, str, int, str, List[CFD], RepairConfig],
) -> Tuple[int, bool, int, List[int], float]:
    """Worker body for a spilled shard: mmap, repair, log the deltas.

    The shard arrives as paths (see the detection counterpart in
    :mod:`repro.parallel.engine`); the worker maps the code files, runs the
    incremental fixpoint on a scratch copy spilled next to the shard, writes
    the resulting cell changes to ``changes.pkl`` inside the shard directory
    — the compact delta log the parent replays — and sends back only summary
    counters, never columns or rows.
    """
    schema, shard_dir, length, dicts_path, cfds, config = payload
    start = time.perf_counter()
    with open(dicts_path, "rb") as handle:
        dictionaries = pickle.load(handle)
    relation = MmapColumnStore.adopt_spilled(schema, shard_dir, length, dictionaries)
    result = repair(relation, cfds, config=config)
    with open(Path(shard_dir) / "changes.pkl", "wb") as handle:
        pickle.dump(list(result.changes), handle, protocol=pickle.HIGHEST_PROTOCOL)
    if result.relation is not relation and isinstance(
        result.relation, MmapColumnStore
    ):
        # repair() worked on a scratch copy spilled under the plan directory;
        # drop it now that the delta log is on disk, so peak spill usage
        # stays bounded by the plan plus one in-flight copy per worker.
        result.relation.release()
    return (
        len(result.changes),
        result.clean,
        result.passes,
        list(result.pass_violation_counts),
        time.perf_counter() - start,
    )


class ParallelRepairEngine:
    """Self-driving repair engine: shard, repair per shard, merge, verify."""

    def __init__(
        self, relation: Relation, cfds: Sequence[CFD], config: RepairConfig
    ) -> None:
        self.relation = relation
        self._cfds = list(cfds)
        self._config = config
        #: Execution statistics of the last :meth:`run` (None before it).
        self.stats: Optional[ParallelStats] = None

    def _inner_config(self, cost_model: CostModel) -> RepairConfig:
        """The per-shard configuration: serial incremental, no re-checks.

        The storage and kernel choices ride along, so shards of an encoded
        relation are repaired columnar in their workers (they arrive as
        :class:`~repro.relation.columnar.ColumnStore` slices already), a
        pinned kernel is honoured inside each worker process, and
        ``storage="rows"`` shards arrive as rows (the worker's incremental
        state encodes its copy once).

        Because each worker runs the stock incremental engine, it repairs
        its shard over codes and adopts the array partition index whenever
        the active kernel advertises ``fused_repair_scan`` — the per-shard
        re-evaluation, partition-delta and candidate-pricing hot loops all go
        through the kernels with no parallel-specific wiring here.
        """
        return RepairConfig(
            method="incremental",
            max_passes=self._config.max_passes,
            check_consistency=False,  # repair() already checked, once
            cost_model=cost_model,
            storage=self._config.storage,
            kernel=self._config.kernel,
        )

    def run(self, cost_model: CostModel) -> RepairResult:
        cfds = self._cfds
        work = self.relation
        if isinstance(work, MmapColumnStore):
            return self._run_spilled(cost_model)
        plan = shard_relation(
            work,
            cfds,
            resolve_shard_count(self._config.shard_count, self._config.workers),
        )
        if len(plan) <= 1:
            # A single component (or a single-shard request): the pool would
            # only add overhead, so run the serial incremental engine as-is.
            result = repair(work, cfds, config=self._inner_config(cost_model))
            self.stats = ParallelStats(
                mode=SERIAL,
                workers=1,
                shard_count=len(plan),
                component_count=plan.component_count,
            )
            result.parallel_stats = self.stats
            return result

        payloads = [
            (
                shard.relation,
                cfds,
                self._inner_config(_localize_cost_model(cost_model, shard)),
            )
            for shard in plan.shards
        ]
        outcomes, mode = run_tasks(
            _repair_shard, payloads, workers=self._config.workers
        )

        changes: List[CellChange] = []
        pass_counts: List[int] = []
        timings: List[ShardTiming] = []
        passes = 0
        all_clean = True
        for shard, (shard_result, seconds) in zip(plan.shards, outcomes):
            for change in shard_result.changes:
                global_index = shard.to_global(change.tuple_index)
                work.update(global_index, change.attribute, change.new_value)
                changes.append(replace(change, tuple_index=global_index))
            for position, count in enumerate(shard_result.pass_violation_counts):
                if position < len(pass_counts):
                    pass_counts[position] += count
                else:
                    pass_counts.append(count)
            passes = max(passes, shard_result.passes)
            all_clean = all_clean and shard_result.clean
            timings.append(
                ShardTiming(shard_id=shard.shard_id, rows=len(shard), seconds=seconds)
            )

        result = RepairResult(
            relation=work,
            changes=changes,
            clean=all_clean,
            passes=passes,
            pass_violation_counts=pass_counts,
        )
        if (
            all_clean
            and _repairs_may_cross_shards(cfds)
            and not find_violations_indexed(work, cfds).is_clean()
        ):
            # Cross-shard residue: repairs moved tuples into equivalence
            # classes owned by other shards (RHS/LHS attribute overlap).
            # Finish serially from the merged state; changes stay global.
            reconcile = repair(work, cfds, config=self._inner_config(cost_model))
            result = RepairResult(
                relation=reconcile.relation,
                changes=changes + list(reconcile.changes),
                clean=reconcile.clean,
                passes=passes + reconcile.passes,
                pass_violation_counts=pass_counts
                + list(reconcile.pass_violation_counts),
            )
        self.stats = ParallelStats(
            mode=mode,
            workers=resolve_workers(self._config.workers, len(plan.shards)),
            shard_count=len(plan.shards),
            component_count=plan.component_count,
            timings=tuple(timings),
        )
        result.parallel_stats = self.stats
        return result

    def _run_spilled(self, cost_model: CostModel) -> RepairResult:
        """The out-of-core :meth:`run`: shards spill to disk, workers mmap.

        Same merge contract as the in-memory path — shard membership is
        identical (pinned by the sharding tests), per-shard repair decisions
        are pure functions of shard data, so replaying the delta logs in
        shard order onto the global store is byte-identical to the serial
        incremental engine, modulo the same cross-shard caveat handled by
        the reconcile pass below.  The spill plan is released when the merge
        succeeds and preserved if anything raises.
        """
        cfds = self._cfds
        work = self.relation
        plan = spill_shards(
            work,
            cfds,
            resolve_shard_count(self._config.shard_count, self._config.workers),
            self._config.spill_dir,
        )
        if len(plan) <= 1:
            plan.release()
            result = repair(work, cfds, config=self._inner_config(cost_model))
            self.stats = ParallelStats(
                mode=SERIAL,
                workers=1,
                shard_count=len(plan),
                component_count=plan.component_count,
            )
            result.parallel_stats = self.stats
            return result

        dicts_path = str(plan.dictionaries_path)
        payloads = []
        for shard in plan.shards:
            local_model = (
                _localize_weights_spilled(cost_model, shard.global_indices())
                if cost_model.tuple_weights
                else cost_model
            )
            payloads.append(
                (
                    plan.schema,
                    shard.directory,
                    shard.length,
                    dicts_path,
                    cfds,
                    self._inner_config(local_model),
                )
            )
        outcomes, mode = run_tasks(
            _repair_spilled_shard, payloads, workers=self._config.workers
        )

        changes: List[CellChange] = []
        pass_counts: List[int] = []
        timings: List[ShardTiming] = []
        passes = 0
        all_clean = True
        for shard, outcome in zip(plan.shards, outcomes):
            change_count, clean, shard_passes, shard_pass_counts, seconds = outcome
            if change_count:
                with open(Path(shard.directory) / "changes.pkl", "rb") as handle:
                    logged: List[CellChange] = pickle.load(handle)
                indices = shard.global_indices()
                for change in logged:
                    global_index = int(indices[change.tuple_index])
                    work.update(global_index, change.attribute, change.new_value)
                    changes.append(replace(change, tuple_index=global_index))
                del indices  # unmap before the plan directory is released
            for position, count in enumerate(shard_pass_counts):
                if position < len(pass_counts):
                    pass_counts[position] += count
                else:
                    pass_counts.append(count)
            passes = max(passes, shard_passes)
            all_clean = all_clean and clean
            timings.append(
                ShardTiming(
                    shard_id=shard.shard_id, rows=shard.length, seconds=seconds
                )
            )

        result = RepairResult(
            relation=work,
            changes=changes,
            clean=all_clean,
            passes=passes,
            pass_violation_counts=pass_counts,
        )
        if (
            all_clean
            and _repairs_may_cross_shards(cfds)
            and not find_violations_indexed(work, cfds).is_clean()
        ):
            reconcile = repair(work, cfds, config=self._inner_config(cost_model))
            result = RepairResult(
                relation=reconcile.relation,
                changes=changes + list(reconcile.changes),
                clean=reconcile.clean,
                passes=passes + reconcile.passes,
                pass_violation_counts=pass_counts
                + list(reconcile.pass_violation_counts),
            )
        self.stats = ParallelStats(
            mode=mode,
            workers=resolve_workers(self._config.workers, len(plan.shards)),
            shard_count=len(plan.shards),
            component_count=plan.component_count,
            timings=tuple(timings),
        )
        result.parallel_stats = self.stats
        plan.release()
        return result

    def plan(self) -> Union[ShardPlan, SpilledShardPlan]:
        """The shard plan the next :meth:`run` would use (for inspection)."""
        if isinstance(self.relation, MmapColumnStore):
            return spill_shards(
                self.relation,
                self._cfds,
                resolve_shard_count(self._config.shard_count, self._config.workers),
                self._config.spill_dir,
            )
        return shard_relation(
            self.relation,
            self._cfds,
            resolve_shard_count(self._config.shard_count, self._config.workers),
        )


register_repairer("parallel")(ParallelRepairEngine)
