"""Partition-indexed CFD violation detection (the ``method="indexed"`` backend).

Implements exactly the satisfaction semantics of the in-memory oracle
(:mod:`repro.core.satisfaction`) but replaces its per-pattern relation scans
with lookups against a shared :class:`~repro.detection.partition_index.PartitionIndex`:

* the relation is partitioned **once** per distinct ``@``-free LHS attribute
  tuple, not once per pattern — a CFD with a 1K-row tableau (or 1K constant
  CFDs over the same LHS) triggers a single grouping pass;
* a constant pattern (``Q^C`` semantics) resolves to the partitions matching
  its LHS constants — a dictionary lookup when the pattern is all-constant;
* a variable pattern (``Q^V`` semantics) inspects only the matching
  partitions with more than one tuple.

The reports produced here are violation-for-violation identical to the
oracle's, so ``cross_check`` and the Hypothesis property tests can compare
all three backends directly.  See ``docs/detection.md`` for the complexity
analysis.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config import storage_from_env
from repro.core.cfd import CFD
from repro.core.tableau import PatternTuple
from repro.core.violations import (
    ConstantViolation,
    VariableViolation,
    Violation,
    ViolationReport,
)
from repro.detection.partition_index import (
    DEFAULT_CHUNK_SIZE,
    PartitionIndex,
    PartitionIndexCache,
)
from repro.errors import DetectionError
from repro.kernels import active_kernel, use_kernel
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation, Row
from repro.relation.schema import Schema


# ---------------------------------------------------------------------------
# one-shot functions
# ---------------------------------------------------------------------------
def find_violations_indexed(
    relation: Relation,
    cfds: Union[CFD, Iterable[CFD]],
    cache: Optional[PartitionIndexCache] = None,
) -> ViolationReport:
    """All violations of ``cfds`` in ``relation``, via partition indexes.

    Semantically identical to
    :func:`repro.core.satisfaction.find_all_violations`; pass a
    :class:`PartitionIndexCache` built for the *same* relation to share
    partition maps across calls.

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> sorted(find_violations_indexed(cust_relation(), cust_cfds()).violating_indices())
    [0, 1, 2, 3]
    """
    if isinstance(cfds, CFD):
        cfds = [cfds]
    if cache is None:
        cache = PartitionIndexCache(relation)
    elif cache.relation is not relation:
        raise DetectionError(
            "cache was built for a different relation; its tuple indices would "
            "not line up with the relation being checked"
        )
    report = ViolationReport()
    for cfd in cfds:
        report.extend(_cfd_violations(relation, cfd, cache))
    return report


def find_cfd_violations_indexed(
    relation: Relation,
    cfd: CFD,
    cache: Optional[PartitionIndexCache] = None,
) -> ViolationReport:
    """All violations of a single CFD (indexed counterpart of ``find_violations``)."""
    return find_violations_indexed(relation, [cfd], cache=cache)


# ---------------------------------------------------------------------------
# detector facade
# ---------------------------------------------------------------------------
class IndexedDetector:
    """Stateful facade mirroring :class:`~repro.sql.engine.SQLDetector`.

    Holds one :class:`PartitionIndexCache` for its relation, so successive
    :meth:`detect` calls — e.g. an interactive session checking CFD batches
    one at a time — reuse the partition maps already built.

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> detector = IndexedDetector(cust_relation())
    >>> sorted(detector.detect(cust_cfds()).violating_indices())
    [0, 1, 2, 3]
    >>> detector.cache_stats()["misses"] >= 1
    True
    """

    def __init__(self, relation: Relation, cache_size: int = 32) -> None:
        self._relation = relation
        self._cache = PartitionIndexCache(relation, maxsize=cache_size)

    @property
    def relation(self) -> Relation:
        return self._relation

    @property
    def cache(self) -> PartitionIndexCache:
        return self._cache

    def detect(self, cfds: Union[CFD, Sequence[CFD]]) -> ViolationReport:
        """Find every violation of ``cfds``, reusing cached partition maps."""
        return find_violations_indexed(self._relation, cfds, cache=self._cache)

    def invalidate(self) -> None:
        """Drop cached indexes after the underlying relation was mutated."""
        self._cache.clear()

    def cache_stats(self) -> Dict[str, int]:
        return self._cache.stats()

    def __repr__(self) -> str:
        return f"IndexedDetector({self._relation!r}, cache={self._cache!r})"


# ---------------------------------------------------------------------------
# streaming ingestion
# ---------------------------------------------------------------------------
def detect_stream(
    schema: Schema,
    rows: Iterable[Union[Row, Sequence[Any], Mapping[str, Any]]],
    cfds: Union[CFD, Sequence[CFD]],
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    storage: Optional[str] = None,
    kernel: Optional[str] = None,
    spill_dir: Optional[str] = None,
) -> ViolationReport:
    """Detect violations over a row *stream* without materialising full rows.

    Rows (positional tuples in ``schema`` order, or mappings by attribute
    name) are consumed in batches of ``chunk_size``.  Only the projection
    onto the attributes the CFDs actually mention is retained, and every
    partition index is grown incrementally as batches arrive — so peak memory
    is ``O(N x |attrs(cfds)|)`` rather than ``O(N x |schema|)``, and the
    source (a CSV reader, a DB cursor) is read exactly once.

    ``storage`` picks the layer the retained projection lives in (defaults to
    ``REPRO_STORAGE``, then ``"columnar"``).  On columnar storage each batch
    is dictionary-encoded as it arrives and the indexes ingest the *codes* of
    the new rows (:meth:`PartitionIndex.add_encoded`), so a raw row is
    touched exactly once — projected, encoded, dropped — instead of being
    re-hashed by every index.  ``storage="mmap"`` additionally spills the
    encoded projection to memory-mapped files under ``spill_dir``
    (:class:`~repro.relation.mmap_store.MmapColumnStore`), so even the
    retained code columns stay out of the Python heap.

    ``kernel`` picks the hot-loop implementation (defaults to
    ``REPRO_KERNEL``, then ``"auto"``); see :mod:`repro.kernels`.  Every
    kernel produces byte-identical reports.

    Reported tuple indices refer to positions in the input stream.
    """
    if isinstance(cfds, CFD):
        cfds = [cfds]
    cfds = list(cfds)
    if not cfds:
        return ViolationReport()
    if chunk_size <= 0:
        raise DetectionError(f"chunk_size must be positive, got {chunk_size}")
    if storage is None:
        storage = storage_from_env()

    # Projection: keep only the attributes some CFD constrains.
    needed = [name for name in schema.names if any(name in cfd.attributes for cfd in cfds)]
    for cfd in cfds:
        schema.validate_attributes(cfd.attributes)
    slim_schema = schema.project(needed)
    positions = schema.positions(needed)
    columnar = storage in ("columnar", "mmap")
    if storage == "mmap":
        from repro.relation.mmap_store import MmapColumnStore

        slim: Relation = MmapColumnStore(slim_schema, spill_dir=spill_dir)
    elif columnar:
        slim = ColumnStore(slim_schema)
    else:
        slim = Relation(slim_schema)

    # One index per distinct @-free LHS attribute tuple across all patterns,
    # grown batch-by-batch alongside the projected relation.
    indexes: Dict[Tuple[str, ...], PartitionIndex] = {}
    for cfd in cfds:
        for pattern in cfd.tableau:
            lhs_free = _lhs_free(cfd, pattern)
            if lhs_free not in indexes:
                indexes[lhs_free] = PartitionIndex(slim_schema, lhs_free)

    batch: List[Row] = []

    def flush() -> None:
        start = len(slim)
        slim.extend(batch)
        for index in indexes.values():
            if columnar:
                index.add_encoded(slim, start, len(slim))
            else:
                index.add_tuples(batch)
        batch.clear()

    with use_kernel(kernel):
        for row in rows:
            if isinstance(row, Mapping):
                projected = tuple(row[name] for name in needed)
            else:
                projected = tuple(row[position] for position in positions)
            batch.append(projected)
            if len(batch) >= chunk_size:
                flush()
        if batch:
            flush()

        cache = PartitionIndexCache(slim, maxsize=max(32, len(indexes)))
        for index in indexes.values():
            cache.seed(index)
        return find_violations_indexed(slim, cfds, cache=cache)


# ---------------------------------------------------------------------------
# per-pattern detection against an index
# ---------------------------------------------------------------------------
def lhs_free_attributes(cfd: CFD, pattern: PatternTuple) -> Tuple[str, ...]:
    """The ``@``-free LHS attributes in LHS order (the partition attributes).

    This projection *defines* a pattern's grouping semantics: the oracle,
    this backend, the incremental repair state and the parallel sharding
    planner must all agree on it (the planner's "no violation spans two
    shards" invariant is stated in terms of exactly these attribute sets),
    which is why it is public — reuse it rather than re-deriving it.
    """
    return tuple(attr for attr in cfd.lhs if not pattern.lhs_cell(attr).is_dontcare)


#: Backward-compatible internal alias (pre-PR 4 name).
_lhs_free = lhs_free_attributes


def _cfd_violations(
    relation: Relation, cfd: CFD, cache: PartitionIndexCache
) -> Iterator[Violation]:
    for pattern_index, pattern in enumerate(cfd.tableau):
        yield from _pattern_violations(relation, cfd, pattern_index, pattern, cache)


def _pattern_violations(
    relation: Relation,
    cfd: CFD,
    pattern_index: int,
    pattern: PatternTuple,
    cache: PartitionIndexCache,
) -> Iterator[Violation]:
    """Violations of one pattern tuple, in the oracle's grouping semantics.

    Don't-care (``@``) LHS cells are excluded from the partition attributes —
    matching the oracle, which groups by ``X_free`` only — so wildcard cells
    remain part of the grouping key and constants filter partitions.
    """
    lhs_free = _lhs_free(cfd, pattern)
    cells = [pattern.lhs_cell(attr) for attr in lhs_free]

    constant_rhs = [
        (attr, relation.schema.position(attr), pattern.rhs_cell(attr))
        for attr in cfd.rhs
        if pattern.rhs_cell(attr).is_constant
    ]
    rhs_free = tuple(attr for attr in cfd.rhs if not pattern.rhs_cell(attr).is_dontcare)

    if isinstance(relation, ColumnStore):
        # Columnar fast path: both checks run over dictionary codes — an
        # expected constant encodes to at most one code (None means no cell
        # ever held the value, so every matching tuple violates), and RHS
        # agreement is cardinality of code projections (codes biject onto
        # values).  Values are decoded only when a violation is emitted, and
        # the per-group scans are the active kernel's (see repro.kernels).
        const_checks = [
            (attr, relation.codes(attr), relation.encode(attr, cell.value), cell.value)
            for attr, _position, cell in constant_rhs
        ]
        rhs_columns = relation.project_codes(rhs_free)
        kernel = active_kernel()
        index: Optional[PartitionIndex] = None
        if (
            kernel.fused_variable_scan
            and lhs_free
            and rhs_free
            and not const_checks
        ):
            # Wildcard or mixed constant/wildcard pattern on an array
            # kernel: the fused Q^V scan (one sort + one reduction over the
            # whole window, with constant LHS cells applied as a row mask
            # before the group-by) beats grouping through a partition index
            # — unless an index already exists, in which case reusing it is
            # cheaper still.
            index = cache.peek(lhs_free)
            if index is None:
                mask: List[Tuple[Any, int]] = []
                for attr, cell in zip(lhs_free, cells):
                    if not cell.is_constant:
                        continue
                    code = relation.encode(attr, cell.value)
                    if code is None:
                        # No cell ever held the constant: nothing matches
                        # this pattern, so it cannot be violated.
                        return
                    mask.append((relation.codes(attr), code))
                lhs_columns = [relation.codes(attr) for attr in lhs_free]
                for key_codes, members in kernel.variable_violation_groups(
                    lhs_columns, rhs_columns, 0, len(relation), mask=mask or None
                ):
                    yield VariableViolation(
                        cfd_name=cfd.name,
                        pattern_index=pattern_index,
                        tuple_indices=tuple(members),
                        attributes=lhs_free,
                        group_key=tuple(
                            relation.decode(attr, code)
                            for attr, code in zip(lhs_free, key_codes)
                        ),
                    )
                return
        if index is None:
            index = cache.get(lhs_free)
        for key, indices in index.matching(cells):
            if const_checks:
                mismatches = [
                    kernel.constant_mismatches(column, indices, expected_code)
                    for _attr, column, expected_code, _expected in const_checks
                ]
                yield from constant_code_violations(
                    relation, cfd.name, pattern_index, const_checks, mismatches
                )
            if rhs_free and len(indices) > 1 and kernel.codes_disagree(rhs_columns, indices):
                yield VariableViolation(
                    cfd_name=cfd.name,
                    pattern_index=pattern_index,
                    tuple_indices=tuple(indices),
                    attributes=lhs_free,
                    group_key=tuple(key),
                )
        return

    rhs_positions = relation.schema.positions(rhs_free) if rhs_free else ()
    index = cache.get(lhs_free)
    for key, indices in index.matching(cells):
        # Q^C semantics: each matching tuple must honour the constant RHS cells.
        for tuple_index in indices if constant_rhs else ():
            row = relation[tuple_index]
            for attr, position, cell in constant_rhs:
                if row[position] != cell.value:
                    yield ConstantViolation(
                        cfd_name=cfd.name,
                        pattern_index=pattern_index,
                        tuple_indices=(tuple_index,),
                        attribute=attr,
                        expected=cell.value,
                        actual=row[position],
                    )
        # Q^V semantics: a matching partition must agree on the free RHS.
        if rhs_free and len(indices) > 1:
            rhs_values = {
                tuple(relation[tuple_index][position] for position in rhs_positions)
                for tuple_index in indices
            }
            if len(rhs_values) > 1:
                yield VariableViolation(
                    cfd_name=cfd.name,
                    pattern_index=pattern_index,
                    tuple_indices=tuple(indices),
                    attributes=lhs_free,
                    group_key=tuple(key),
                )


def constant_code_violations(
    store: ColumnStore,
    cfd_name: str,
    pattern_index: int,
    checks: Sequence[Tuple[str, Any, Optional[int], Any]],
    per_check_mismatches: Sequence[Sequence[int]],
) -> Iterator[ConstantViolation]:
    """Emit ``Q^C`` violations of one class from per-check mismatch subsets.

    ``checks`` holds one ``(attribute, code column, expected code, expected
    value)`` entry per constant RHS cell and ``per_check_mismatches`` the
    aligned mismatching member subsets (each ascending).  Emission is
    tuple-major — all checks of tuple ``i`` before any check of tuple
    ``i+1`` — matching the scan oracle: the single-check case walks its
    subset directly, the multi-check case re-walks the sorted union against
    every check.  This is the one shared emission path of the indexed
    detector and the incremental repair state, so their reports cannot drift
    apart.
    """
    if len(checks) == 1:
        attr, column, _expected_code, expected = checks[0]
        for tuple_index in per_check_mismatches[0]:
            yield ConstantViolation(
                cfd_name=cfd_name,
                pattern_index=pattern_index,
                tuple_indices=(tuple_index,),
                attribute=attr,
                expected=expected,
                actual=store.decode(attr, column[tuple_index]),
            )
        return
    dirty: set = set()
    for mismatches in per_check_mismatches:
        dirty.update(mismatches)
    for tuple_index in sorted(dirty):
        for attr, column, expected_code, expected in checks:
            code = column[tuple_index]
            if code != expected_code:
                yield ConstantViolation(
                    cfd_name=cfd_name,
                    pattern_index=pattern_index,
                    tuple_indices=(tuple_index,),
                    attribute=attr,
                    expected=expected,
                    actual=store.decode(attr, code),
                )


def codes_disagree(columns: Sequence[Any], indices: Sequence[int]) -> bool:
    """Whether the code projections of ``indices`` take more than one value.

    Codes biject onto values per attribute, so code disagreement *is* value
    disagreement — the ``Q^V`` check without decoding a single cell.  Shared
    by the indexed backend and the incremental repair state; dispatches to
    the active kernel (:mod:`repro.kernels`), every implementation of which
    answers identically.
    """
    return active_kernel().codes_disagree(columns, indices)
