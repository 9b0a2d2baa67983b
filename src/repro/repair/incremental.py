"""Delta-maintained violation state for the repair loop.

The repair heuristic (Section 6) is an iterative fixpoint: detect violations,
fix some cells, detect again.  Re-running full detection on every pass costs
``O(passes x |Σ| x |I| x TABSZ)`` with the scan oracle — and even the
partition-indexed backend rebuilds its partition maps from scratch each time.
But a repair pass changes a handful of *cells*, and a single cell change can
only affect

* the patterns whose ``@``-free LHS or non-``@`` RHS mentions the changed
  attribute, and
* within such a pattern, the tuples of the changed tuple's *old* and *new*
  equivalence classes under the pattern's LHS partition.

:class:`RepairState` exploits exactly that, over dictionary codes.  The
relation is encoded once into a :class:`~repro.relation.columnar.ColumnStore`
(a row :class:`~repro.relation.relation.Relation` is copied into one, so the
caller's object is never mutated) and indexed once, one partition index per
distinct ``@``-free LHS.  The initial report is one ``evaluate_classes``
kernel call per pattern over its matching classes, and
:meth:`RepairState.apply_changes` resolves the *entire dirty class set* of a
change batch with one such call per dirty pattern — gather the affected
members, reduce, materialise only what reports.

The kernel seam is the one definition of the ``Q^C``/``Q^V`` semantics: the
python kernel is the reference and the scan oracle checks the results.  Only
the partition index varies.  It is the array-backed
:class:`~repro.detection.partition_index.CodePartitionIndex` when the active
kernel advertises ``fused_repair_scan``, and the dict-backed
:class:`~repro.detection.partition_index.PartitionIndex` otherwise (the
python kernel, an install without numpy, or a composite key that would
overflow ``int64``).  The two differ only in how a pattern's matching
classes are enumerated, how one class's members are fetched and how changed
tuples are re-placed.

Evaluating every dirtied class once at the post-batch state yields exactly
what change-by-change re-evaluation yields (a later change that could alter
a class's verdict necessarily re-dirties that class), so a batch and its
entries applied one at a time leave identical states.  Reports are emitted
in the *canonical order* — the order the scan oracle produces — so the
greedy repair heuristic makes identical decisions no matter which detection
engine feeds it.  See ``docs/repair.md`` for the complexity analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.cfd import CFD
from repro.core.pattern import PatternValue
from repro.core.violations import (
    ConstantViolation,
    VariableViolation,
    Violation,
    ViolationReport,
)
from repro.detection.indexed import constant_code_violations
from repro.detection.partition_index import CodePartitionIndex, PartitionIndex
from repro.errors import DetectionError
from repro.kernels import active_kernel
from repro.relation.columnar import ColumnStore
from repro.relation.relation import Relation, Row


# ---------------------------------------------------------------------------
# canonical violation order
# ---------------------------------------------------------------------------
def canonical_order(violations: Iterable[Violation], cfds: Sequence[CFD]) -> List[Violation]:
    """Sort ``violations`` into the order the scan oracle reports them.

    The oracle (:func:`repro.core.satisfaction.find_all_violations`) emits,
    per CFD in input order and per pattern tuple in tableau order, first the
    constant violations (ascending tuple index, RHS attributes in CFD order)
    and then the variable violations (ascending smallest member index).  Every
    backend finds the same violation *set*; sorting by this key makes the
    *sequence* identical too, which is what lets the greedy repair heuristic
    reach the same repaired relation regardless of the detection engine
    driving it.  The sort is stable, so a report already in oracle order is
    returned unchanged.
    """
    cfd_position: Dict[str, int] = {}
    rhs_position: Dict[str, Dict[str, int]] = {}
    for position, cfd in enumerate(cfds):
        if cfd.name not in cfd_position:
            cfd_position[cfd.name] = position
            rhs_position[cfd.name] = {attr: i for i, attr in enumerate(cfd.rhs)}

    def key(violation: Violation) -> Tuple[int, int, int, int, int]:
        cfd_rank = cfd_position.get(violation.cfd_name, len(cfd_position))
        if isinstance(violation, ConstantViolation):
            attr_rank = rhs_position.get(violation.cfd_name, {}).get(violation.attribute, 0)
            return (cfd_rank, violation.pattern_index, 0, violation.tuple_indices[0], attr_rank)
        return (cfd_rank, violation.pattern_index, 1, min(violation.tuple_indices), 0)

    return sorted(violations, key=key)


# ---------------------------------------------------------------------------
# per-pattern metadata
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class _PatternSpec:
    """Everything needed to evaluate one pattern tuple against one partition."""

    spec_id: int
    cfd: CFD
    pattern_index: int
    #: ``@``-free LHS attributes in LHS order — the partition attributes.
    lhs_free: Tuple[str, ...]
    lhs_positions: Tuple[int, ...]
    #: LHS pattern cells aligned with ``lhs_free``.
    cells: Tuple[PatternValue, ...]
    #: ``(attribute, expected constant)`` per constant RHS cell.
    constant_rhs: Tuple[Tuple[str, Any], ...]
    #: non-``@`` RHS attributes in RHS order (the ``Q^V`` projection).
    rhs_free: Tuple[str, ...]

    def key_matches(self, key: Tuple[Any, ...]) -> bool:
        """Whether a partition key matches this pattern's LHS constants."""
        return all(cell.matches(value) for cell, value in zip(self.cells, key))


def _build_specs(relation: Relation, cfds: Sequence[CFD]) -> List[_PatternSpec]:
    schema = relation.schema
    specs: List[_PatternSpec] = []
    for cfd in cfds:
        for pattern_index, pattern in enumerate(cfd.tableau):
            lhs_free = tuple(attr for attr in cfd.lhs if not pattern.lhs_cell(attr).is_dontcare)
            specs.append(
                _PatternSpec(
                    spec_id=len(specs),
                    cfd=cfd,
                    pattern_index=pattern_index,
                    lhs_free=lhs_free,
                    lhs_positions=schema.positions(lhs_free),
                    cells=tuple(pattern.lhs_cell(attr) for attr in lhs_free),
                    constant_rhs=tuple(
                        (attr, pattern.rhs_cell(attr).value)
                        for attr in cfd.rhs
                        if pattern.rhs_cell(attr).is_constant
                    ),
                    rhs_free=tuple(
                        attr
                        for attr in cfd.rhs
                        if not pattern.rhs_cell(attr).is_dontcare
                    ),
                )
            )
    return specs


#: A partition index of either kind.
_Index = Union[CodePartitionIndex, PartitionIndex]
#: A class key and its members, ascending.
_Class = Tuple[Tuple[Any, ...], Sequence[int]]


def _flatten(classes: Sequence[_Class]) -> Tuple[List[int], List[int]]:
    """The kernels' flat ``(indices, offsets)`` form of the classes' members."""
    indices: List[int] = []
    offsets: List[int] = []
    for _key, members in classes:
        offsets.append(len(indices))
        indices.extend(members)
    return indices, offsets


# ---------------------------------------------------------------------------
# the incremental engine
# ---------------------------------------------------------------------------
class RepairState:
    """Violation state of ``relation`` against ``cfds``, maintained under cell changes.

    The relation is encoded once — a :class:`ColumnStore` is adopted as is, a
    row relation is copied into one — and indexed once, one partition index
    per distinct ``@``-free LHS attribute tuple, shared across patterns and
    CFDs.  The initial report is one ``evaluate_classes`` kernel call per
    pattern; from then on :meth:`apply_changes` keeps both the indexes and
    the per-partition violation store correct in time proportional to the
    *touched* partitions, not the relation (see the module docstring).

    The state owns :attr:`relation` operationally: every mutation must flow
    through :meth:`apply_change` or :meth:`apply_changes`, or the maintained
    report goes stale (the version guard turns the next read into an error).

    >>> from repro.datagen.cust import cust_relation, cust_cfds
    >>> state = RepairState(cust_relation(), cust_cfds())
    >>> state.is_clean()
    False
    >>> sorted(state.report().violating_indices())
    [0, 1, 2, 3]
    """

    def __init__(self, relation: Relation, cfds: Sequence[CFD]) -> None:
        store = (
            relation
            if isinstance(relation, ColumnStore)
            else ColumnStore.from_relation(relation)
        )
        self._relation = store
        self._cfds = list(cfds)
        self._specs = _build_specs(store, self._cfds)

        # attribute -> specs whose LHS ∪ RHS mention it (the dirty-spec map).
        self._specs_by_attr: Dict[str, List[_PatternSpec]] = {}
        for spec in self._specs:
            for attr in dict.fromkeys(spec.lhs_free + spec.rhs_free):
                self._specs_by_attr.setdefault(attr, []).append(spec)

        # spec_id -> partition key -> violations of that pattern in that class.
        self._store: List[Dict[Tuple[Any, ...], List[Violation]]] = [
            {} for _ in self._specs
        ]
        # spec_id -> (dictionary versions, encoded Q^C checks) — see
        # _const_checks.
        self._const_cache: Dict[int, Tuple[Tuple[int, ...], List[Tuple[str, Any, Optional[int], Any]]]] = {}
        self._indexes = self._build_indexes({spec.lhs_free for spec in self._specs})

        self._changes_applied = 0
        self._patterns_reevaluated = 0
        self._partitions_reevaluated = 0
        self._expected_version = store.version
        for spec in self._specs:
            batch = self._matching_classes(spec)
            if batch is not None:
                self._check_classes(spec, *batch)

    # ------------------------------------------------------------------ queries
    @property
    def relation(self) -> ColumnStore:
        """The encoded store whose violation state is being maintained."""
        return self._relation

    @property
    def cfds(self) -> Tuple[CFD, ...]:
        return tuple(self._cfds)

    def _check_synchronized(self) -> None:
        """Raise when the relation mutated outside :meth:`apply_change`.

        An insert, delete or raw update behind the state's back leaves the
        maintained report describing a relation that no longer exists; the
        version counter turns the next read into a loud error instead of a
        silently wrong answer.
        """
        if self._relation.version != self._expected_version:
            raise DetectionError(
                "the relation was mutated outside apply_change while a "
                f"RepairState was live (version {self._relation.version}, "
                f"state built at {self._expected_version}); rebuild the "
                "RepairState over the current relation"
            )

    def violation_count(self) -> int:
        self._check_synchronized()
        return sum(len(violations) for store in self._store for violations in store.values())

    def is_clean(self) -> bool:
        """Whether the relation currently satisfies every CFD."""
        self._check_synchronized()
        return all(not store for store in self._store)

    def report(self) -> ViolationReport:
        """The current violations, in the scan oracle's canonical order."""
        self._check_synchronized()
        violations = [
            violation
            for store in self._store
            for partition_violations in store.values()
            for violation in partition_violations
        ]
        return ViolationReport(canonical_order(violations, self._cfds))

    def stats(self) -> Dict[str, int]:
        """Delta-maintenance counters (how little work apply_changes did)."""
        return {
            "changes_applied": self._changes_applied,
            "patterns_reevaluated": self._patterns_reevaluated,
            "partitions_reevaluated": self._partitions_reevaluated,
        }

    # ------------------------------------------------------------------ the delta
    def apply_change(self, tuple_index: int, attribute: str, new_value: Any) -> bool:
        """Set one cell and repair the violation state by delta.

        A one-entry :meth:`apply_changes`: returns ``False`` (and changes
        nothing) when the cell already holds ``new_value``.
        """
        return self.apply_changes([(tuple_index, attribute, new_value)]) > 0

    def apply_changes(self, changes: Sequence[Tuple[int, str, Any]]) -> int:
        """Apply a batch of cell changes and repair the state in one delta.

        Semantically identical to calling :meth:`apply_change` per entry, in
        order (no-op entries included); returns how many entries actually
        changed a cell.  The whole batch costs three bulk steps: the cell
        updates themselves (collecting each change's old/new partition keys
        as the dirty set), **one re-placement of the moved tuples per touched
        partition index**, and **one ``evaluate_classes`` kernel call per
        dirty pattern** over all of its dirty classes at once.  Evaluating
        each dirtied class once against the final state is exactly
        equivalent to the sequential delta: any intermediate change that
        could alter a class's verdict also dirties that class.
        """
        self._check_synchronized()
        relation = self._relation
        schema = relation.schema
        # Evolving row snapshots: each change's old/new keys are computed
        # against the rows as they stand mid-batch, so a tuple changed twice
        # dirties its intermediate class too.
        rows_now: Dict[int, List[Any]] = {}
        # tuple index -> (pre-batch row, attributes changed in the batch).
        changed: Dict[int, Tuple[Row, Set[str]]] = {}
        dirty: Dict[int, Dict[Tuple[Any, ...], None]] = {}
        applied = 0
        for tuple_index, attribute, new_value in changes:
            position = schema.position(attribute)
            row = rows_now.get(tuple_index)
            if row is None:
                row = list(relation[tuple_index])
            if row[position] == new_value:
                continue
            old_row = tuple(row)
            relation.update(tuple_index, attribute, new_value)
            row[position] = new_value
            rows_now[tuple_index] = row
            changed.setdefault(tuple_index, (old_row, set()))[1].add(attribute)
            applied += 1
            for spec in self._specs_by_attr.get(attribute, ()):
                self._patterns_reevaluated += 1
                keys = dirty.setdefault(spec.spec_id, {})
                keys[tuple(old_row[p] for p in spec.lhs_positions)] = None
                keys[tuple(row[p] for p in spec.lhs_positions)] = None
        if not applied:
            return 0
        self._changes_applied += applied
        self._expected_version = relation.version
        for lhs_free, index in self._indexes.items():
            moved = {
                tuple_index: old_row
                for tuple_index, (old_row, attrs) in changed.items()
                if attrs.intersection(lhs_free)
            }
            if moved:
                self._replace(index, moved)
        for spec in self._specs:
            keys = dirty.get(spec.spec_id)
            if keys:
                self._recheck(spec, keys)
        return applied

    def _recheck(self, spec: _PatternSpec, keys: Iterable[Tuple[Any, ...]]) -> None:
        """Recompute one pattern over its dirty classes — one kernel call."""
        spec_store = self._store[spec.spec_id]
        classes: List[_Class] = []
        for key in keys:
            self._partitions_reevaluated += 1
            spec_store.pop(key, None)
            # A class outside the pattern's LHS constants (the changed tuple
            # moved into a non-matching class) or one that emptied out holds
            # nothing of this pattern.
            if spec.key_matches(key):
                members = self._class_members(spec, key)
                if members:
                    classes.append((key, members))
        if classes:
            self._check_classes(spec, *_flatten(classes), classes.__getitem__)

    def _check_classes(
        self,
        spec: _PatternSpec,
        indices: Sequence[int],
        offsets: Sequence[int],
        class_at: Callable[[int], _Class],
    ) -> None:
        """Store the violations of one pattern over a batch of its classes.

        One ``evaluate_classes`` kernel call over the flat
        ``(indices, offsets)`` batch; ``class_at`` maps a reported class's
        batch position to its ``(key, members)``.  The classes must hold no
        stored violations of the pattern yet.
        """
        store = self._relation
        checks = self._const_checks(spec)
        const_pairs = [(column, code) for _attr, column, code, _expected in checks]
        rhs_columns = store.project_codes(spec.rhs_free) if spec.rhs_free else ()
        spec_store = self._store[spec.spec_id]
        for local, disagree, mismatches in active_kernel().evaluate_classes(
            rhs_columns, indices, offsets, const_pairs
        ):
            key, members = class_at(local)
            spec_store[key] = self._class_violations(
                spec, checks, key, members, disagree, mismatches
            )

    def _const_checks(self, spec: _PatternSpec) -> List[Tuple[str, Any, Optional[int], Any]]:
        """The pattern's encoded ``Q^C`` checks, cached per dictionary version.

        Each entry is ``(attribute, code column, expected code, expected
        value)``.  The dictionary grows under repair — an expected constant
        absent at one evaluation can be interned by a later fix — so the
        encode is not stable across the whole run; but it *is* stable while
        the constant attributes' dictionary versions stand still, which is
        virtually every evaluation.
        """
        if not spec.constant_rhs:
            return []
        store = self._relation
        versions = tuple(
            store.dictionary_version(attr) for attr, _expected in spec.constant_rhs
        )
        cached = self._const_cache.get(spec.spec_id)
        if cached is not None and cached[0] == versions:
            return cached[1]
        checks = [
            (attr, store.codes(attr), store.encode(attr, expected), expected)
            for attr, expected in spec.constant_rhs
        ]
        self._const_cache[spec.spec_id] = (versions, checks)
        return checks

    def _class_violations(
        self,
        spec: _PatternSpec,
        checks: Sequence[Tuple[str, Any, Optional[int], Any]],
        key: Tuple[Any, ...],
        members: Sequence[int],
        disagree: bool,
        mismatches: Sequence[Sequence[int]],
    ) -> List[Violation]:
        """Materialise one reported class's violations from kernel output.

        ``Q^C`` violations tuple-major through the shared
        :func:`~repro.detection.indexed.constant_code_violations` helper
        (which also serves indexed detection), then the single ``Q^V``
        violation over the full member list — the scan oracle's emission.
        """
        violations: List[Violation] = []
        if checks:
            violations.extend(
                constant_code_violations(
                    self._relation,
                    spec.cfd.name,
                    spec.pattern_index,
                    checks,
                    mismatches,
                )
            )
        if disagree:
            violations.append(
                VariableViolation(
                    cfd_name=spec.cfd.name,
                    pattern_index=spec.pattern_index,
                    tuple_indices=tuple(members),
                    attributes=spec.lhs_free,
                    group_key=key,
                )
            )
        return violations

    # ------------------------------------------------------------------ the indexes
    # The only code that depends on which index kind the state holds.
    def _build_indexes(
        self, lhs_sets: Iterable[Tuple[str, ...]]
    ) -> Dict[Tuple[str, ...], _Index]:
        """One partition index per distinct ``@``-free LHS.

        The array index needs numpy, which a kernel advertising
        ``fused_repair_scan`` guarantees.  It refuses a composite key that
        cannot fit ``int64`` (astronomically wide dictionaries); the dict
        index — the only one without numpy — serves every LHS then.
        """
        store = self._relation
        if getattr(active_kernel(), "fused_repair_scan", False):
            try:
                return {lhs: CodePartitionIndex(store, lhs) for lhs in lhs_sets}
            except DetectionError:
                pass
        return {lhs: PartitionIndex.from_relation(store, lhs) for lhs in lhs_sets}

    def _matching_classes(
        self, spec: _PatternSpec
    ) -> Optional[Tuple[Sequence[int], Sequence[int], Callable[[int], _Class]]]:
        """Every class matching ``spec``'s LHS constants, as a kernel batch.

        Returns ``(indices, offsets, class_at)`` for :meth:`_check_classes`,
        or ``None`` when an LHS constant occurs nowhere (nothing matches).
        The array index hands its classes over without materialising members
        — patterns with constant cells narrow them first with one vectorised
        key comparison — and only the classes the kernel flags decode their
        keys and members.
        """
        index = self._indexes[spec.lhs_free]
        if isinstance(index, PartitionIndex):
            classes: List[_Class] = list(index.matching(spec.cells))
            return (*_flatten(classes), classes.__getitem__)
        store = self._relation
        constants: List[Tuple[int, int]] = []
        for offset, cell in enumerate(spec.cells):
            if cell.is_constant:
                code = store.encode(spec.lhs_free[offset], cell.value)
                if code is None:
                    return None
                constants.append((offset, code))
        if constants:
            positions = index.matching_positions(constants)
            indices, offsets = index.gather(positions)
        else:
            positions = range(index.class_count)
            indices, offsets = index.class_table()

        def class_at(local: int) -> _Class:
            position = int(positions[local])
            key = tuple(
                store.decode(attr, code)
                for attr, code in zip(spec.lhs_free, index.key_codes_at(position))
            )
            return key, index.members_at(position)

        return indices, offsets, class_at

    def _class_members(self, spec: _PatternSpec, key: Tuple[Any, ...]) -> Sequence[int]:
        """The members of ``spec``'s class ``key``, ascending (empty when none)."""
        index = self._indexes[spec.lhs_free]
        if isinstance(index, PartitionIndex):
            return index.get(key)
        store = self._relation
        position = index.find(
            tuple(store.encode(attr, value) for attr, value in zip(spec.lhs_free, key))
        )
        return index.members_at(position) if position >= 0 else ()

    def _replace(self, index: _Index, moved: Dict[int, Row]) -> None:
        """Re-place changed tuples, given each one's pre-batch row, in ``index``."""
        if isinstance(index, PartitionIndex):
            for tuple_index, old_row in moved.items():
                index.reindex_tuple(tuple_index, old_row, self._relation[tuple_index])
        else:
            index.apply_moves(moved)

    def __repr__(self) -> str:
        return (
            f"RepairState({self._relation!r}, {len(self._cfds)} CFDs, "
            f"{self.violation_count()} violations)"
        )
