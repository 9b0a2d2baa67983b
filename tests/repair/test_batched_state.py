"""Tests for the batched delta of :class:`RepairState` and its two indexes.

Every state resolves its dirty classes with ``evaluate_classes`` kernel
calls; only the partition index varies — the array-backed
``CodePartitionIndex`` under a ``fused_repair_scan`` kernel, the dict-backed
``PartitionIndex`` under the python kernel or when a composite key would
overflow ``int64``.  These tests pin the equivalences the delta relies on,
under each index: a batch of changes applied in one
:meth:`RepairState.apply_changes` call leaves the state identical to
applying them one at a time and to a from-scratch rebuild; no-op entries are
not counted; outside mutation still trips the version guard; and a row
relation is encoded without touching the caller's object.
"""

from __future__ import annotations

import pytest

from repro.core.satisfaction import find_all_violations
from repro.datagen.cust import cust_cfds, cust_relation
from repro.detection.partition_index import CodePartitionIndex, PartitionIndex
from repro.errors import DetectionError
from repro.kernels import numpy_available, use_kernel
from repro.relation.columnar import ColumnStore
from repro.repair.incremental import RepairState, canonical_order

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the array index needs the [fast] extra"
)

#: A change sequence exercising the interesting shapes: a no-op (tuple 0
#: already holds CT='NYC'), an RHS fix, an LHS move off the no-op'd cell
#: (the intermediate class must be dirtied too), a fresh dictionary value,
#: and a trailing no-op.  Three of the five entries actually change a cell.
CHANGES = [
    (0, "CT", "NYC"),  # already holds NYC: must not count as applied
    (3, "ZIP", "10012"),
    (0, "CT", "Chicago"),
    (2, "STR", "somewhere new"),
    (1, "CT", "NYC"),  # already holds NYC: must not count as applied
]
EFFECTIVE = 3


@pytest.fixture
def store():
    store = ColumnStore.from_relation(cust_relation())
    for cfd in cust_cfds():
        for attribute in cfd.attributes:
            store.codes(attribute)
    return store


def index_kinds(state):
    return {type(index) for index in state._indexes.values()}


def array_state(store):
    with use_kernel("numpy"):
        state = RepairState(store, cust_cfds())
    assert index_kinds(state) == {CodePartitionIndex}
    return state


@pytest.mark.parametrize(
    "kernel, overflow, index_kind",
    [
        pytest.param(
            "numpy", False, CodePartitionIndex, id="array", marks=requires_numpy
        ),
        pytest.param("python", False, PartitionIndex, id="dict"),
        pytest.param(
            "numpy", True, PartitionIndex, id="dict-overflow", marks=requires_numpy
        ),
    ],
)
def test_per_change_batch_and_rebuild_agree(
    store, monkeypatch, kernel, overflow, index_kind
):
    if overflow:
        # No composite key fits int64 any more: the array index refuses the
        # LHS sets and the state indexes every one with a dict instead.
        monkeypatch.setattr(CodePartitionIndex, "HEADROOM", 2**63)
    cfds = cust_cfds()
    with use_kernel(kernel):
        per_change = RepairState(store.copy(), cfds)
        batch = RepairState(store.copy(), cfds)
        assert index_kinds(per_change) == index_kinds(batch) == {index_kind}
        applied_one_at_a_time = sum(
            per_change.apply_change(*change) for change in CHANGES
        )
        applied = batch.apply_changes(CHANGES)
        rebuilt = RepairState(batch.relation.copy(), cfds)
    assert applied == applied_one_at_a_time == EFFECTIVE
    assert batch.stats()["changes_applied"] == per_change.stats()["changes_applied"]
    assert batch.relation.rows == per_change.relation.rows
    oracle = canonical_order(find_all_violations(batch.relation, cfds), cfds)
    assert list(batch.report().violations) == oracle
    assert list(per_change.report().violations) == oracle
    assert list(rebuilt.report().violations) == oracle


def test_row_relation_is_encoded_and_left_untouched():
    rows = cust_relation()
    snapshot = (rows.rows, rows.version)
    over_rows = RepairState(rows, cust_cfds())
    over_store = RepairState(ColumnStore.from_relation(rows), cust_cfds())
    assert isinstance(over_rows.relation, ColumnStore)
    assert list(over_rows.report().violations) == list(over_store.report().violations)
    applied = over_rows.apply_changes(CHANGES)
    assert applied == over_store.apply_changes(CHANGES) == EFFECTIVE
    assert list(over_rows.report().violations) == list(over_store.report().violations)
    assert over_rows.relation.rows == over_store.relation.rows
    assert (rows.rows, rows.version) == snapshot


@requires_numpy
def test_initial_report_matches_reference(store):
    with use_kernel("python"):
        reference = RepairState(store.copy(), cust_cfds())
    assert list(array_state(store).report().violations) == list(
        reference.report().violations
    )


@requires_numpy
def test_apply_changes_matches_sequential_reference(store):
    state = array_state(store)
    with use_kernel("python"):
        reference = RepairState(store.copy(), cust_cfds())
    applied_one_at_a_time = sum(
        reference.apply_change(*change) for change in CHANGES
    )
    with use_kernel("numpy"):
        applied = state.apply_changes(CHANGES)
    assert applied == applied_one_at_a_time == EFFECTIVE
    assert list(state.report().violations) == list(reference.report().violations)
    assert state.relation.rows == reference.relation.rows


@requires_numpy
def test_apply_changes_matches_fresh_rebuild(store):
    state = array_state(store)
    with use_kernel("numpy"):
        state.apply_changes(CHANGES)
        rebuilt = RepairState(state.relation, cust_cfds())
    assert list(state.report().violations) == list(rebuilt.report().violations)


@requires_numpy
def test_noop_batch_applies_nothing(store):
    state = array_state(store)
    before = state.stats()["changes_applied"]
    with use_kernel("numpy"):
        assert state.apply_changes([(1, "CT", "NYC"), (1, "CT", "NYC")]) == 0
        assert state.apply_changes([]) == 0
    assert state.stats()["changes_applied"] == before
    assert state.relation.version == store.version


@requires_numpy
def test_apply_change_delegates_to_batch(store):
    state = array_state(store)
    with use_kernel("numpy"):
        assert state.apply_change(0, "CT", "PHI") is True
        assert state.apply_change(0, "CT", "PHI") is False


@requires_numpy
def test_outside_mutation_trips_version_guard(store):
    state = array_state(store)
    store.update(0, "CT", "elsewhere")
    with pytest.raises(DetectionError):
        state.report()
    with use_kernel("numpy"), pytest.raises(DetectionError):
        state.apply_changes([(0, "CT", "NYC")])
