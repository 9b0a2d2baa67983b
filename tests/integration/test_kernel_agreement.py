"""Property-based equivalence of the python and numpy kernel layers.

The kernel×storage×method grid: for random relations and CFD sets, every
columnar-capable detection method and repair engine must produce the
byte-identical violation sequence / repair under ``kernel="python"`` and
``kernel="numpy"``, on both storage layers.  Together with
``test_storage_agreement.py`` (rows vs columnar per storage) this pins the
full lattice — any single acceleration that drifts from the pure-Python
reference semantics fails here first.

The numpy side runs with the small-input fallback disabled
(:data:`repro.kernels.numpy_kernels.SMALL_INPUT_THRESHOLD` forced to 0), so
the vectorised code paths are exercised even though Hypothesis draws small
relations — otherwise every example would silently delegate back to the
python kernel and the grid would prove nothing.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import DetectionConfig, RepairConfig
from repro.core.cfd import CFD
from repro.detection.engine import detect_violations
from repro.detection.indexed import detect_stream
from repro.errors import RepairError
from repro.kernels import numpy_available
from repro.reasoning.consistency import is_consistent
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.repair.heuristic import repair

ATTRIBUTES = ("A", "B", "C", "D")
VALUES = ("v0", "v1", "v2")

row = st.tuples(*(st.sampled_from(VALUES) for _ in ATTRIBUTES))
cell = st.one_of(st.sampled_from(VALUES), st.just("_"))

#: The detection methods whose hot loops go through the kernel layer, plus
#: the oracle as an extra reference point.  The parallel backend runs with
#: workers=1 (serial in-process path) so the property suite does not spin up
#: a pool per example.
DETECTION_METHODS = ("inmemory", "indexed", "parallel")

#: The repair engines whose detection layer is kernel-capable.
REPAIR_METHODS = ("indexed", "incremental", "parallel")

STORAGES = ("rows", "columnar")

requires_numpy = pytest.mark.skipif(
    not numpy_available(), reason="the numpy kernel needs the [fast] extra"
)


@contextmanager
def force_vectorised():
    """Disable the numpy kernel's small-input fallback for the duration.

    The fallback is a pure speed knob; forcing it off makes every example —
    however small Hypothesis draws it — run the real array code.
    """
    from repro.kernels import numpy_kernels

    previous = numpy_kernels.SMALL_INPUT_THRESHOLD
    numpy_kernels.SMALL_INPUT_THRESHOLD = 0
    try:
        yield
    finally:
        numpy_kernels.SMALL_INPUT_THRESHOLD = previous


@st.composite
def cfds(draw):
    n_lhs = draw(st.integers(min_value=1, max_value=2))
    lhs = list(draw(st.permutations(ATTRIBUTES)))[:n_lhs]
    remaining = [attr for attr in ATTRIBUTES if attr not in lhs]
    n_rhs = draw(st.integers(min_value=1, max_value=2))
    rhs = remaining[:n_rhs]
    patterns = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        pattern = {attr: draw(cell) for attr in lhs}
        pattern.update({attr: draw(cell) for attr in rhs})
        patterns.append(pattern)
    return CFD.build(lhs, rhs, patterns)


@st.composite
def relations(draw):
    rows = draw(st.lists(row, min_size=0, max_size=8))
    return Relation(Schema("r", ATTRIBUTES), rows)


def _detection_config(method, storage, kernel):
    if method == "parallel":
        return DetectionConfig(method=method, storage=storage, kernel=kernel, workers=1)
    return DetectionConfig(method=method, storage=storage, kernel=kernel)


def _repair_config(method, storage, kernel):
    if method == "parallel":
        return RepairConfig(
            method=method, storage=storage, kernel=kernel, workers=1,
            check_consistency=False,
        )
    return RepairConfig(
        method=method, storage=storage, kernel=kernel, check_consistency=False
    )


@requires_numpy
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_detection_agrees_across_kernels(relation, cfd_list):
    for method in DETECTION_METHODS:
        for storage in STORAGES:
            python_report = detect_violations(
                relation, cfd_list, config=_detection_config(method, storage, "python")
            )
            with force_vectorised():
                numpy_report = detect_violations(
                    relation,
                    cfd_list,
                    config=_detection_config(method, storage, "numpy"),
                )
            assert list(python_report.violations) == list(numpy_report.violations), (
                method,
                storage,
            )


@requires_numpy
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=2))
def test_repair_agrees_across_kernels(relation, cfd_list):
    if not is_consistent(cfd_list):
        return
    for method in REPAIR_METHODS:
        for storage in STORAGES:
            outcomes = {}
            for kernel in ("python", "numpy"):
                try:
                    if kernel == "numpy":
                        with force_vectorised():
                            outcomes[kernel] = repair(
                                relation,
                                cfd_list,
                                config=_repair_config(method, storage, kernel),
                            )
                    else:
                        outcomes[kernel] = repair(
                            relation,
                            cfd_list,
                            config=_repair_config(method, storage, kernel),
                        )
                except RepairError:
                    outcomes[kernel] = "no-progress"
            python_result, numpy_result = outcomes["python"], outcomes["numpy"]
            if python_result == "no-progress" or numpy_result == "no-progress":
                assert python_result == numpy_result, (method, storage)
                continue
            assert python_result.relation.rows == numpy_result.relation.rows, (
                method,
                storage,
            )
            assert python_result.changes == numpy_result.changes, (method, storage)
            assert python_result.clean == numpy_result.clean, (method, storage)
            assert python_result.total_cost == numpy_result.total_cost, (
                method,
                storage,
            )


@requires_numpy
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=2))
def test_streaming_detection_agrees_across_kernels(relation, cfd_list):
    python_report = detect_stream(
        relation.schema, iter(relation), cfd_list, chunk_size=3, kernel="python"
    )
    with force_vectorised():
        numpy_report = detect_stream(
            relation.schema, iter(relation), cfd_list, chunk_size=3, kernel="numpy"
        )
    assert list(python_report.violations) == list(numpy_report.violations)


@requires_numpy
def test_batched_repair_path_is_active():
    """Guard: a deterministic repair through the vectorised batch primitives
    matches the python reference exactly.

    Which partition index each kernel gets (array under numpy, dict under
    python or on int64 overflow) is pinned in
    ``tests/repair/test_batched_state.py``.
    """
    from repro.datagen.cust import cust_cfds, cust_relation

    rows = cust_relation()
    results = {}
    for kernel in ("python", "numpy"):
        with force_vectorised():
            results[kernel] = repair(
                rows, cust_cfds(), config=_repair_config("incremental", "columnar", kernel)
            )
    assert results["python"].changes == results["numpy"].changes
    assert results["python"].relation.rows == results["numpy"].relation.rows


def test_auto_kernel_repair_degrades_gracefully():
    """``kernel="auto"`` repairs identically with or without numpy installed.

    Not numpy-gated on purpose: in the no-numpy environment ``auto`` resolves
    to the python reference (and the repair state indexes with dicts), and
    the result must still be byte-identical to an explicit ``kernel="python"``
    run.  With numpy present the same assertion pins auto == python through
    the array index.
    """
    from repro.datagen.cust import cust_cfds, cust_relation

    rows = cust_relation()
    auto = repair(
        rows, cust_cfds(), config=_repair_config("incremental", "columnar", "auto")
    )
    reference = repair(
        rows, cust_cfds(), config=_repair_config("incremental", "columnar", "python")
    )
    assert auto.changes == reference.changes
    assert auto.relation.rows == reference.relation.rows
    assert auto.total_cost == reference.total_cost
    assert auto.clean == reference.clean


def test_kernel_agreement_covers_every_columnar_builtin():
    """Guard: the method lists above cover every kernel-capable builtin."""
    from repro.registry import COLUMNAR_DETECTORS, COLUMNAR_REPAIRERS

    assert COLUMNAR_DETECTORS <= set(DETECTION_METHODS)
    assert COLUMNAR_REPAIRERS <= set(REPAIR_METHODS)
