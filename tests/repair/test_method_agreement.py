"""Property-based agreement of the three repair engines.

For random small relations and random CFD sets, the scan-driven loop (the
seed behaviour), the indexed full-re-detection loop and the incremental
delta-maintained loop must walk the *same* trajectory: same change sequence,
same repaired relation, same clean-or-not outcome, same total cost.  The
canonical violation order is what makes this hold — these properties are the
net that keeps it true.
"""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.core.cfd import CFD
from repro.core.satisfaction import find_all_violations
from repro.errors import RepairError
from repro.reasoning.consistency import is_consistent
from repro.relation.relation import Relation
from repro.relation.schema import Schema
from repro.repair.heuristic import REPAIR_METHODS, repair
from repro.repair.incremental import RepairState

ATTRIBUTES = ("A", "B", "C", "D")
VALUES = ("v0", "v1", "v2")

row = st.tuples(*(st.sampled_from(VALUES) for _ in ATTRIBUTES))
cell = st.one_of(st.sampled_from(VALUES), st.just("_"))


@st.composite
def cfds(draw):
    n_lhs = draw(st.integers(min_value=1, max_value=2))
    lhs = list(draw(st.permutations(ATTRIBUTES)))[:n_lhs]
    remaining = [attr for attr in ATTRIBUTES if attr not in lhs]
    n_rhs = draw(st.integers(min_value=1, max_value=2))
    rhs = remaining[:n_rhs]
    n_patterns = draw(st.integers(min_value=1, max_value=3))
    patterns = []
    for _ in range(n_patterns):
        pattern = {attr: draw(cell) for attr in lhs}
        pattern.update({attr: draw(cell) for attr in rhs})
        patterns.append(pattern)
    return CFD.build(lhs, rhs, patterns)


@st.composite
def relations(draw):
    rows = draw(st.lists(row, min_size=0, max_size=8))
    return Relation(Schema("r", ATTRIBUTES), rows)


def _run(relation, cfd_list, method):
    """A comparable trajectory fingerprint, or the raised RepairError."""
    try:
        result = repair(relation, cfd_list, check_consistency=False, method=method)
    except RepairError as error:
        return ("error", str(error))
    return (
        result.clean,
        result.passes,
        round(result.total_cost, 9),
        tuple(
            (c.tuple_index, c.attribute, c.old_value, c.new_value, c.reason)
            for c in result.changes
        ),
        result.relation.rows,
    )


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_all_repair_methods_walk_the_same_trajectory(relation, cfd_list):
    assume(is_consistent(cfd_list))
    scan = _run(relation, cfd_list, "scan")
    for method in REPAIR_METHODS:
        if method == "scan":
            continue
        assert _run(relation, cfd_list, method) == scan, method


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(relations(), st.lists(cfds(), min_size=1, max_size=3))
def test_incremental_repair_reaches_equal_outcome_and_cost(relation, cfd_list):
    """The ISSUE's weaker contract, stated on its own: same clean-or-not
    outcome and an equal-or-lower total cost than the seed scan loop."""
    assume(is_consistent(cfd_list))
    try:
        scan = repair(relation, cfd_list, check_consistency=False, method="scan")
    except RepairError:
        return
    incremental = repair(relation, cfd_list, check_consistency=False, method="incremental")
    assert incremental.clean == scan.clean
    assert incremental.total_cost <= scan.total_cost + 1e-9
    if incremental.clean:
        assert find_all_violations(incremental.relation, cfd_list).is_clean()


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    relations(),
    st.lists(cfds(), min_size=1, max_size=2),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=7),
            st.sampled_from(ATTRIBUTES),
            st.sampled_from(VALUES),
        ),
        max_size=6,
    ),
)
def test_repair_state_tracks_oracle_under_random_changes(relation, cfd_list, edits):
    """After any sequence of apply_change calls, the maintained report equals
    a from-scratch oracle detection (as violation sets)."""
    state = RepairState(relation, cfd_list)
    for tuple_index, attribute, value in edits:
        if tuple_index >= len(relation):
            continue
        state.apply_change(tuple_index, attribute, value)
        oracle = find_all_violations(state.relation, cfd_list)
        assert set(state.report().violations) == set(oracle.violations)
        assert state.is_clean() == oracle.is_clean()
