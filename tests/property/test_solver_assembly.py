"""Sparse LP assembly and batched solving agree with the legacy path.

Two properties over the 48-seed fuzz corpus (the same instances the CI
conformance-fuzz job compiles):

1. **Assembly identity** — :func:`build_allocation_problem`, which
   emits the column-wise layout directly, produces the layout that the
   legacy per-coefficient dense loops (reimplemented verbatim here as
   the executable specification) give through
   :meth:`LPProblem.from_dense` — array for array.  Row order, column
   order, labels, bounds and right-hand sides all match exactly — not
   just up to permutation — in the compiler's ``z``-scaled form and the
   diagnoser's fixed-capacity form, with and without feedback caps, so
   downstream consumers (duals diagnoser, Farkas translation) are
   bit-compatible.

2. **Batch equivalence** — ``solve_batch`` returns the same verdicts,
   objectives and (for the stitched HiGHS path, per-block optimal)
   solutions as solving the same problems one by one, on every
   available backend.  Interval scheduling driven in lockstep batches
   must produce the identical schedule to the sequential driver.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.check.fuzz import FuzzPoint
from repro.core.assign_paths import lsd_assignment
from repro.core.interval_allocation import (
    AllocationProblem,
    allocate_intervals,
    build_allocation_problem,
)
from repro.core.interval_scheduling import schedule_intervals
from repro.core.pipeline import routed_and_local_messages
from repro.core.subsets import maximal_subsets
from repro.core.timebounds import compute_time_bounds
from repro.solvers import LPProblem, available_backends, get_backend
from repro.topology.base import Link

SEEDS = range(48)


def _legacy_dense_assembly(
    bounds, assignment, subset, interval_caps=None, fixed_capacity=False
) -> AllocationProblem:
    """The pre-sparse dense assembly, kept verbatim as the oracle."""
    lengths = bounds.intervals.lengths
    variables: list[tuple[str, int]] = []
    for name in subset:
        for k in bounds.active_intervals(name):
            variables.append((name, k))
    var_index = {v: i for i, v in enumerate(variables)}
    num_x = len(variables)
    num_cols = num_x if fixed_capacity else num_x + 1
    z_index = num_x

    a_eq = np.zeros((len(subset), num_cols))
    b_eq = np.zeros(len(subset))
    for row, name in enumerate(subset):
        for k in bounds.active_intervals(name):
            a_eq[row, var_index[(name, k)]] = 1.0
        b_eq[row] = bounds.bounds[name].duration

    rows: list[np.ndarray] = []
    b_rows: list[float] = []
    row_labels: list[tuple[str, Link | None, int]] = []
    links_seen: dict[tuple[Link, int], list[int]] = {}
    for name in subset:
        for link in assignment.links(name):
            for k in bounds.active_intervals(name):
                links_seen.setdefault((link, k), []).append(
                    var_index[(name, k)]
                )
    for (link, k), columns in links_seen.items():
        row = np.zeros(num_cols)
        row[columns] = 1.0
        if fixed_capacity:
            b_rows.append(lengths[k])
        else:
            row[z_index] = -lengths[k]
            b_rows.append(0.0)
        rows.append(row)
        row_labels.append(("link", link, k))
    for k, cap in (interval_caps or {}).items():
        columns = [
            var_index[(name, k)]
            for name in subset
            if (name, k) in var_index
        ]
        if not columns:
            continue
        row = np.zeros(num_cols)
        row[columns] = 1.0
        rows.append(row)
        b_rows.append(max(cap, 0.0))
        row_labels.append(("cap", None, k))
    a_ub = np.vstack(rows) if rows else None
    b_ub = np.asarray(b_rows) if rows else None

    c = np.zeros(num_cols)
    x_bounds = [(0.0, lengths[k]) for (_, k) in variables]
    if not fixed_capacity:
        c[z_index] = 1.0
        x_bounds.append((0.0, None))

    return AllocationProblem(
        problem=LPProblem.from_dense(
            c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, bounds=x_bounds
        ),
        variables=tuple(variables),
        eq_messages=tuple(subset),
        ub_rows=tuple(row_labels),
        fixed_capacity=fixed_capacity,
    )


def _corpus_subsets(seed):
    """(bounds, assignment, subsets) for one fuzz instance, or None."""
    timing, topology, allocation, tau_in = FuzzPoint.from_seed(seed).build()
    routed, _ = routed_and_local_messages(timing, allocation)
    if not routed:
        return None
    bounds = compute_time_bounds(timing, tau_in, routed)
    endpoints = {}
    by_name = {m.name: m for m in timing.tfg.messages}
    for name in routed:
        message = by_name[name]
        endpoints[name] = (
            allocation[message.src], allocation[message.dst]
        )
    assignment = lsd_assignment(topology, endpoints)
    return bounds, assignment, maximal_subsets(bounds, assignment)


def _assert_identical(built: AllocationProblem, oracle: AllocationProblem):
    lhs, rhs = built.problem, oracle.problem
    for field in LPProblem.__slots__:
        left, right = getattr(lhs, field), getattr(rhs, field)
        assert np.array_equal(left, right), field
        assert np.asarray(left).dtype == np.asarray(right).dtype, field
    assert built.variables == oracle.variables
    assert built.eq_messages == oracle.eq_messages
    # Labels exactly: same tags, links and interval ints, same types.
    assert [
        tuple((item, type(item)) for item in label) for label in built.ub_rows
    ] == [
        tuple((item, type(item)) for item in label) for label in oracle.ub_rows
    ]
    assert built.fixed_capacity == oracle.fixed_capacity


@pytest.mark.parametrize("seed", SEEDS)
def test_sparse_assembly_matches_legacy_dense(seed):
    case = _corpus_subsets(seed)
    if case is None:
        pytest.skip("instance has no routed messages")
    bounds, assignment, subsets = case
    assert subsets, "corpus instance with routed messages has a subset"
    for subset in subsets:
        subset = tuple(subset)
        for fixed in (False, True):
            _assert_identical(
                build_allocation_problem(
                    bounds, assignment, subset, fixed_capacity=fixed
                ),
                _legacy_dense_assembly(
                    bounds, assignment, subset, fixed_capacity=fixed
                ),
            )
        # Feedback-cap rows (the compiler's Fig. 3 arrow) too, in both
        # forms: caps on the first message's first and last intervals, a
        # negative cap (clamped to 0) and one on an interval no column
        # of the subset uses (no row).
        lengths = bounds.intervals.lengths
        ks = bounds.active_intervals(subset[0])
        used = {k for name in subset for k in bounds.active_intervals(name)}
        caps = {ks[-1]: -1.0, ks[0]: 0.5 * lengths[ks[0]]}
        caps.update((k, 1.0) for k in range(len(lengths)) if k not in used)
        for fixed in (False, True):
            _assert_identical(
                build_allocation_problem(
                    bounds, assignment, subset, interval_caps=caps,
                    fixed_capacity=fixed,
                ),
                _legacy_dense_assembly(
                    bounds, assignment, subset, caps, fixed_capacity=fixed
                ),
            )


@pytest.mark.parametrize("backend_name", available_backends())
def test_batch_solve_matches_sequential_on_corpus(backend_name):
    problems = []
    for seed in SEEDS:
        case = _corpus_subsets(seed)
        if case is None:
            continue
        bounds, assignment, subsets = case
        problems.extend(
            build_allocation_problem(bounds, assignment, tuple(s)).problem
            for s in subsets
        )
    assert len(problems) >= 8
    sequential = [
        get_backend(backend_name).solve(problem) for problem in problems
    ]
    backend = get_backend(backend_name)
    batched = backend.solve_batch(problems)
    assert backend.tally.solves == len(problems)
    for one, many in zip(sequential, batched):
        assert one.success == many.success
        if one.success:
            assert many.objective == pytest.approx(
                one.objective, abs=1e-9, rel=1e-9
            )


@pytest.mark.parametrize("backend_name", available_backends())
def test_batched_interval_scheduling_matches_sequential(backend_name):
    checked = 0
    for seed in SEEDS:
        case = _corpus_subsets(seed)
        if case is None:
            continue
        bounds, assignment, subsets = case
        lengths = list(bounds.intervals.lengths)
        for index, subset in enumerate(subsets):
            try:
                allocation = allocate_intervals(
                    bounds, assignment, tuple(subset), index,
                    backend=get_backend(backend_name),
                )
            except Exception:
                continue
            kwargs = dict(
                assignment=assignment,
                allocation=allocation,
                interval_lengths=lengths,
            )
            plain = schedule_intervals(
                backend=get_backend(backend_name), batch=False, **kwargs
            )
            batched = schedule_intervals(
                backend=get_backend(backend_name), batch=True, **kwargs
            )
            assert set(plain) == set(batched)
            for k in plain:
                lhs, rhs = plain[k], batched[k]
                assert [s.messages for s in lhs.slots] == [
                    s.messages for s in rhs.slots
                ]
                assert [s.duration for s in lhs.slots] == pytest.approx(
                    [s.duration for s in rhs.slots], abs=1e-9
                )
            checked += 1
    assert checked >= 8
