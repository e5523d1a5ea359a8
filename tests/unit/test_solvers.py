"""Unit tests for the pluggable LP solver layer (`repro.solvers`).

Backend equivalence is asserted on *objectives* and feasibility verdicts,
never on dual vectors: primal-degenerate LPs have non-unique optimal
duals, and any optimal dual is a valid column-generation pricer.
"""

from __future__ import annotations

import dataclasses
import importlib.util

import numpy as np
import pytest

from repro.solvers import (
    BACKEND_NAMES,
    LP_TOL,
    LPProblem,
    LPProblemBuilder,
    ReferenceSimplexBackend,
    ScipyLinprogBackend,
    SolverTally,
    available_backends,
    default_backend_name,
    exceeds_tolerance,
    get_backend,
    have_scipy,
)

scipy_required = pytest.mark.skipif(
    not have_scipy(), reason="scipy not installed"
)


# -- a small LP zoo ------------------------------------------------------------

def lp_transport():
    """min 2x + 3y  s.t.  x + y = 1, x,y >= 0  ->  x=1, obj=2, dual=2."""
    return LPProblem.from_dense(
        c=np.array([2.0, 3.0]),
        a_eq=np.array([[1.0, 1.0]]),
        b_eq=np.array([1.0]),
        bounds=[(0.0, None), (0.0, None)],
    )


def lp_mixed():
    """Equalities, inequalities and finite upper bounds together."""
    return LPProblem.from_dense(
        c=np.array([1.0, 2.0, 0.5]),
        a_ub=np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]),
        b_ub=np.array([4.0, 5.0]),
        a_eq=np.array([[1.0, 1.0, 1.0]]),
        b_eq=np.array([3.0]),
        bounds=[(0.0, 2.5), (0.0, None), (0.0, 2.0)],
    )


def lp_shifted_bounds():
    """Non-zero lower bounds exercise the bound-shifting path."""
    return LPProblem.from_dense(
        c=np.array([1.0, 1.0]),
        a_eq=np.array([[1.0, 2.0]]),
        b_eq=np.array([7.0]),
        bounds=[(1.0, None), (2.0, 10.0)],
    )


def lp_infeasible():
    """x >= 0 with x <= -1 cannot be satisfied."""
    return LPProblem.from_dense(
        c=np.array([1.0]),
        a_ub=np.array([[1.0]]),
        b_ub=np.array([-1.0]),
        bounds=[(0.0, None)],
    )


def lp_unbounded():
    """min -x  s.t.  x <= y, x,y >= 0 — the pair grows without bound."""
    return LPProblem.from_dense(
        c=np.array([-1.0, 0.0]),
        a_ub=np.array([[1.0, -1.0]]),
        b_ub=np.array([0.0]),
        bounds=[(0.0, None), (0.0, None)],
    )


def lp_rowless():
    """min x + y over x, y >= 0 and no rows: both sit at 0."""
    return LPProblem.from_dense(c=np.array([1.0, 1.0]))


def lp_rowless_unbounded():
    """min -x over x >= 0 and no rows: x grows without bound."""
    return LPProblem.from_dense(c=np.array([-1.0, 1.0]))


ZOO = {
    "transport": (lp_transport, 2.0),
    "mixed": (lp_mixed, 2.0),
    "shifted": (lp_shifted_bounds, 4.0),
    "rowless": (lp_rowless, 0.0),
}


# -- registry ------------------------------------------------------------------

class TestRegistry:
    def test_backend_names_cover_registry(self):
        assert BACKEND_NAMES == ("auto", "highs", "reference")

    def test_reference_always_available(self):
        assert "reference" in available_backends()

    def test_auto_resolves_to_default(self):
        assert get_backend("auto").name == default_backend_name()
        assert get_backend().name == default_backend_name()

    def test_unknown_name_rejected(self):
        # ``ilp`` was a backend name once; the integer reference is a
        # function now, so the name is as unknown as any other.
        for name in ("cplex", "ilp"):
            with pytest.raises(ValueError, match="unknown LP backend"):
                get_backend(name)
        assert "ilp" not in available_backends()

    def test_fresh_instance_per_call(self):
        assert get_backend("reference") is not get_backend("reference")

    def test_scipy_looked_up_once_per_process(self, monkeypatch, cube6, dvb5):
        """``find_spec`` walks ``sys.path``; every ``auto`` compile and
        every cache key asks whether scipy exists, one lookup answers."""
        from repro.cache.keys import schedule_cache_key
        from repro.core.compiler import CompilerConfig
        from repro.experiments import standard_setup

        setup = standard_setup(dvb5, cube6, 128.0)
        lookups = []
        find_spec = importlib.util.find_spec

        def counting(name, *args, **kwargs):
            if name == "scipy":
                lookups.append(name)
            return find_spec(name, *args, **kwargs)

        monkeypatch.setattr(importlib.util, "find_spec", counting)
        have_scipy.cache_clear()
        keys = set()
        for load in (0.3, 0.5, 0.7):
            assert get_backend().name == default_backend_name()
            keys.add(schedule_cache_key(
                setup.timing, setup.topology, setup.allocation,
                setup.tau_in_for_load(load), CompilerConfig(),
            ))
        assert len(keys) == 3
        assert lookups == ["scipy"]

    @scipy_required
    def test_scipy_methods_resolve(self):
        assert get_backend("highs").name == "highs"
        with pytest.raises(ValueError, match="unknown LP backend"):
            get_backend("highs-ds")
        assert default_backend_name() == "highs"


# -- the reference simplex -----------------------------------------------------

class TestReferenceBackend:
    @pytest.mark.parametrize("case", sorted(ZOO))
    def test_known_optima(self, case):
        build, expected = ZOO[case]
        solution = ReferenceSimplexBackend().solve(build())
        assert solution.success
        assert solution.objective == pytest.approx(expected, abs=1e-8)

    def test_primal_satisfies_constraints(self):
        problem = lp_mixed()
        solution = ReferenceSimplexBackend().solve(problem)
        x = np.array(solution.x)
        assert np.all(problem.a_ub @ x <= problem.b_ub + 1e-8)
        assert problem.a_eq @ x == pytest.approx(
            np.asarray(problem.b_eq), abs=1e-8
        )
        for value, (low, high) in zip(x, problem.bounds):
            assert value >= low - 1e-8
            assert value <= high + 1e-8  # high is +inf when unbounded

    def test_infeasible_detected(self):
        solution = ReferenceSimplexBackend().solve(lp_infeasible())
        assert not solution.success
        assert "infeasible" in solution.message

    def test_unbounded_detected(self):
        solution = ReferenceSimplexBackend().solve(lp_unbounded())
        assert not solution.success
        assert "unbounded" in solution.message

    def test_duals_on_nondegenerate_lp(self):
        # transport: tightening x + y = 1 by db raises the optimum by
        # 2 db, so the (unique) equality dual is exactly 2.
        solution = ReferenceSimplexBackend().solve(lp_transport())
        assert solution.dual_eq == pytest.approx([2.0], abs=1e-8)

    @scipy_required
    @pytest.mark.parametrize("case", sorted(ZOO))
    def test_objectives_match_scipy(self, case):
        build, _ = ZOO[case]
        ours = ReferenceSimplexBackend().solve(build())
        scipys = ScipyLinprogBackend().solve(build())
        assert ours.success and scipys.success
        assert ours.objective == pytest.approx(scipys.objective, abs=1e-7)

    @scipy_required
    def test_verdicts_match_scipy_on_pathologies(self):
        for build in (lp_infeasible, lp_unbounded, lp_rowless_unbounded):
            ours = ReferenceSimplexBackend().solve(build())
            scipys = ScipyLinprogBackend().solve(build())
            assert ours.success == scipys.success is False
        assert "unbounded" in ours.message
        assert "unbounded" in scipys.message

    @scipy_required
    def test_rowless_columns_sit_where_scipy_puts_them(self):
        # Each column at its cost-minimising bound; a zero-cost column
        # at its lower bound if finite, else its upper, else 0.
        problems = [
            lp_rowless(),
            LPProblem.from_dense(
                c=[0.0, 0.0, 0.0, -1.0, 0.0],
                bounds=[(None, 5.0), (None, None), (2.0, 5.0), (2.0, 5.0),
                        (-3.0, None)],
            ),
        ]
        for problem in problems:
            ours = ReferenceSimplexBackend().solve(problem)
            scipys = ScipyLinprogBackend().solve(problem)
            assert ours.success and scipys.success
            assert np.array_equal(ours.x, scipys.x)
            assert ours.objective == scipys.objective
            assert np.array_equal(ours.dual_eq, scipys.dual_eq)
        # Inside a batch too: HiGHS stitches the block, reference
        # solves it alone.
        batch = [lp_transport(), LPProblem.from_dense(c=[1.0])]
        ours = ReferenceSimplexBackend().solve_batch(batch)
        scipys = ScipyLinprogBackend().solve_batch(batch)
        assert [list(s.x) for s in ours] == [list(s.x) for s in scipys]
        assert list(ours[1].x) == [0.0]


# -- non-finite data is refused where the layout is built -------------------

def _nan_rhs():
    builder = LPProblemBuilder(1)
    builder.add_eq_rows([np.nan], rows=[0], cols=[0], values=[1.0])
    return builder.build()


NON_FINITE = {
    "nan b_eq": (_nan_rhs, "b_eq"),
    "inf coefficient": (lambda: LPProblem.from_dense(
        c=[1.0], a_eq=[[np.inf]], b_eq=[1.0]), "the matrix"),
    "inf b_eq": (lambda: LPProblem.from_dense(
        c=[1.0], a_eq=[[1.0]], b_eq=[-np.inf]), "b_eq"),
    "nan coefficient": (lambda: LPProblem.from_dense(
        c=[1.0], a_ub=[[np.nan]], b_ub=[1.0]), "the matrix"),
    "inf cost": (lambda: LPProblem.from_dense(c=[np.inf]), "c"),
    "nan cost": (lambda: LPProblem.from_dense(c=[np.nan]), "c"),
    "nan b_ub": (lambda: LPProblem.from_dense(
        c=[1.0], a_ub=[[1.0]], b_ub=[np.nan]), "b_ub"),
    "nan bound": (lambda: LPProblem.from_dense(
        c=[1.0], bounds=[(0.0, np.nan)]), "bounds"),
    "lower +inf": (lambda: LPProblem.from_dense(
        c=[1.0], bounds=[(np.inf, None)]), "lower bound of \\+inf"),
    "upper -inf": (lambda: LPProblem.from_dense(
        c=[1.0], bounds=[(0.0, -np.inf)]), "upper bound of -inf"),
}


@pytest.mark.parametrize("backend_name", available_backends())
class TestNonFiniteData:
    @pytest.mark.parametrize("case", sorted(NON_FINITE))
    def test_refused_naming_the_field(self, backend_name, case):
        build, field = NON_FINITE[case]
        with pytest.raises(ValueError, match=field):
            get_backend(backend_name).solve(build())

    def test_open_sides_stay_legal(self, backend_name):
        problem = LPProblem.from_dense(
            c=[1.0, -1.0],
            a_ub=[[1.0, 1.0], [1.0, -1.0]],
            b_ub=[np.inf, 2.0],
            bounds=[(-1.0, None), (0.0, 4.0)],
        )
        solution = get_backend(backend_name).solve(problem)
        assert solution.success
        assert solution.objective == pytest.approx(-5.0)


# -- the engine's own status text ---------------------------------------------

@scipy_required
class TestHighsStatusMessages:
    """The engine composes linprog's message from its own table (so a
    solve need not import ``scipy.optimize``); scipy's is the oracle."""

    def test_table_equals_scipys_for_every_status(self):
        from scipy.optimize._linprog_highs import (
            _highs_to_scipy_status_message,
        )

        from repro.solvers import highs_engine

        hc = highs_engine._api()["hc"]
        highs = hc._Highs()
        members = hc.HighsModelStatus.__members__
        assert len(members) >= 16
        for status in members.values():
            text = highs.modelStatusToString(status)
            # The two raw strings HighsEngine._run composes.
            for raw in (text, f"model_status is {text}; primal_status is None"):
                assert highs_engine.status_message(status, raw) == (
                    _highs_to_scipy_status_message(status, raw)[1]
                ), status

    @pytest.mark.parametrize("build", (lp_infeasible, lp_unbounded))
    def test_failure_message_equals_linprogs(self, build):
        backend = ScipyLinprogBackend()
        assert backend._get_engine() is not None
        ours = backend.solve(build())
        theirs = backend._solve_linprog(build())
        assert ours.success is theirs.success is False
        assert ours.message == theirs.message


# -- tally bookkeeping ---------------------------------------------------------

class TestTally:
    def test_solves_recorded_with_sizes(self):
        backend = ReferenceSimplexBackend()
        backend.solve(lp_transport())
        backend.solve(lp_mixed())
        assert backend.tally.solves == 2
        assert backend.tally.failures == 0
        assert backend.tally.max_variables == 3
        assert backend.tally.max_constraints == 3
        assert backend.tally.wall_ms >= 0.0

    def test_failures_counted(self):
        backend = ReferenceSimplexBackend()
        backend.solve(lp_infeasible())
        assert backend.tally.failures == 1

    def test_since_reports_deltas(self):
        backend = ReferenceSimplexBackend()
        backend.solve(lp_transport())
        before = dataclasses.replace(backend.tally)
        backend.solve(lp_mixed())
        delta = backend.tally.since(before)
        assert delta["lp_solves"] == 1
        assert delta["lp_iterations"] >= 1
        # The stage detail spells its keys as ``solver_stats`` does.
        assert list(delta) == [
            key for key in backend.tally.as_dict()
            if key not in ("lp_failures", "max_variables", "max_constraints")
        ]

    def test_snapshot_is_a_value_copy(self):
        """The pipeline's per-stage snapshot is ``dataclasses.replace``:
        a value copy while every member is a scalar."""
        tally = SolverTally(solves=3)
        snap = dataclasses.replace(tally)
        tally.solves = 5
        assert snap.solves == 3


# -- the sparse builder / batch API --------------------------------------------

def _builder_mixed():
    """lp_mixed() assembled through the sparse builder."""
    builder = LPProblemBuilder(3)
    builder.set_objective_vector([1.0, 2.0, 0.5])
    builder.add_ub_rows([4.0, 5.0])
    builder.add_ub_entries([0, 0, 1, 1], [0, 2, 1, 2], [1.0, 1.0, 1.0, 1.0])
    builder.add_eq_rows([3.0], rows=[0, 0, 0], cols=[0, 1, 2],
                        values=[1.0, 1.0, 1.0])
    builder.set_upper([0, 2], [2.5, 2.0])
    return builder.build()


class TestSparseAPI:
    def test_builder_matches_dense_assembly(self):
        built = _builder_mixed()
        dense = lp_mixed()
        for field in LPProblem.__slots__:
            assert np.array_equal(
                getattr(built, field), getattr(dense, field)
            ), field
        assert np.array_equal(built.a_ub, dense.a_ub)
        assert np.array_equal(built.a_eq, dense.a_eq)

    def test_layout_is_column_wise_over_ub_then_eq_rows(self):
        problem = _builder_mixed()
        assert problem.start.dtype == problem.index.dtype == np.int32
        assert problem.start.tolist() == [0, 2, 4, 7]
        assert problem.index.tolist() == [0, 2, 1, 2, 0, 1, 2]
        assert problem.row_lower.tolist() == [-np.inf, -np.inf, 3.0]
        assert problem.row_upper.tolist() == [4.0, 5.0, 3.0]
        assert problem.num_ub == 2

    def test_dense_round_trips(self):
        dense = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
        problem = LPProblem.from_dense(
            c=np.zeros(3), a_ub=dense[:1], b_ub=[1.0], a_eq=dense[1:],
            b_eq=[2.0],
        )
        assert np.array_equal(problem.a_ub, dense[:1])
        assert np.array_equal(problem.a_eq, dense[1:])
        assert problem.value.size == 3  # zeros dropped

    def test_coo_duplicates_sum(self):
        builder = LPProblemBuilder(2)
        builder.add_ub_rows([1.0, 1.0])
        builder.add_ub_entries([0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
        assert np.array_equal(
            builder.build().a_ub, np.array([[0.0, 5.0], [1.0, 0.0]])
        )

    def test_coo_rows_stay_in_their_system(self):
        builder = LPProblemBuilder(1)
        builder.add_ub_rows([1.0])
        builder.add_ub_entries([1], [0], [1.0])
        builder.add_eq_rows([1.0])
        with pytest.raises(ValueError, match="row index out of range"):
            builder.build()

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_builder_problem_solves(self, backend_name):
        solution = get_backend(backend_name).solve(_builder_mixed())
        assert solution.success
        assert solution.objective == pytest.approx(2.0, abs=1e-7)

    def test_dense_fields_are_rejected(self):
        # The layout is the only constructor; dense data goes through
        # ``from_dense``.
        with pytest.raises(TypeError):
            LPProblem(
                c=np.array([2.0, 3.0]),
                a_eq=np.array([[1.0, 1.0]]),
                b_eq=np.array([1.0]),
                bounds=[(0.0, None), (0.0, None)],
            )
        solution = ReferenceSimplexBackend().solve(
            LPProblem.from_dense(
                c=[2.0, 3.0],
                a_eq=[[1.0, 1.0]],
                b_eq=[1.0],
                bounds=[(0.0, None), (0.0, None)],
            )
        )
        assert solution.success
        assert solution.objective == pytest.approx(2.0, abs=1e-8)

    def test_canonical_problems_do_not_warn(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            ReferenceSimplexBackend().solve(lp_transport())

    def test_solution_arrays_read_only(self):
        # Every backend, single and batched solves: a consumer that
        # writes into a solution fails at the write.
        problems = [lp_transport(), lp_shifted_bounds()]
        for backend_name in available_backends():
            backend = get_backend(backend_name)
            solutions = [
                backend.solve(problems[0]),
                *backend.solve_batch(problems),
            ]
            for solution in solutions:
                assert solution.success, backend_name
                for array in (solution.x, solution.dual_eq):
                    with pytest.raises(ValueError):
                        array[0] = 99.0
                    with pytest.raises(ValueError):
                        array.fill(0.0)
                    with pytest.raises(ValueError):
                        np.copyto(array, 0.0)
                with pytest.raises(AttributeError):
                    solution.x = np.zeros(2)

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_solve_batch_matches_sequential(self, backend_name):
        problems = [lp_transport(), _builder_mixed(), lp_shifted_bounds()]
        sequential = [
            get_backend(backend_name).solve(problem) for problem in problems
        ]
        backend = get_backend(backend_name)
        batched = backend.solve_batch(problems)
        assert backend.tally.solves == len(problems)
        for one, many in zip(sequential, batched):
            assert one.success == many.success
            assert one.objective == pytest.approx(many.objective, abs=1e-9)
            assert np.asarray(one.x) == pytest.approx(
                np.asarray(many.x), abs=1e-9
            )

    @pytest.mark.parametrize("backend_name", available_backends())
    def test_solve_batch_with_an_infeasible_block(self, backend_name):
        backend = get_backend(backend_name)
        solutions = backend.solve_batch([lp_transport(), lp_infeasible()])
        assert solutions[0].success
        assert not solutions[1].success
        assert backend.tally.failures == 1

    @scipy_required
    def test_batch_tally_counts_stitched_solves(self):
        backend = get_backend("highs")
        backend.solve_batch([lp_transport(), _builder_mixed()])
        assert backend.tally.batches == 1
        assert backend.tally.batched_solves == 2


# -- the compile path stays sparse on HiGHS ------------------------------------

@scipy_required
class TestCompilePathStaysSparse:
    """No dense matrix is materialised between the LP builders and
    HiGHS: the conversions raise for the length of a compile."""

    POINTS = (("hypercube6", 0.4), ("ghc444", 0.9))

    @pytest.fixture()
    def dense_conversions_raise(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense conversion on the compile path")

        monkeypatch.setattr(LPProblem, "_dense_rows", refuse)
        monkeypatch.setattr(LPProblem, "from_dense", refuse)

    @staticmethod
    def compile_point(topology, load, backend):
        from repro.core.compiler import CompilerConfig, compile_schedule
        from repro.experiments.setup import standard_setup
        from repro.tfg import dvb_tfg
        from repro.topology import make_topology

        setup = standard_setup(dvb_tfg(5), make_topology(topology), 128)
        return compile_schedule(
            setup.timing, setup.topology, setup.allocation,
            setup.tau_in_for_load(load), CompilerConfig(lp_backend=backend),
        )

    @pytest.mark.parametrize("topology, load", POINTS)
    def test_highs_never_densifies(self, topology, load, dense_conversions_raise):
        routing = self.compile_point(topology, load, "highs")
        assert routing.extra["solver_stats"]["lp_solves"] > 0

    def test_probe_is_live(self, dense_conversions_raise):
        # The reference simplex is dense by design, so the same patch
        # must stop it — otherwise the test above proves nothing.
        with pytest.raises(AssertionError, match="dense conversion"):
            self.compile_point("hypercube6", 0.4, "reference")


# -- the shared tolerance band (satellite: magic 1.0000001 removal) ------------

class TestExceedsTolerance:
    def test_inside_band_is_not_exceeding(self):
        assert not exceeds_tolerance(1.0 + 0.5 * LP_TOL, 1.0)

    def test_exact_limit_is_not_exceeding(self):
        assert not exceeds_tolerance(1.0, 1.0)

    def test_beyond_band_is_exceeding(self):
        assert exceeds_tolerance(1.0 + 2.0 * LP_TOL, 1.0)

    def test_band_is_relative_above_one(self):
        # At limit 100 the band is 100 * LP_TOL wide, not LP_TOL.
        assert not exceeds_tolerance(100.0 + 50.0 * LP_TOL, 100.0)
        assert exceeds_tolerance(100.0 + 200.0 * LP_TOL, 100.0)

    def test_band_is_absolute_below_one(self):
        # Small limits keep the absolute LP_TOL band (max(1, |limit|)).
        assert not exceeds_tolerance(0.01 + 0.5 * LP_TOL, 0.01)
        assert exceeds_tolerance(0.01 + 2.0 * LP_TOL, 0.01)
