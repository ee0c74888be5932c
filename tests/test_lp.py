"""Exact simplex: known optima, duals, degeneracy, and vertex cross-checks.

The kernel tests at the end run every pivot of the integer tableau under a
check of its invariants: adj . B == det . I and adj . b == x_num, det > 0,
also across rows appended to a solved program.  The integer audit is held
to the Fraction one in oracles.py.
"""

from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from querylab import AuditError, LinearProgram, check_feasible, solve_lp
from querylab.lp import _Tableau

from oracles import oracle_lp_vertices, oracle_verify


def test_classic_max_with_known_duals():
    lp = LinearProgram(
        sense="max",
        objective=[3, 5],
        rows=[
            ([1, 0], "<=", 4),
            ([0, 2], "<=", 12),
            ([3, 2], "<=", 18),
        ],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == 36
    assert sol.x == [2, 6]
    assert sol.duals == [0, Fraction(3, 2), 1]


def test_min_with_ge_rows():
    lp = LinearProgram(
        sense="min",
        objective=[2, 3],
        rows=[([1, 1], ">=", 4)],
    )
    sol = solve_lp(lp)
    assert sol.objective == 8
    assert sol.x == [4, 0]
    assert sol.duals == [2]


def test_equality_and_free_variable():
    lp = LinearProgram(
        sense="min",
        objective=[1, 0],
        rows=[([1, 1], "=", 3), ([0, 1], "<=", 5)],
        free_vars=frozenset({0}),
    )
    sol = solve_lp(lp)
    # x0 is free, so push x1 to its cap
    assert sol.objective == -2
    assert sol.x == [-2, 5]


def test_infeasible():
    lp = LinearProgram(
        sense="max",
        objective=[1],
        rows=[([1], "<=", -1)],
    )
    assert solve_lp(lp).status == "infeasible"
    ok, _ = check_feasible(lp)
    assert not ok


def test_feasible_witness():
    lp = LinearProgram(
        sense="max",
        objective=[1, 1],
        rows=[([1, 1], "<=", 3), ([1, 0], ">=", 1)],
    )
    ok, witness = check_feasible(lp)
    assert ok
    x, y = witness
    assert x >= 1 and x + y <= 3 and x >= 0 and y >= 0


def test_unbounded():
    lp = LinearProgram(sense="max", objective=[1], rows=[([1], ">=", 0)])
    assert solve_lp(lp).status == "unbounded"


def test_redundant_row_gets_zero_dual():
    lp = LinearProgram(
        sense="max",
        objective=[1, 1],
        rows=[
            ([1, 1], "<=", 4),
            ([2, 2], "<=", 8),  # same constraint scaled
            ([1, 0], "<=", 3),
        ],
    )
    sol = solve_lp(lp)
    assert sol.objective == 4
    # complementary slackness leaves the scaled copy with a consistent dual
    assert sol.duals[0] + 2 * sol.duals[1] == 1


def test_equality_redundancy():
    # second row is the first row doubled; the solver must drop it cleanly
    lp = LinearProgram(
        sense="min",
        objective=[1, 1],
        rows=[([1, 1], "=", 2), ([2, 2], "=", 4)],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == 2


def test_beale_degenerate_cycle_terminates():
    lp = LinearProgram(
        sense="min",
        objective=[Fraction(-3, 4), 150, Fraction(-1, 50), 6],
        rows=[
            ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
            ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
            ([0, 0, 1, 0], "<=", 1),
        ],
    )
    sol = solve_lp(lp)
    assert sol.status == "optimal"
    assert sol.objective == Fraction(-1, 20)


def test_rational_coefficients_exact():
    lp = LinearProgram(
        sense="max",
        objective=[Fraction(1, 3), Fraction(1, 7)],
        rows=[([Fraction(1, 2), 1], "<=", Fraction(5, 2))],
    )
    sol = solve_lp(lp)
    assert sol.objective == Fraction(5, 3)
    assert sol.x == [5, 0]


_CROSS_CHECK_LPS = [
    ("max", [1, 2], [([1, 1], "<=", 5), ([2, 1], "<=", 8)]),
    ("min", [3, 1], [([1, 2], ">=", 6), ([1, 0], "<=", 10)]),
    ("max", [2, 3, 1], [([1, 1, 1], "<=", 10), ([1, 0, 2], "<=", 8), ([0, 1, 0], "<=", 4)]),
    ("min", [1, 1, 1], [([1, 1, 0], ">=", 3), ([0, 1, 1], ">=", 4)]),
    ("max", [5, 4], [([6, 4], "<=", 24), ([1, 2], "<=", 6)]),
    ("min", [2, 5, 3], [([1, 2, 1], "=", 7), ([3, 1, 0], ">=", 4)]),
    ("max", [Fraction(1, 2), Fraction(2, 3)], [([1, 1], "<=", 4), ([1, 3], "<=", 9)]),
    ("min", [4, 7, 2, 1], [([1, 1, 1, 1], "=", 6), ([2, 0, 1, 0], ">=", 3), ([0, 1, 0, 2], ">=", 2)]),
]


@pytest.mark.parametrize("sense,obj,rows", _CROSS_CHECK_LPS)
def test_against_vertex_enumeration(sense, obj, rows):
    sol = solve_lp(LinearProgram(sense=sense, objective=obj, rows=rows))
    assert sol.status == "optimal"
    assert sol.objective == oracle_lp_vertices(sense, obj, rows)


def test_duals_price_the_rhs():
    # nudging a binding rhs by t changes the optimum by dual * t
    base_rows = [([1, 1], "<=", 5), ([2, 1], "<=", 8)]
    sol = solve_lp(LinearProgram(sense="max", objective=[1, 2], rows=base_rows))
    bumped = solve_lp(
        LinearProgram(
            sense="max",
            objective=[1, 2],
            rows=[([1, 1], "<=", Fraction(51, 10)), ([2, 1], "<=", 8)],
        )
    )
    assert bumped.objective - sol.objective == sol.duals[0] * Fraction(1, 10)


# -- the integer kernel --------------------------------------------------------


def _check_invariants(tab):
    m, det = tab.m, tab.det
    assert isinstance(det, int) and det > 0
    for r in range(m):
        assert all(isinstance(v, int) for v in tab.adj[r])
        for c in range(m):
            column = tab.columns[tab.basis[c]]
            entry = sum(tab.adj[r][i] * column[i] for i in range(m))
            assert entry == (det if r == c else 0)
        assert sum(tab.adj[r][i] * tab.rhs[i] for i in range(m)) == tab.x_num[r]


@contextmanager
def audited_pivots():
    """Check the kernel invariants after every pivot; yields the tableaux and pivot elements."""
    init, pivot, add_row = _Tableau.__init__, _Tableau._pivot, _Tableau.add_row
    seen = {"tableaux": [], "elements": []}

    def checked_init(tab, lp, dropped):
        init(tab, lp, dropped)
        tab.rhs = list(tab.x_num)
        seen["tableaux"].append(tab)
        _check_invariants(tab)

    def checked_pivot(tab, entering, leaving, d):
        seen["elements"].append(d[leaving])
        pivot(tab, entering, leaving, d)
        _check_invariants(tab)

    def checked_add_row(tab, i, row):
        add_row(tab, i, row)
        tab.rhs.append(row[2] * tab.row_scales[-1])
        _check_invariants(tab)

    _Tableau.__init__, _Tableau._pivot = checked_init, checked_pivot
    _Tableau.add_row = checked_add_row
    try:
        yield seen
    finally:
        _Tableau.__init__, _Tableau._pivot, _Tableau.add_row = init, pivot, add_row


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def small_lps(draw):
    n = draw(st.integers(2, 4))
    rows = [
        (
            [draw(coefficients) for _ in range(n)],
            draw(st.sampled_from(("<=", "=", ">="))),
            draw(coefficients),
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    # the bounding row keeps every feasible program without free vars bounded
    rows.append(([1] * n, "<=", draw(st.fractions(0, 5, max_denominator=3))))
    free = draw(st.sets(st.integers(0, n - 1), max_size=1))
    return draw(st.sampled_from(("min", "max"))), [draw(coefficients) for _ in range(n)], rows, free


@settings(derandomize=True, deadline=None, max_examples=200)
@given(small_lps())
def test_kernel_invariants_and_vertex_oracle(lp_data):
    sense, objective, rows, free = lp_data
    with audited_pivots():
        sol = solve_lp(LinearProgram(sense, objective, rows, free_vars=free))
    if free:
        return  # the invariants held; the oracle knows nonnegative variables only
    # the oracle needs full row rank, which only dependent '=' rows break
    equalities = [coeffs for coeffs, rel, _ in rows if rel == "="]
    assume(_rank(equalities) == len(equalities))
    expected = oracle_lp_vertices(sense, objective, rows)
    if expected is None:
        assert sol.status == "infeasible"
    else:
        assert sol.status == "optimal"
        assert sol.objective == expected


def test_fractional_rhs_scales_rows():
    rows = [([1, 2], "<=", Fraction(7, 2)), ([3, 1], "<=", Fraction(10, 3))]
    with audited_pivots() as seen:
        sol = solve_lp(LinearProgram("max", [1, 1], rows))
    assert seen["tableaux"][0].row_scales == [2, 3]
    assert len(seen["elements"]) == 2
    assert sol.objective == oracle_lp_vertices("max", [1, 1], rows) == Fraction(31, 15)
    assert sol.x == [Fraction(19, 30), Fraction(43, 30)]
    assert sol.duals == [Fraction(2, 5), Fraction(1, 5)]


def test_fractional_objective_scales_costs():
    objective = [Fraction(-1, 4), 1, Fraction(2, 3)]
    rows = [([1, 1, 1], ">=", 2), ([1, 0, 2], "<=", 3)]
    with audited_pivots() as seen:
        sol = solve_lp(LinearProgram("min", objective, rows))
    assert seen["tableaux"][0].cost_scale == 12
    assert sol.objective == oracle_lp_vertices("min", objective, rows) == Fraction(-3, 4)
    assert sol.x == [3, 0, 0]
    assert sol.duals == [0, Fraction(-1, 4)]


def test_drive_out_on_negative_pivot_keeps_det_positive():
    # -x0 = 0 leaves its artificial basic at zero after phase 1; driving it
    # out pivots on the element -1, so the kernel renormalizes the sign.
    rows = [([-1, 0], "=", 0), ([1, 1], "<=", 3)]
    with audited_pivots() as seen:
        sol = solve_lp(LinearProgram("max", [0, 1], rows))
    assert seen["elements"][0] < 0
    assert sol.x == [0, 3]
    assert sol.duals == [1, 1]  # the equality row's dual is free; this is the basis's


def test_redundant_row_resolves_without_it():
    rows = [([1, 1], "=", 2), ([2, 2], "=", 4), ([1, 0], "<=", Fraction(3, 2))]
    with audited_pivots() as seen:
        sol = solve_lp(LinearProgram("max", [2, 1], rows))
    assert [tab.live_rows for tab in seen["tableaux"]] == [[0, 1, 2], [0, 2]]
    assert sol.objective == Fraction(7, 2)
    assert sol.duals == [1, 0, 1]


def test_added_row_resumes_by_dual_simplex():
    # max x + y, x + 2y <= 4, 3x + y <= 6 has its optimum at (8/5, 6/5);
    # the row x + y <= 2 cuts it off, so the kept basis turns primal
    # infeasible and the dual simplex pivots on a negative element.
    program = LinearProgram("max", [1, 1], [([1, 2], "<=", 4), ([3, 1], "<=", 6)])
    with audited_pivots() as seen:
        first = solve_lp(program)
        program.add_row([1, 1], "<=", 2)
        second = solve_lp(program)
    assert first.objective == Fraction(14, 5)
    assert len(seen["tableaux"]) == 1  # the second solve built no tableau
    assert seen["elements"][-1] < 0
    assert second.verified and second.objective == 2
    assert second.objective == oracle_lp_vertices("max", [1, 1], program.rows)


def test_added_equality_row_starts_cold():
    program = LinearProgram("min", [1, 2], [([1, 1], ">=", 1)])
    with audited_pivots() as seen:
        solve_lp(program)
        program.add_row([1, -1], "=", 0)
        sol = solve_lp(program)
    assert len(seen["tableaux"]) == 2
    assert sol.x == [Fraction(1, 2), Fraction(1, 2)]


inequalities = st.tuples(
    st.lists(coefficients, min_size=4, max_size=4),
    st.sampled_from(("<=", ">=")),
    coefficients,
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(small_lps(), st.lists(inequalities, min_size=1, max_size=3))
def test_added_rows_match_a_cold_solve(lp_data, extra):
    sense, objective, rows, free = lp_data
    n = len(objective)
    program = LinearProgram(sense, objective, rows, free_vars=free)
    with audited_pivots():
        sol = solve_lp(program)
        for coeffs, rel, rhs in extra:
            program.add_row(coeffs[:n], rel, rhs)
            warm = solve_lp(program)
            cold = solve_lp(LinearProgram(sense, objective, program.rows, free_vars=free))
            assert warm.status == cold.status
            assert warm.objective == cold.objective
            if sol.status == "optimal" and warm.status == "optimal":
                assert warm.verified
            sol = warm


def _verdict(solution, lp):
    try:
        solution.verify(lp)
    except AuditError as exc:
        return str(exc)
    return None


@settings(derandomize=True, deadline=None, max_examples=120)
@given(
    small_lps(),
    st.sampled_from(("none", "x", "duals")),
    st.integers(0, 8),
    st.fractions(min_value=-2, max_value=2, max_denominator=6),
)
def test_integer_verify_matches_oracle(lp_data, target, index, delta):
    sense, objective, rows, free = lp_data
    program = LinearProgram(sense, objective, rows, free_vars=free)
    sol = solve_lp(program)
    assume(sol.status == "optimal")
    if target != "none":
        values = list(getattr(sol, target))
        values[index % len(values)] += delta
        setattr(sol, target, values)
    assert _verdict(sol, program) == oracle_verify(sol, program)
