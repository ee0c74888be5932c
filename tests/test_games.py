"""Randomized game engine: frozen values, oracle agreement, and invariants.

Every frozen rational here was confirmed by the exhaustive-tree oracle in
oracles.py before being asserted against the column-generation engine.
"""

import os
import subprocess
import sys
from fractions import Fraction
from math import inf
from pathlib import Path

import pytest

import querylab
from querylab import (
    MeasureContext,
    QueryFunction,
    best_response,
    det_complexity,
    enumerate_functions,
    parse_function,
    sabotage,
    solve_expected_game,
    solve_worstcase_depth,
    tree_depth,
    tree_to_obj,
    unique_sabotage,
    walk,
)

from oracles import oracle_game_value, oracle_worstcase_depth

OR2 = parse_function("tt:2:0111")
AND2 = parse_function("tt:2:0001")
XOR2 = parse_function("tt:2:0110")
ID1 = parse_function("tt:1:01")
TOL = 1e-9


# -- best response -----------------------------------------------------------


def test_best_response_uniform_or2():
    w = {x: Fraction(1, 4) for x in OR2.domain}
    tree, value = best_response(OR2, w)
    assert value == Fraction(3, 2)
    for x in OR2.domain:
        out, _ = walk(tree, x)
        assert out == OR2(x)


def test_best_response_point_mass():
    # all weight on 11: query either position once, see a 1, answer
    tree, value = best_response(OR2, {"11": 1})
    assert value == 1
    out, cost = walk(tree, "11")
    assert out == "1" and cost == 1


def test_best_response_stopping_with_error():
    w = {x: Fraction(1, 4) for x in OR2.domain}
    tree, value = best_response(
        OR2, {x: 0 for x in OR2.domain}, error_weights=w, depth_budget=0
    )
    # must stop immediately; answering 1 errs only on 00
    assert value == Fraction(1, 4)
    assert tree_depth(tree) == 0


def test_best_response_infinite_error_weight():
    weights = {x: inf for x in OR2.domain}
    with pytest.raises(RuntimeError):
        best_response(
            OR2, {x: 0 for x in OR2.domain},
            error_weights=weights, depth_budget=0,
        )


def test_best_response_depth_budget():
    w = {x: Fraction(1, 4) for x in OR2.domain}
    tree, _ = best_response(OR2, {x: 0 for x in OR2.domain},
                            error_weights=w, depth_budget=1)
    assert tree_depth(tree) <= 1


# -- expected-cost games: frozen values ---------------------------------------


def test_r0_frozen():
    assert solve_expected_game(OR2, 0).value == 2
    assert solve_expected_game(AND2, 0).value == 2
    assert solve_expected_game(XOR2, 0).value == 2
    assert solve_expected_game(ID1, 0).value == 1


def test_rs_frozen():
    assert solve_expected_game(sabotage(OR2), 0).value == Fraction(3, 2)
    assert solve_expected_game(sabotage(AND2), 0).value == Fraction(3, 2)
    assert solve_expected_game(sabotage(XOR2), 0).value == Fraction(3, 2)
    assert solve_expected_game(sabotage(ID1), 0).value == 1


def test_quarter_error_frozen():
    assert solve_expected_game(sabotage(ID1), Fraction(1, 4)).value == Fraction(1, 2)
    assert solve_expected_game(OR2, Fraction(1, 4)).value == 1


def test_third_error_frozen():
    assert solve_expected_game(OR2, Fraction(1, 3)).value == Fraction(2, 3)
    assert solve_expected_game(XOR2, Fraction(1, 3)).value == Fraction(2, 3)


def _sabotage_measures(f):
    ctx = MeasureContext()
    return {name: ctx.measure(f, name) for name in ("DS", "RS", "RSu")}


def test_sabotage_measures_frozen():
    m = _sabotage_measures(OR2)
    assert m == {"DS": 2, "RS": Fraction(3, 2), "RSu": Fraction(3, 2)}
    const = parse_function("tt:2:0000")
    assert _sabotage_measures(const) == {"DS": 0, "RS": 0, "RSu": 0}


def test_index3_sabotage_value():
    from querylab import index_function

    assert MeasureContext().measure(index_function(3), "RS") == Fraction(9, 5)


# -- oracle agreement over whole families -------------------------------------


def test_engine_matches_oracle_zero_error():
    for f in enumerate_functions("all-total:2"):
        value = solve_expected_game(f, 0).value
        assert abs(float(value) - oracle_game_value(f, 0)) < TOL


@pytest.mark.parametrize("eps", [Fraction(1, 4), Fraction(1, 3)])
def test_engine_matches_oracle_with_error(eps):
    for f in enumerate_functions("all-total:2"):
        value = solve_expected_game(f, eps).value
        assert abs(float(value) - oracle_game_value(f, eps)) < TOL


def test_engine_matches_oracle_on_sabotaged():
    for f in enumerate_functions("nonconstant-total:2"):
        sab = sabotage(f)
        value = solve_expected_game(sab, 0).value
        assert abs(float(value) - oracle_game_value(sab, 0)) < TOL


def test_worstcase_matches_oracle():
    for f in enumerate_functions("all-total:2"):
        sol = solve_worstcase_depth(f, Fraction(1, 3))
        assert sol.depth == oracle_worstcase_depth(f, Fraction(1, 3))


def test_worstcase_frozen():
    assert solve_worstcase_depth(OR2, Fraction(1, 3)).depth == 1
    assert solve_worstcase_depth(XOR2, Fraction(1, 3)).depth == 2


def test_worstcase_zero_error_equals_det():
    for f in enumerate_functions("all-total:2"):
        assert solve_worstcase_depth(f, 0).depth == det_complexity(f)
    sab = sabotage(OR2)
    assert solve_worstcase_depth(sab, 0).depth == det_complexity(sab)


# -- solution invariants -------------------------------------------------------


def test_solution_invariants():
    sol = solve_expected_game(sabotage(OR2), 0)
    assert sum(sol.hard_distribution.values()) == 1
    assert all(w >= 0 for w in sol.hard_distribution.values())
    assert sum(w for _, w in sol.support) == 1
    assert all(w > 0 for _, w in sol.support)
    assert max(sol.expected_cost.values()) == sol.value
    assert all(e == 0 for e in sol.error.values())
    assert all(sol.audit.values())


def test_solution_error_budget_respected():
    eps = Fraction(1, 4)
    for f in enumerate_functions("nonconstant-total:2"):
        sol = solve_expected_game(f, eps)
        assert all(e <= eps for e in sol.error.values())
        assert all(c <= sol.value for c in sol.expected_cost.values())


def test_eps_monotonicity():
    for f in enumerate_functions("nonconstant-total:2"):
        v0 = solve_expected_game(f, 0).value
        v4 = solve_expected_game(f, Fraction(1, 4)).value
        v3 = solve_expected_game(f, Fraction(1, 3)).value
        assert v0 >= v4 >= v3


def test_worstcase_depth_budget_respected():
    sol = solve_worstcase_depth(OR2, Fraction(1, 3))
    assert all(tree_depth(t) <= sol.depth for t, _ in sol.support)
    assert max(sol.error.values()) == sol.error_value
    assert sol.error_value <= Fraction(1, 3)


def test_zero_error_support_trees_are_correct():
    sol = solve_expected_game(sabotage(OR2), 0)
    sab = sabotage(OR2)
    for tree, _ in sol.support:
        for x in sab.domain:
            out, _ = walk(tree, x)
            assert out == sab(x)


def test_invalid_eps():
    with pytest.raises(ValueError):
        solve_expected_game(OR2, Fraction(1, 2))
    with pytest.raises(ValueError):
        solve_expected_game(OR2, Fraction(-1, 10))
    with pytest.raises(ValueError):
        solve_expected_game(QueryFunction(2, {}), 0)


def test_determinism_repeat_solve():
    a = solve_expected_game(sabotage(OR2), 0)
    b = solve_expected_game(sabotage(OR2), 0)
    assert a.value == b.value
    assert a.hard_distribution == b.hard_distribution
    assert [(tree_to_obj(t), w) for t, w in a.support] == [
        (tree_to_obj(t), w) for t, w in b.support
    ]


def test_unique_sabotage_game_matches_full():
    # spot check of the usab = sab identity on a couple of functions
    for lit in ("tt:2:0111", "tt:2:0110"):
        f = parse_function(lit)
        full = solve_expected_game(sabotage(f), 0).value
        restricted = solve_expected_game(unique_sabotage(f), 0).value
        assert full == restricted


def test_parity_game_needs_few_trees():
    # XOR of four bits at eps 1/4 is highly degenerate: a resumed master
    # without stabilized pricing generated 80 trees here.
    game = solve_expected_game(parse_function("tt:4:1001011001101001"), Fraction(1, 4))
    assert game.value == 2
    assert game.iterations <= 20


def test_caps_raise_limit_exceeded(monkeypatch):
    import querylab.games
    import querylab.lp

    game = sabotage(parse_function("tt:2:0111"))  # needs more than its seed tree
    monkeypatch.setattr(querylab.games, "_MAX_COLUMNS", 1)
    with pytest.raises(querylab.LimitExceeded, match="column generation"):
        solve_expected_game(game, 0)
    monkeypatch.undo()
    monkeypatch.setattr(querylab.lp, "_MAX_PIVOTS", 0)
    with pytest.raises(querylab.LimitExceeded, match="pivot cap"):
        solve_expected_game(game, 0)


# -- audits survive python -O ---------------------------------------------------

_AUDIT_CASES = """
from fractions import Fraction
import sys

import querylab.games as games
from querylab import (
    AuditError, LinearProgram, LPSolution, parse_function, sabotage,
    solve_expected_game,
)

def expect_audit_error(name, call):
    try:
        call()
    except AuditError as exc:
        print(name, "AuditError", exc)
    else:
        print(name, "no error")

print("optimize", sys.flags.optimize)

# x = 2 violates x <= 1
lp = LinearProgram("max", [1], [([1], "<=", 1)])
wrong = LPSolution("optimal", x=[Fraction(2)], duals=[Fraction(1)],
                   objective=Fraction(2))
expect_audit_error("verify", lambda: wrong.verify(lp))

# Duals that put the whole mixture on the seed tree, which costs more
# than the game value, so the rebuilt mixture cannot achieve it.  The
# tampered dual keeps the sign of the seed row's own dual, so it still
# reads as a mixture and the game audit is what catches it.
real_solve_lp = games.solve_lp

def tampered(program):
    sol = real_solve_lp(program)
    seed = Fraction(-1) if sol.duals[1] < 0 else Fraction(1)
    sol.duals = sol.duals[:1] + [seed] + [Fraction(0)] * (len(sol.duals) - 2)
    return sol

games.solve_lp = tampered
expect_audit_error(
    "game", lambda: solve_expected_game(sabotage(parse_function("tt:2:0111")), 0)
)
"""


def test_audits_raise_under_python_O():
    env = dict(os.environ)
    src = str(Path(querylab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _AUDIT_CASES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1] == "verify AuditError row 0 violated"
    assert lines[2].startswith("game AuditError game audit failed:")
    assert "'mixture_achieves_value': False" in lines[2]
