"""Property tests of the split search and the game solver against the oracles.

Random partial Boolean functions (and their sabotaged versions) are checked
against the independent reference implementations in oracles.py: tree
depth, best responses under random weights, game values, sabotage patterns,
certificate complexity, and block sensitivity, plain and fractional.  The
trees themselves, not only their costs, are compared with the split search
run without its cuts, so a cut that changed a tie-break would show; best
responses are also run on split tables prepared once, as a game does.
Examples are derandomized, so every run draws the same cases.
"""

from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from querylab import (
    ambiguous_patterns,
    best_response,
    block_sensitivity,
    certificate_complexity,
    det_complexity,
    direct_sum,
    fractional_block_sensitivity,
    minimal_sensitive_blocks,
    parse_function,
    sabotage,
    sensitive_blocks,
    solve_expected_game,
    tree_depth,
    tree_to_obj,
    walk,
)
from querylab.det import _split_tables

from oracles import (
    enumerate_strategies,
    oracle_ambiguous_patterns,
    oracle_best_response,
    oracle_block_sensitivity,
    oracle_certificate,
    oracle_det,
    oracle_det_tree,
    oracle_fractional_bs,
    oracle_game_value,
    oracle_sensitive_blocks,
)

PROPERTY = settings(derandomize=True, deadline=None, max_examples=150)
TOL = 1e-9


@st.composite
def partial_functions(draw, max_arity):
    # Largest arity first: hypothesis favours the first choice.
    n = draw(st.sampled_from(range(max_arity, 0, -1)))
    cells = draw(
        st.lists(st.sampled_from("01-"), min_size=2**n, max_size=2**n)
        .filter(lambda c: set(c) != {"-"})
    )
    return parse_function(f"tt:{n}:{''.join(cells)}")


@st.composite
def sabotaged_functions(draw, max_arity):
    f = draw(partial_functions(max_arity).filter(lambda f: len(f.labels()) == 2))
    return sabotage(f)


costs_per_query = st.fractions(min_value=0, max_value=1, max_denominator=4)
error_charges = st.fractions(min_value=0, max_value=4, max_denominator=3)


@PROPERTY
@given(partial_functions(3))
def test_det_matches_oracle_on_partial_functions(f):
    assert det_complexity(f) == oracle_det(f)


@PROPERTY
@given(sabotaged_functions(2))
def test_det_matches_oracle_on_sabotaged_functions(sab):
    assert det_complexity(sab) == oracle_det(sab)


@st.composite
def weighted_instances(draw, functions):
    f = draw(functions)
    costs = {x: draw(costs_per_query) for x in f.domain}
    if draw(st.booleans()):  # zero error: erring leaves are forbidden
        return f, costs, None, None
    errors = {x: draw(error_charges) for x in f.domain}
    budget = draw(st.sampled_from([*range(1, f.arity), None, 0, f.arity]))
    return f, costs, errors, budget


def check_best_response(f, costs, errors, budget):
    """The tree walks to the reported objective, and no strategy beats it."""
    tree, objective = best_response(f, costs, errors, budget)
    walked = Fraction(0)
    for x in f.domain:
        out, queries = walk(tree, x)
        walked += costs[x] * queries
        if out != f(x):
            assert errors is not None
            walked += errors[x]
    assert walked == objective
    if budget is not None:
        assert tree_depth(tree) <= budget
    # The oracle lists every undominated strategy, the returned tree among
    # them, so no listed strategy is cheaper and one costs exactly as much.
    prices = [
        sum(
            costs[x] * c + (errors[x] * e if errors else 0)
            for x, c, e in zip(f.domain, cost_vec, err_vec)
        )
        for cost_vec, err_vec in enumerate_strategies(f, errors is None, budget)
    ]
    assert objective == min(prices)


@PROPERTY
@given(weighted_instances(partial_functions(3)))
def test_best_response_on_partial_functions(instance):
    check_best_response(*instance)


@PROPERTY
@given(weighted_instances(sabotaged_functions(2)))
def test_best_response_on_sabotaged_functions(instance):
    check_best_response(*instance)


@PROPERTY
@given(st.one_of(partial_functions(4), sabotaged_functions(3)))
def test_det_tree_matches_uncut_search(f):
    depth, tree = det_complexity(f, with_tree=True)
    expected_depth, expected_tree = oracle_det_tree(f)
    assert depth == expected_depth
    assert tree_to_obj(tree) == tree_to_obj(expected_tree)


@st.composite
def budgeted_instances(draw, functions):
    f = draw(functions)
    costs = {x: draw(costs_per_query) for x in f.domain}
    budget = draw(st.sampled_from([None, *range(f.arity + 1)]))
    if draw(st.booleans()):
        return f, costs, None, budget
    charges = st.one_of(error_charges, st.just(inf))
    return f, costs, {x: draw(charges) for x in f.domain}, budget


@PROPERTY
@given(budgeted_instances(st.one_of(partial_functions(3), sabotaged_functions(2))))
def test_best_response_tree_matches_uncut_search(instance):
    # Also with the split tables prepared by the caller, as a game does.
    f, costs, errors, budget = instance
    objective, expected_tree = oracle_best_response(f, costs, errors, budget)
    tables = _split_tables(f)
    if objective == inf:
        with pytest.raises(RuntimeError):
            best_response(f, costs, errors, budget)
        with pytest.raises(RuntimeError):
            best_response(f, costs, errors, budget, tables=tables)
        return
    for prepared in (None, tables):
        tree, value = best_response(f, costs, errors, budget, tables=prepared)
        assert value == objective
        assert tree_to_obj(tree) == tree_to_obj(expected_tree)


@PROPERTY
@given(partial_functions(2), st.sampled_from([Fraction(0), Fraction(1, 4)]))
def test_game_value_matches_oracle(f, eps):
    value = solve_expected_game(f, eps).value
    assert abs(float(value) - oracle_game_value(f, eps)) < TOL


@PROPERTY
@given(partial_functions(3))
def test_fractional_block_sensitivity_matches_oracle(f):
    overall, per_input = fractional_block_sensitivity(f)
    expected = {x: oracle_fractional_bs(f, x) for x in f.domain}
    assert per_input == expected
    assert all(type(v) is Fraction for v in per_input.values())
    assert overall == max(expected.values())


@PROPERTY
@given(partial_functions(4))
def test_subcube_measures_match_oracles(f):
    assert ambiguous_patterns(f) == oracle_ambiguous_patterns(f)
    overall, per_input = certificate_complexity(f)
    assert per_input == oracle_certificate(f)
    assert overall == max(per_input.values())
    overall, per_input = block_sensitivity(f)
    assert per_input == oracle_block_sensitivity(f)
    assert overall == max(per_input.values())
    for x in f.domain:
        blocks, minimal = oracle_sensitive_blocks(f, x)
        assert sensitive_blocks(f, x) == blocks
        assert minimal_sensitive_blocks(f, x) == minimal


@PROPERTY
@given(sabotaged_functions(3))
def test_certificate_complexity_on_sabotaged_functions(sab):
    assert certificate_complexity(sab)[1] == oracle_certificate(sab)


@PROPERTY
@given(partial_functions(2))
def test_certificate_complexity_on_multichar_labels(f):
    pair = direct_sum(f, 2)
    assert certificate_complexity(pair)[1] == oracle_certificate(pair)
