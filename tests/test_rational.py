"""Exact inputs only: every entry point that takes a rational rejects floats.

Fraction(0.25) would silently accept a float, so each entry point must pass
its rationals through the as_rat guard; math.inf as an error weight is the
one float that stays allowed.
"""

from fractions import Fraction
from math import inf

import pytest

from querylab import (
    Leaf,
    LinearProgram,
    MeasureContext,
    amplification_repetitions,
    best_response,
    expected_to_worstcase_factor,
    majority_error,
    markov_truncation,
    parse_function,
    repeat_cost,
    solve_expected_game,
    solve_worstcase_depth,
)

OR2 = parse_function("tt:2:0111")
QUARTER = Fraction(1, 4)

FLOAT_CALLS = {
    "solve_expected_game eps": lambda: solve_expected_game(OR2, 0.25),
    "solve_worstcase_depth eps": lambda: solve_worstcase_depth(OR2, 0.25),
    "best_response cost weight": lambda: best_response(OR2, {"00": 0.5}),
    "best_response error weight": lambda: best_response(OR2, {}, {"00": 0.5}),
    "LinearProgram objective": lambda: LinearProgram("max", [0.5, 1], [([1, 1], "<=", 1)]),
    "LinearProgram coefficient": lambda: LinearProgram("max", [1, 1], [([0.5, 1], "<=", 1)]),
    "LinearProgram rhs": lambda: LinearProgram("max", [1, 1], [([1, 1], "<=", 0.5)]),
    "majority_error eps": lambda: majority_error(0.25, 3),
    "amplification_repetitions eps": lambda: amplification_repetitions(0.25, Fraction(1, 10)),
    "amplification_repetitions target": lambda: amplification_repetitions(QUARTER, 0.1),
    "markov_truncation cost": lambda: markov_truncation(2.0, QUARTER),
    "markov_truncation delta": lambda: markov_truncation(2, 0.25),
    "repeat_cost cost": lambda: repeat_cost(2.0, QUARTER),
    "repeat_cost eps": lambda: repeat_cost(2, 0.25),
    "expected_to_worstcase_factor eps": lambda: expected_to_worstcase_factor(0.25),
    "MeasureContext default_eps": lambda: MeasureContext(default_eps=0.25),
}


@pytest.mark.parametrize("call", FLOAT_CALLS.values(), ids=list(FLOAT_CALLS))
def test_floats_are_rejected(call):
    with pytest.raises(TypeError):
        call()


def test_infinite_error_weight_is_allowed():
    # Answering 1 at once would err on 00, which inf forbids; answering 0
    # errs on the other three inputs.
    errors = {"00": inf, "01": QUARTER, "10": QUARTER, "11": QUARTER}
    tree, value = best_response(OR2, {}, errors, depth_budget=0)
    assert isinstance(tree, Leaf) and tree.label == "0"
    assert value == Fraction(3, 4)
