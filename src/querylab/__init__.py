"""querylab: exact query-complexity workbench for small Boolean functions.

Everything is computed over exact rationals; no measure value in this
package is ever a float.  The headline capability is the sabotage game:
RS(f) is the zero-error randomized cost of distinguishing inputs that a
partial assignment still leaves ambiguous, computed by LP column
generation with a self-verifying duality audit.
"""

from .bounds import (
    amplification_repetitions,
    expected_to_worstcase_factor,
    majority_error,
    markov_truncation,
    repeat_cost,
)
from .constructions import (
    ConstructionError,
    SabotagedFunction,
    ambiguous_patterns,
    compose,
    direct_sum,
    index_function,
    indexed_direct_sum,
    sabotage,
    unique_sabotage,
)
from .core import (
    AuditError,
    LimitExceeded,
    ParseError,
    QueryFunction,
    UndefinedValueError,
    canonical_encoding,
    enumerate_functions,
    input_sort_key,
    parse_function,
)
from .det import (
    block_sensitivity,
    certificate_complexity,
    det_complexity,
    fractional_block_sensitivity,
    max_disjoint,
    minimal_sensitive_blocks,
    sensitive_blocks,
)
from .games import (
    GameSolution,
    WorstcaseSolution,
    best_response,
    solve_expected_game,
    solve_worstcase_depth,
)
from .harness import ENGINE_VERSION, MeasureContext, MeasureError, parse_measure
from .lp import LinearProgram, LPSolution, check_feasible, solve_lp
from .registry import REGISTRY, TheoremCheck, UnknownCheckError, run_checks
from .trees import Leaf, Node, tree_depth, tree_to_obj, walk

__version__ = ENGINE_VERSION

__all__ = [
    "ENGINE_VERSION",
    "AuditError",
    "ConstructionError",
    "GameSolution",
    "LPSolution",
    "Leaf",
    "LimitExceeded",
    "LinearProgram",
    "MeasureContext",
    "MeasureError",
    "Node",
    "ParseError",
    "QueryFunction",
    "REGISTRY",
    "SabotagedFunction",
    "TheoremCheck",
    "UndefinedValueError",
    "UnknownCheckError",
    "WorstcaseSolution",
    "ambiguous_patterns",
    "amplification_repetitions",
    "best_response",
    "block_sensitivity",
    "canonical_encoding",
    "certificate_complexity",
    "check_feasible",
    "compose",
    "det_complexity",
    "direct_sum",
    "enumerate_functions",
    "expected_to_worstcase_factor",
    "fractional_block_sensitivity",
    "index_function",
    "indexed_direct_sum",
    "input_sort_key",
    "majority_error",
    "markov_truncation",
    "max_disjoint",
    "minimal_sensitive_blocks",
    "parse_function",
    "parse_measure",
    "repeat_cost",
    "run_checks",
    "sabotage",
    "sensitive_blocks",
    "solve_expected_game",
    "solve_lp",
    "solve_worstcase_depth",
    "tree_depth",
    "tree_to_obj",
    "unique_sabotage",
    "walk",
]
