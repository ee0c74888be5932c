"""Randomized query games solved exactly by column generation.

A randomized algorithm is a mixture of deterministic trees.  Its cost
against the worst input is the value of a zero-sum game, and both games here
go through one column-generation loop, _solve_game.  The loop solves the
adversary's LP over a growing set of trees: variables are a distribution
alpha on the domain, optional penalized extras and the value nu, with one
cut row per tree saying the tree pays at least nu against alpha.  It prices
a new tree with best_response, the split search of det.py under weighted
query costs and errors, and stops when the best response cannot beat nu.
The optimal mixture of trees is read from the duals of the tree rows.  All
of it is exact rational arithmetic, so the termination test is an exact
comparison and the value returned is the true optimum, not an
approximation.

Each solver supplies only its tree column, its pricing call and its audit:

solve_expected_game(f, eps) minimizes worst-case *expected* queries subject
to per-input error at most eps (eps=0: erring leaves are forbidden outright).
A tree's column is its query counts, followed by its error indicators when
eps > 0, which buy the adversary's error penalties.
solve_worstcase_depth(f, eps) finds the smallest depth budget under which a
mixture keeps every input's error at or below eps.  At each depth a tree's
column is its error indicators, and pricing respects the depth budget.

Every solve carries an audit trail of exact cross-checks: the LP's own
primal/dual verification, the mixture rebuilt from the duals achieving the
value exactly, and the final best response certifying no tree beats it.  A
failed check raises AuditError.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .core import AuditError
from .det import _members, _split_search
from .lp import LinearProgram, solve_lp
from .rational import ZERO, as_rat, rat, to_fraction
from .trees import Leaf, tree_depth, walk

_MAX_COLUMNS = 100000


def best_response(f, cost_weights, error_weights=None, depth_budget=None):
    """Cheapest deterministic tree against weighted query costs and errors.

    cost_weights maps inputs to nonnegative rationals charged per query made
    on that input; error_weights charges a wrong answer on the input, with
    None meaning errors are forbidden (leaves only at settled sets).  An
    entry of math.inf in error_weights forbids erring on that input alone.
    depth_budget, when given, caps the tree depth.  Returns (tree, objective).
    """
    dom = f.domain
    if not dom:
        return Leaf("0"), to_fraction(0)
    alpha = [as_rat(cost_weights.get(x, 0)) for x in dom]
    leaf_rule = None
    if error_weights is not None:
        labels = [f.table[x] for x in dom]
        label_menu = f.labels()
        beta = []
        for x in dom:
            w = error_weights.get(x, 0)
            beta.append(w if w == inf else as_rat(w))

        def leaf_rule(s):
            best = None
            for candidate in label_menu:
                cost = ZERO
                for i in _members(s):
                    if labels[i] != candidate:
                        if beta[i] == inf:
                            cost = inf
                            break
                        cost = cost + beta[i]
                if best is None or cost < best[0]:
                    best = (cost, candidate)
            return best

    def combine(s, values):
        return sum((alpha[i] for i in _members(s)), ZERO) + sum(values)

    objective, tree = _split_search(f, leaf_rule, combine, depth_budget)
    if objective == inf:
        raise RuntimeError("no admissible tree exists for these weights")
    return tree, objective


@dataclass
class GameSolution:
    """Exact value of a randomized query game, with certificates.

    hard_distribution is the adversary's optimal input distribution: any
    admissible algorithm pays at least `value` in expectation against it.
    support is the optimal mixture of trees achieving `value`.  audit holds
    the exact cross-checks performed (all must be True).
    """

    value: object
    eps: object
    hard_distribution: dict
    support: list
    expected_cost: dict
    error: dict
    iterations: int
    audit: dict


def _vectors_for(f, dom, tree):
    cost_vec, err_vec = [], []
    for x in dom:
        out, cost = walk(tree, x)
        cost_vec.append(cost)
        err_vec.append(0 if out == f.table[x] else 1)
    return cost_vec, err_vec


def _solve_game(f, eps, penalties, column, price, seed, audit):
    """Column generation over trees, from the seed tree to an audited solution.

    The LP maximizes nu - penalties . extras over (alpha, extras, nu) with
    sum(alpha) = 1 and one row column(cost_vec, err_vec) . (alpha, extras)
    >= nu per tree.  price(x) returns the best response (tree, objective) to
    the LP point x.  audit(lp_solution, response, game) returns the audit
    flags of the finished game, given the final best response's objective;
    all of them must hold.
    """
    dom = f.domain
    m = len(dom)
    objective = [0] * m + penalties + [1]
    first_row = ([1] * m + [0] * (len(penalties) + 1), "=", 1)
    trees = []
    tree = seed
    while True:
        trees.append((tree, *_vectors_for(f, dom, tree)))
        if len(trees) > _MAX_COLUMNS:
            raise RuntimeError("column generation did not terminate")
        rows = [first_row]
        for _, cost_vec, err_vec in trees:
            rows.append((column(cost_vec, err_vec) + [-1], ">=", 0))
        sol = solve_lp(LinearProgram("max", objective, rows))
        if sol.status != "optimal":
            raise AuditError(f"the adversary's LP is {sol.status}")
        tree, response = price(sol.x)
        if response >= sol.x[-1]:
            break

    alpha = sol.x[:m]
    if sum(alpha, ZERO) != 1 or any(a < 0 for a in alpha):
        raise AuditError("the adversary's weights are not a distribution")
    # The mixture lives in the duals of the tree rows (normalized: the dual
    # may overshoot 1 in degenerate corners, which scaling only improves).
    raw = [-y for y in sol.duals[1:]]
    total = sum(raw, ZERO)
    if total < 1 or any(w < 0 for w in raw):
        raise AuditError("the tree-row duals are not a mixture")
    support = [(trees[k], w / total) for k, w in enumerate(raw) if w != 0]
    expected_cost, error = {}, {}
    for i, x in enumerate(dom):
        expected_cost[x] = sum((w * t[1][i] for t, w in support), ZERO)
        error[x] = sum((w * t[2][i] for t, w in support), ZERO)

    game = GameSolution(
        value=to_fraction(sol.objective),
        eps=to_fraction(eps),
        hard_distribution={
            dom[i]: to_fraction(alpha[i]) for i in range(m) if alpha[i] != 0
        },
        support=[(t[0], to_fraction(w)) for t, w in support],
        expected_cost={x: to_fraction(v) for x, v in expected_cost.items()},
        error={x: to_fraction(v) for x, v in error.items()},
        iterations=len(trees),
        audit=None,
    )
    game.audit = audit(sol, response, game)
    if not all(game.audit.values()):
        raise AuditError(f"game audit failed: {game.audit}")
    return game


def _check_game_args(f, eps):
    eps = as_rat(eps)
    if not 0 <= eps < rat(1, 2):
        raise ValueError(f"error budget must lie in [0, 1/2), got {eps}")
    if not f.domain:
        raise ValueError("the game needs a nonempty domain")
    return eps


def solve_expected_game(f, eps):
    """Minimum worst-case expected query count at per-input error <= eps."""
    eps = _check_game_args(f, eps)
    dom = f.domain
    m = len(dom)
    zero_error = eps == 0

    def price(x):
        errors = None if zero_error else dict(zip(dom, x[m : 2 * m]))
        return best_response(f, dict(zip(dom, x[:m])), errors)

    def audit(sol, response, game):
        nu = sol.x[-1]
        return {
            "lp_verified": sol.verified,
            "mixture_achieves_value": max(game.expected_cost.values()) == game.value,
            "mixture_error_within_budget": max(game.error.values()) <= eps,
            "best_response_cannot_beat_value": response >= nu,
            "adversary_certifies_value": nu - eps * sum(sol.x[m:-1], ZERO)
            == sol.objective,
        }

    seed, _ = best_response(f, {x: rat(1, m) for x in dom}, None)
    if zero_error:
        return _solve_game(f, eps, [], lambda c, e: c, price, seed, audit)
    return _solve_game(f, eps, [-eps] * m, lambda c, e: c + e, price, seed, audit)


@dataclass
class WorstcaseSolution:
    """Smallest depth budget admitting an eps-error mixture, with certificates."""

    depth: int
    eps: object
    error_value: object
    hard_distribution: dict
    support: list
    error: dict
    audit: dict


def solve_worstcase_depth(f, eps):
    """Minimum depth d such that some depth-<=d mixture errs at most eps everywhere."""
    eps = _check_game_args(f, eps)
    dom = f.domain
    m = len(dom)

    for depth in range(f.arity + 1):

        def price(x):
            return best_response(f, {}, dict(zip(dom, x[:m])), depth)

        def audit(sol, response, game):
            return {
                "lp_verified": sol.verified,
                "mixture_error_at_value": max(game.error.values()) == game.value,
                "depth_budget_respected": all(
                    tree_depth(tree) <= depth for tree, _ in game.support
                ),
                "best_response_cannot_beat_value": response >= sol.x[-1],
            }

        seed, _ = best_response(f, {}, {x: rat(1, m) for x in dom}, depth)
        game = _solve_game(f, eps, [], lambda c, e: e, price, seed, audit)
        if game.value <= eps:
            return WorstcaseSolution(
                depth=depth,
                eps=game.eps,
                error_value=game.value,
                hard_distribution=game.hard_distribution,
                support=game.support,
                error=game.error,
                audit=game.audit,
            )
    raise AuditError("querying every position always reaches error 0")
