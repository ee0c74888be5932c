"""Randomized query games solved exactly by column generation.

A randomized algorithm is a mixture of deterministic trees.  Its cost
against the worst input is the value of a zero-sum game, and both games here
go through one column-generation loop, _solve_game.  The loop grows one
restricted master per game, the adversary's LP over the trees seen so far:
variables are a distribution alpha on the domain, optional penalized extras
and the value nu, with one cut row per tree, -column . (alpha, extras) + nu
<= 0, saying the tree pays at least nu against alpha.  Each new tree appends
its integer cut row to the same LinearProgram, and solve_lp resumes from the
last optimal basis by the dual simplex.  New trees come from best_response,
the split search of det.py on integer-scaled query costs and errors, over
split tables each game builds once for all its best responses.  The loop
runs on ints: it reads the master's x and duals as the ints over one
denominator that the solve returns, prices each adversary point as those
ints, which scales every weight alike and so changes no tree, and builds
Fractions only for the finished game.

The master's optima are degenerate, and a resumed basis tends to keep the
adversary on a few inputs, which on parity-like functions multiplied the
trees needed several times over.  So pricing is stabilized by in-out
separation (Wentges 1997; Ben-Ameur & Neto 2007): the best response at the
point a quarter of the way from the center, the adversary point with the
best lower bound on the value so far, to the master's optimum x is kept when
its cut row cuts x off; otherwise x itself is priced.  The loop stops when
the best response to x cannot beat nu, so the stopping test and the audits
are those of plain column generation.  The optimal mixture of trees is read
from the (nonnegative) duals of the cut rows.  All of it is exact, so the
termination test is an exact comparison and the value returned is the true
optimum, not an approximation.

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
from fractions import Fraction
from math import gcd, inf

from .core import AuditError, LimitExceeded
from .det import _members, _split_search, _split_tables
from .lp import LinearProgram, _exact, solve_lp
from .rational import as_rat, common
from .trees import Leaf, tree_depth, walk

_MAX_COLUMNS = 100000


def best_response(f, cost_weights, error_weights=None, depth_budget=None, *, tables=None):
    """Cheapest deterministic tree against weighted query costs and errors.

    cost_weights maps inputs to nonnegative rationals charged per query made
    on that input; error_weights charges a wrong answer on the input, with
    None meaning errors are forbidden (leaves only at settled sets).  An
    entry of math.inf in error_weights forbids erring on that input alone.
    A negative cost or error weight raises ValueError.  depth_budget, when
    given, caps the tree depth.  tables, when given, is det._split_tables(f),
    which the game solvers build once per game; the result is the same
    without it.  Returns (tree, objective).  The search runs on ints: every
    finite weight is put over one common denominator, and the objective is
    divided back at the end.
    """
    dom = f.domain
    if not dom:
        return Leaf("0"), Fraction(0)
    alpha = [_exact(cost_weights.get(x, 0)) for x in dom]
    beta = None
    if error_weights is not None:
        beta = []
        for x in dom:
            w = error_weights.get(x, 0)
            beta.append(inf if type(w) is float and w == inf else _exact(w))
    if any(w < 0 for w in alpha + (beta or [])):
        raise ValueError("cost and error weights must be nonnegative")
    ints, scale = common(alpha + [w for w in beta or () if w is not inf])
    alpha, finite = ints[: len(dom)], iter(ints[len(dom) :])
    if tables is None:
        tables = _split_tables(f)
    leaf_rule = None
    if beta is not None:
        beta = [w if w is inf else next(finite) for w in beta]
        labels = tables[0]
        label_menu = f.labels()

        def leaf_rule(s):
            best = None
            for candidate in label_menu:
                cost = 0
                for i in _members(s):
                    if labels[i] != candidate:
                        if beta[i] is inf:
                            cost = inf
                            break
                        cost += beta[i]
                if best is None or cost < best[0]:
                    best = (cost, candidate)
            return best

    objective, tree = _split_search(f, leaf_rule, alpha, depth_budget, tables=tables)
    if objective == inf:
        raise RuntimeError("no admissible tree exists for these weights")
    return tree, Fraction(objective, scale)


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

    One restricted master, kept across iterations, maximizes
    nu + penalties . extras over (alpha, extras, nu) with sum(alpha) = 1 and
    one cut row -column(cost_vec, err_vec) . (alpha, extras) + nu <= 0 per
    tree; penalties are <= 0.  Only the first row needs a phase-1
    artificial; each later tree appends its row and the master resumes from
    its last optimal basis.  price(ints) returns the best response (tree,
    objective) to the adversary point ints / den, scaled by den; at any such
    point, objective / den + penalties . extras is a lower bound on the game
    value.
    audit(lp_solution, response, game) returns the audit flags of the
    finished game, given the final best response's objective; all of them
    must hold.  Everything passed between the master, its audit and pricing
    stays ints: the master's x and duals are read as sol.x_int and
    sol.duals_int, and only the game's readout builds Fractions.
    """
    dom = f.domain
    m = len(dom)
    master = LinearProgram(
        "max", [0] * m + penalties + [1], [([1] * m + [0] * (len(penalties) + 1), "=", 1)]
    )
    pen, pen_den = common(penalties)
    center = None  # (ints, den, bound) of the point with the best bound so far

    def priced(ints, den):
        # A point's best response, less its penalties, bounds the value below.
        # The response is returned, and the bound kept, as (num, den) pairs.
        nonlocal center
        g = gcd(den, *ints)
        ints, den = [v // g for v in ints], den // g
        tree, objective = price(ints)
        num, r_den = objective.numerator, objective.denominator
        penalty = sum([p * v for p, v in zip(pen, ints[m:])])
        bound = (num * pen_den + penalty * r_den, r_den * pen_den * den)
        if center is None or bound[0] * center[2][1] > center[2][0] * bound[1]:
            center = (ints, den, bound)
        return tree, (num, r_den * den)

    trees = []
    tree = seed
    while True:
        trees.append((tree, *_vectors_for(f, dom, tree)))
        if len(trees) > _MAX_COLUMNS:
            raise LimitExceeded("column generation did not terminate")
        master.add_row([-a for a in column(*trees[-1][1:])] + [1], "<=", 0)
        sol = solve_lp(master)
        if sol.status != "optimal":
            raise AuditError(f"the adversary's LP is {sol.status}")
        opt, d_opt = sol.x_int
        tree = None
        if center is not None:
            # In-out separation: first price the point a quarter of the way
            # from the center to the optimum, and keep its tree if it cuts
            # the optimum off.
            c, dc, _ = center
            point = [3 * u * d_opt + v * dc for u, v in zip(c, opt)]
            tree, _ = priced(point, 4 * dc * d_opt)
            cut = column(*_vectors_for(f, dom, tree))
            if sum([a * v for a, v in zip(cut, opt)]) >= opt[-1]:
                tree = None
        if tree is None:
            tree, (num, r_den) = priced(opt, d_opt)
            # the response num / r_den reaches nu = opt[-1] / d_opt
            if num * d_opt >= opt[-1] * r_den:
                break

    if sum(opt[:m]) != d_opt or any(a < 0 for a in opt[:m]):
        raise AuditError("the adversary's weights are not a distribution")
    # The mixture lives in the duals of the tree rows (normalized: the dual
    # may overshoot 1 in degenerate corners, which scaling only improves).
    # Over one denominator den the duals are the ints raw, and the mixture
    # weights are raw / total.
    raw, den = sol.duals_int
    raw = raw[1:]
    total = sum(raw)
    if total < den or any(w < 0 for w in raw):
        raise AuditError("the tree-row duals are not a mixture")
    support = [(t, w) for t, w in zip(trees, raw) if w]
    expected_cost, error = {}, {}
    for i, x in enumerate(dom):
        expected_cost[x] = Fraction(sum([w * t[1][i] for t, w in support]), total)
        error[x] = Fraction(sum([w * t[2][i] for t, w in support]), total)

    game = GameSolution(
        value=sol.objective,
        eps=eps,
        hard_distribution={dom[i]: Fraction(opt[i], d_opt) for i in range(m) if opt[i]},
        support=[(t[0], Fraction(w, total)) for t, w in support],
        expected_cost=expected_cost,
        error=error,
        iterations=len(trees),
        audit=None,
    )
    game.audit = audit(sol, Fraction(num, r_den), game)
    if not all(game.audit.values()):
        raise AuditError(f"game audit failed: {game.audit}")
    return game


def _check_game_args(f, eps):
    eps = as_rat(eps)
    if not 0 <= eps < Fraction(1, 2):
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
    tables = _split_tables(f)

    def price(x):
        errors = None if zero_error else dict(zip(dom, x[m : 2 * m]))
        return best_response(f, dict(zip(dom, x[:m])), errors, tables=tables)

    def audit(sol, response, game):
        x, den = sol.x_int
        nu = Fraction(x[-1], den)
        return {
            "lp_verified": sol.verified,
            "mixture_achieves_value": max(game.expected_cost.values()) == game.value,
            "mixture_error_within_budget": max(game.error.values()) <= eps,
            "best_response_cannot_beat_value": response >= nu,
            "adversary_certifies_value": nu - eps * Fraction(sum(x[m:-1]), den)
            == sol.objective,
        }

    seed, _ = best_response(f, dict.fromkeys(dom, 1), None, tables=tables)
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
    tables = _split_tables(f)

    for depth in range(f.arity + 1):

        def price(x):
            return best_response(f, {}, dict(zip(dom, x[:m])), depth, tables=tables)

        def audit(sol, response, game):
            x, den = sol.x_int
            return {
                "lp_verified": sol.verified,
                "mixture_error_at_value": max(game.error.values()) == game.value,
                "depth_budget_respected": all(
                    tree_depth(tree) <= depth for tree, _ in game.support
                ),
                "best_response_cannot_beat_value": response >= Fraction(x[-1], den),
            }

        seed, _ = best_response(f, {}, dict.fromkeys(dom, 1), depth, tables=tables)
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
