"""Independent reference implementations used to validate frozen test values.

Nothing here shares algorithms with the package: decision trees are
enumerated exhaustively instead of priced, mixtures are optimized with
scipy's float LP instead of exact column generation, the deterministic
recursion carries explicit assignments instead of memoized consistent
sets, and small LPs are solved by exact vertex enumeration instead of
simplex.  Expected values asserted by the test suite were produced (or
confirmed) by these oracles and then frozen.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np
from scipy.optimize import linprog


def oracle_det(f):
    """Deterministic complexity by direct recursion over assignments."""
    dom = f.domain

    def rec(assignment):
        cons = [
            x for x in dom
            if all(x[i] == s for i, s in assignment.items())
        ]
        if not cons:
            return 0
        if len({f(x) for x in cons}) == 1:
            return 0
        best = None
        for i in range(f.arity):
            if i in assignment:
                continue
            seen = {x[i] for x in cons}
            worst = 0
            for s in seen:
                child = dict(assignment)
                child[i] = s
                worst = max(worst, rec(child))
            cand = 1 + worst
            if best is None or cand < best:
                best = cand
        return best

    return rec({})


def enumerate_strategies(f, eps_zero, depth_budget=None, cap=200000):
    """All undominated deterministic strategies as (cost, error) vectors.

    Vectors are tuples over f.domain in canonical order.  With eps_zero
    the strategy may only stop on a unanimous set; otherwise it may stop
    anywhere with any output label.  Dominated moves (stopping late on a
    unanimous set, querying a position that does not split) are skipped;
    they never change the game value.
    """
    dom = f.domain
    index = {x: k for k, x in enumerate(dom)}
    labels = sorted(f.labels())
    m = len(dom)

    def rec(cons, budget):
        out = []
        live = sorted(cons)
        unanimous = len({f(x) for x in live}) == 1
        if unanimous:
            cost = [0] * m
            err = [0] * m
            return [(tuple(cost), tuple(err))]
        if not eps_zero:
            for label in labels:
                err = [0] * m
                for x in live:
                    if f(x) != label:
                        err[index[x]] = 1
                out.append((tuple([0] * m), tuple(err)))
        if budget is not None and budget == 0:
            return out
        next_budget = None if budget is None else budget - 1
        for i in range(f.arity):
            groups = {}
            for x in live:
                groups.setdefault(x[i], []).append(x)
            if len(groups) < 2:
                continue
            parts = [rec(frozenset(g), next_budget) for g in groups.values()]
            members = [[index[x] for x in g] for g in groups.values()]
            for combo in itertools.product(*parts):
                cost = [0] * m
                err = [0] * m
                for (sub_cost, sub_err), idxs in zip(combo, members):
                    for k in idxs:
                        cost[k] = 1 + sub_cost[k]
                        err[k] = sub_err[k]
                out.append((tuple(cost), tuple(err)))
                if len(out) > cap:
                    raise RuntimeError("strategy enumeration too large")
        return out

    raw = rec(frozenset(dom), depth_budget)
    return sorted(set(raw))


def oracle_game_value(f, eps):
    """Float value of the expected-cost game via scipy on all strategies."""
    strategies = enumerate_strategies(f, eps_zero=(eps == 0))
    m = len(f.domain)
    k = len(strategies)
    # variables: p_1..p_k, t; minimize t
    c = np.zeros(k + 1)
    c[-1] = 1.0
    rows = []
    rhs = []
    for xi in range(m):
        row = [float(cost[xi]) for cost, _ in strategies] + [-1.0]
        rows.append(row)
        rhs.append(0.0)
    if eps != 0:
        for xi in range(m):
            row = [float(err[xi]) for _, err in strategies] + [0.0]
            rows.append(row)
            rhs.append(float(eps))
    a_eq = [[1.0] * k + [0.0]]
    res = linprog(
        c,
        A_ub=np.array(rows),
        b_ub=np.array(rhs),
        A_eq=np.array(a_eq),
        b_eq=np.array([1.0]),
        bounds=[(0, None)] * k + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun


def oracle_worstcase_depth(f, eps, tol=1e-9):
    """Smallest depth whose best mixture errs at most eps on every input."""
    target = float(eps)
    for d in range(f.arity + 1):
        strategies = enumerate_strategies(f, eps_zero=False, depth_budget=d)
        m = len(f.domain)
        k = len(strategies)
        c = np.zeros(k + 1)
        c[-1] = 1.0
        rows = []
        for xi in range(m):
            rows.append([float(err[xi]) for _, err in strategies] + [-1.0])
        res = linprog(
            c,
            A_ub=np.array(rows),
            b_ub=np.zeros(m),
            A_eq=np.array([[1.0] * k + [0.0]]),
            b_eq=np.array([1.0]),
            bounds=[(0, None)] * k + [(None, None)],
            method="highs",
        )
        assert res.status == 0, res.message
        if res.fun <= target + tol:
            return d
    raise RuntimeError("no depth within arity achieved the target error")


def oracle_lp_vertices(sense, objective, rows):
    """Exact LP optimum by vertex enumeration over basis subsets.

    rows are (coeffs, relation, rhs) with nonnegative variables only.
    Only suitable for small full-rank systems; returns the optimal
    objective as a Fraction, or None if no feasible vertex exists.
    """
    n = len(objective)
    columns = [[Fraction(r[0][j]) for r in rows] for j in range(n)]
    rels = [r[1] for r in rows]
    rhs = [Fraction(r[2]) for r in rows]
    m = len(rows)
    slack_cols = []
    for i, rel in enumerate(rels):
        if rel == "=":
            continue
        col = [Fraction(0)] * m
        col[i] = Fraction(1) if rel == "<=" else Fraction(-1)
        slack_cols.append(col)
    all_cols = columns + slack_cols
    costs = [Fraction(c) for c in objective] + [Fraction(0)] * len(slack_cols)
    best = None
    for basis in itertools.combinations(range(len(all_cols)), m):
        mat = [[all_cols[j][i] for j in basis] for i in range(m)]
        sol = _solve_square(mat, rhs)
        if sol is None or any(v < 0 for v in sol):
            continue
        value = sum(costs[j] * v for j, v in zip(basis, sol))
        if best is None:
            best = value
        elif sense == "min":
            best = min(best, value)
        else:
            best = max(best, value)
    return best


def oracle_fractional_bs(f, x):
    """Fractional block sensitivity of a Boolean f at x, from scratch.

    Flips every nonempty set of positions of x by integer masks; a flip that
    lands in the domain on another label is a sensitive block.  The packing
    LP (weight per block, at most 1 through each position) is solved by
    vertex enumeration.
    """
    n = f.arity
    blocks = []
    for mask in range(1, 2**n):
        y = "".join(str(int(c) ^ (mask >> i & 1)) for i, c in enumerate(x))
        if y in f.domain and f(y) != f(x):
            blocks.append(mask)
    if not blocks:
        return Fraction(0)
    rows = [([b >> i & 1 for b in blocks], "<=", 1) for i in range(n)]
    return oracle_lp_vertices("max", [1] * len(blocks), rows)


def oracle_verify(solution, lp):
    """The LP audit in Fraction arithmetic, row by row and variable by variable.

    Checks what LPSolution.verify checks, in the same order, on the rational
    program as given.  Returns None when every check holds, else the
    message of the first check that fails.
    """
    if solution.status != "optimal":
        return "verify applies to optimal solutions"
    x = [Fraction(v) for v in solution.x]
    y = [Fraction(v) for v in solution.duals]
    rows = [
        ([Fraction(a) for a in coeffs], rel, Fraction(rhs)) for coeffs, rel, rhs in lp.rows
    ]
    objective = [Fraction(c) for c in lp.objective]
    if len(x) != len(objective) or len(y) != len(rows):
        return "solution length does not match the program"
    for j, xv in enumerate(x):
        if j not in lp.free_vars and xv < 0:
            return f"x[{j}] negative"
    mx = 1 if lp.sense == "min" else -1
    for i, (coeffs, rel, rhs) in enumerate(rows):
        lhs = sum((a * xv for a, xv in zip(coeffs, x)), Fraction(0))
        if rel == "<=":
            if lhs > rhs:
                return f"row {i} violated"
            if mx * y[i] > 0:
                return f"dual sign on row {i}"
        elif rel == ">=":
            if lhs < rhs:
                return f"row {i} violated"
            if mx * y[i] < 0:
                return f"dual sign on row {i}"
        elif lhs != rhs:
            return f"row {i} violated"
        if y[i] * (lhs - rhs) != 0:
            return f"complementary slackness on row {i}"
    for j in range(len(objective)):
        reduced = objective[j] - sum(
            (rows[i][0][j] * y[i] for i in range(len(rows))), Fraction(0)
        )
        if j in lp.free_vars:
            if reduced != 0:
                return f"dual constraint on free var {j}"
        elif mx * reduced < 0:
            return f"dual constraint on var {j}"
        elif x[j] * reduced != 0:
            return f"complementary slackness on var {j}"
    primal = sum((c * xv for c, xv in zip(objective, x)), Fraction(0))
    dual = sum((y[i] * rows[i][2] for i in range(len(rows))), Fraction(0))
    if primal != dual:
        return "strong duality failed"
    if primal != Fraction(solution.objective):
        return "reported objective mismatch"
    return None


def _solve_square(mat, rhs):
    """Gaussian elimination over Fractions; None when singular."""
    m = len(mat)
    a = [row[:] + [rhs[i]] for i, row in enumerate(mat)]
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col] != 0), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(m):
            if r != col and a[r][col] != 0:
                factor = a[r][col]
                a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return [a[r][m] for r in range(m)]
