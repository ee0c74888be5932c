"""Exact rational linear programming by two-phase revised simplex.

Everything runs on exact rationals; there is no floating point and no
tolerance anywhere.  Pivoting uses Bland's rule, so the solver terminates on
degenerate programs and is fully deterministic: identical input yields the
identical basis, solution, and duals.  Every optimal solve re-checks primal
feasibility, dual feasibility, complementary slackness, and strong duality
before returning; a failure of any of these is a solver bug and raises
AuditError.

Variables are nonnegative unless listed in free_vars.  Duals follow the
standard sign conventions:

  sense=min: y_i >= 0 on '>=' rows, y_i <= 0 on '<=' rows, free on '='
  sense=max: y_i >= 0 on '<=' rows, y_i <= 0 on '>=' rows, free on '='

and satisfy objective == sum_i y_i * rhs_i exactly at optimum.
"""

from __future__ import annotations

from .core import AuditError
from .rational import ZERO, ONE, as_rat

RELATIONS = ("<=", "=", ">=")

_MAX_PIVOTS = 200000


class LinearProgram:
    """min or max of objective . x subject to rows (coeffs, rel, rhs)."""

    def __init__(self, sense, objective, rows, free_vars=()):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        self.objective = [as_rat(c) for c in objective]
        self.rows = []
        n = len(self.objective)
        for coeffs, rel, rhs in rows:
            if rel not in RELATIONS:
                raise ValueError(f"unknown relation {rel!r}")
            if len(coeffs) != n:
                raise ValueError("row length does not match objective length")
            self.rows.append(([as_rat(a) for a in coeffs], rel, as_rat(rhs)))
        self.free_vars = frozenset(free_vars)
        if any(not 0 <= j < n for j in self.free_vars):
            raise ValueError("free variable index out of range")

    @property
    def n_vars(self):
        return len(self.objective)


class LPSolution:
    __slots__ = ("status", "x", "duals", "objective", "verified")

    def __init__(self, status, x=None, duals=None, objective=None):
        self.status = status
        self.x = x
        self.duals = duals
        self.objective = objective
        self.verified = False

    def __repr__(self):
        return f"LPSolution(status={self.status!r}, objective={self.objective!r})"

    def verify(self, lp):
        """Exact primal/dual feasibility, complementary slackness, strong duality.

        Returns True, or raises AuditError naming the first check that fails.
        """
        if self.status != "optimal":
            raise AuditError("verify applies to optimal solutions")
        x, y = self.x, self.duals
        if len(x) != lp.n_vars or len(y) != len(lp.rows):
            raise AuditError("solution length does not match the program")
        for j, xv in enumerate(x):
            if j not in lp.free_vars and xv < 0:
                raise AuditError(f"x[{j}] negative")
        mx = ONE if lp.sense == "min" else -ONE
        for i, (coeffs, rel, rhs) in enumerate(lp.rows):
            lhs = sum((a * xv for a, xv in zip(coeffs, x)), ZERO)
            if rel == "<=":
                if lhs > rhs:
                    raise AuditError(f"row {i} violated")
                if mx * y[i] > 0:
                    raise AuditError(f"dual sign on row {i}")
            elif rel == ">=":
                if lhs < rhs:
                    raise AuditError(f"row {i} violated")
                if mx * y[i] < 0:
                    raise AuditError(f"dual sign on row {i}")
            elif lhs != rhs:
                raise AuditError(f"row {i} violated")
            if y[i] * (lhs - rhs) != 0:
                raise AuditError(f"complementary slackness on row {i}")
        for j in range(lp.n_vars):
            reduced = lp.objective[j] - sum(
                (lp.rows[i][0][j] * y[i] for i in range(len(lp.rows))), ZERO
            )
            if j in lp.free_vars:
                if reduced != 0:
                    raise AuditError(f"dual constraint on free var {j}")
            elif mx * reduced < 0:
                raise AuditError(f"dual constraint on var {j}")
            elif x[j] * reduced != 0:
                raise AuditError(f"complementary slackness on var {j}")
        primal = sum((c * xv for c, xv in zip(lp.objective, x)), ZERO)
        dual = sum((y[i] * lp.rows[i][2] for i in range(len(lp.rows))), ZERO)
        if primal != dual:
            raise AuditError("strong duality failed")
        if primal != self.objective:
            raise AuditError("reported objective mismatch")
        return True


def solve_lp(lp):
    """Solve exactly; returns an LPSolution with status optimal/infeasible/unbounded.

    An optimal solution has passed verify, which sets its verified flag.
    """
    solution = _solve(lp, frozenset())
    if solution.status == "optimal":
        solution.verify(lp)
        solution.verified = True
    return solution


def check_feasible(lp):
    """Phase-1 feasibility test; returns (bool, witness x or None)."""
    tab = _Tableau(lp, frozenset())
    if not tab.phase1():
        return False, None
    return True, tab.original_x()


def _solve(lp, dropped):
    tab = _Tableau(lp, dropped)
    if not tab.phase1():
        return LPSolution("infeasible")
    redundant = tab.drive_out_artificials()
    if redundant is not None:
        # The row is implied by the others; solve without it, its dual is 0.
        return _solve(lp, dropped | {redundant})
    if not tab.phase2():
        return LPSolution("unbounded")
    x = tab.original_x()
    duals = tab.original_duals()
    objective = sum((c * xv for c, xv in zip(lp.objective, x)), ZERO)
    return LPSolution("optimal", x=x, duals=duals, objective=objective)


class _Tableau:
    """Revised simplex state for the internal form min c.x, A x = b, x >= 0, b >= 0."""

    def __init__(self, lp, dropped):
        self.lp = lp
        self.dropped = sorted(dropped)
        self.sense_sign = ONE if lp.sense == "min" else -ONE

        # Map original variables to internal columns; free vars split in two.
        self.var_cols = []
        n_cols = 0
        for j in range(lp.n_vars):
            if j in lp.free_vars:
                self.var_cols.append((n_cols, n_cols + 1))
                n_cols += 2
            else:
                self.var_cols.append((n_cols, None))
                n_cols += 1

        live = [i for i in range(len(lp.rows)) if i not in dropped]
        self.live_rows = live
        m = len(live)
        self.m = m
        self.columns = [[ZERO] * m for _ in range(n_cols)]
        self.costs = []
        for j in range(lp.n_vars):
            pos, neg = self.var_cols[j]
            c = self.sense_sign * lp.objective[j]
            self.costs.append(c)
            if neg is not None:
                self.costs.append(-c)

        self.b = []
        self.row_signs = []
        basis = []
        art_rows = []
        for k, i in enumerate(live):
            coeffs, rel, rhs = lp.rows[i]
            sign = ONE if rhs >= 0 else -ONE
            self.row_signs.append(sign)
            self.b.append(sign * rhs)
            for j in range(lp.n_vars):
                pos, neg = self.var_cols[j]
                self.columns[pos][k] = sign * coeffs[j]
                if neg is not None:
                    self.columns[neg][k] = -sign * coeffs[j]
            eff = rel if sign > 0 else {"<=": ">=", ">=": "<=", "=": "="}[rel]
            if eff == "<=":
                col = [ZERO] * m
                col[k] = ONE
                self.columns.append(col)
                self.costs.append(ZERO)
                basis.append(len(self.columns) - 1)
            else:
                if eff == ">=":
                    col = [ZERO] * m
                    col[k] = -ONE
                    self.columns.append(col)
                    self.costs.append(ZERO)
                basis.append(None)
                art_rows.append(k)

        self.n_structural = len(self.columns)
        self.artificials = set()
        for k in art_rows:
            col = [ZERO] * m
            col[k] = ONE
            self.columns.append(col)
            self.costs.append(ZERO)
            idx = len(self.columns) - 1
            self.artificials.add(idx)
            basis[k] = idx
        self.basis = basis
        self.in_basis = set(basis)
        self.b_inv = [[ONE if r == c else ZERO for c in range(m)] for r in range(m)]
        self.x_b = list(self.b)

    def _dual_vector(self, costs):
        return [
            sum((costs[self.basis[k]] * self.b_inv[k][i] for k in range(self.m)), ZERO)
            for i in range(self.m)
        ]

    def _run(self, costs, allowed):
        for _ in range(_MAX_PIVOTS):
            y = self._dual_vector(costs)
            entering = None
            for j in allowed:
                if j in self.in_basis:
                    continue
                reduced = costs[j] - sum(
                    (y[i] * self.columns[j][i] for i in range(self.m)), ZERO
                )
                if reduced < 0:
                    entering = j
                    break
            if entering is None:
                return True
            col = self.columns[entering]
            d = [
                sum((self.b_inv[r][i] * col[i] for i in range(self.m)), ZERO)
                for r in range(self.m)
            ]
            leaving = None
            best = None
            for r in range(self.m):
                if d[r] > 0:
                    ratio = self.x_b[r] / d[r]
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[r] < self.basis[leaving])
                    ):
                        best = ratio
                        leaving = r
            if leaving is None:
                return False
            self._pivot(entering, leaving, d, best)
        raise RuntimeError("simplex did not terminate (pivot cap reached)")

    def _pivot(self, entering, leaving, d, theta):
        for r in range(self.m):
            if r != leaving:
                self.x_b[r] -= theta * d[r]
        self.x_b[leaving] = theta
        piv = d[leaving]
        row = self.b_inv[leaving]
        if piv != 1:
            self.b_inv[leaving] = row = [v / piv for v in row]
        for r in range(self.m):
            if r != leaving and d[r] != 0:
                factor = d[r]
                self.b_inv[r] = [
                    v - factor * w for v, w in zip(self.b_inv[r], row)
                ]
        self.in_basis.discard(self.basis[leaving])
        self.in_basis.add(entering)
        self.basis[leaving] = entering

    def phase1(self):
        if not self.artificials:
            return True
        costs = [ZERO] * len(self.columns)
        for j in self.artificials:
            costs[j] = ONE
        allowed = range(self.n_structural)
        if not self._run(costs, allowed):
            raise AuditError("phase 1 cannot be unbounded")
        value = sum(
            (costs[self.basis[k]] * self.x_b[k] for k in range(self.m)), ZERO
        )
        return value == 0

    def drive_out_artificials(self):
        """Pivot basic artificials out; returns a redundant original row index or None."""
        for r in range(self.m):
            if self.basis[r] not in self.artificials:
                continue
            pivoted = False
            for j in range(self.n_structural):
                if j in self.in_basis:
                    continue
                d_r = sum(
                    (self.b_inv[r][i] * self.columns[j][i] for i in range(self.m)),
                    ZERO,
                )
                if d_r != 0:
                    d = [
                        sum(
                            (self.b_inv[k][i] * self.columns[j][i] for i in range(self.m)),
                            ZERO,
                        )
                        for k in range(self.m)
                    ]
                    # basic artificial sits at zero, so this pivot is degenerate
                    if self.x_b[r] != 0:
                        raise AuditError("basic artificial left at a nonzero value")
                    self._pivot(j, r, d, self.x_b[r] / d_r)
                    pivoted = True
                    break
            if not pivoted:
                return self.live_rows[r]
        return None

    def phase2(self):
        allowed = range(self.n_structural)
        return self._run(self.costs, allowed)

    def original_x(self):
        values = {}
        for k in range(self.m):
            values[self.basis[k]] = self.x_b[k]
        x = []
        for j in range(self.lp.n_vars):
            pos, neg = self.var_cols[j]
            v = values.get(pos, ZERO)
            if neg is not None:
                v = v - values.get(neg, ZERO)
            x.append(v)
        return x

    def original_duals(self):
        y_int = self._dual_vector(self.costs)
        duals = [ZERO] * len(self.lp.rows)
        for k, i in enumerate(self.live_rows):
            duals[i] = self.sense_sign * self.row_signs[k] * y_int[k]
        return duals
