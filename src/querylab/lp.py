"""Exact rational linear programming by two-phase revised simplex.

Everything is exact; there is no floating point and no tolerance anywhere.
A program's entries are ints and Fractions; the solution, duals and
objective are Fractions.  Between the two everything runs on Python ints:
each row, the costs, x and the duals are put over one denominator by
rational.common, and the basis inverse is kept as an integer adjugate over
its determinant, updated by the fraction-free pivot of Edmonds, "Systems of
distinct representatives and linear algebra" (1967) and Bareiss,
"Sylvester's identity and multistep integer-preserving Gaussian elimination"
(1968).
Pivoting uses Bland's rule, so the solver terminates on degenerate programs
and is fully deterministic: identical input yields the identical basis,
solution, and duals.

A program keeps the tableau of its last optimal solve.  Inequality rows
appended by LinearProgram.add_row border that tableau with their slacks, so
the old basis stays dual feasible, and the next solve_lp restores primal
feasibility by the dual simplex (Lemke 1954) instead of starting cold.  This
is how column generation grows one restricted master.

Every optimal solve, cold or resumed, re-checks primal feasibility, dual
feasibility, complementary slackness, and strong duality on the original
rational program before returning, in integer arithmetic and without the
tableau; a failure of any of these is a solver bug and raises AuditError.

Variables are nonnegative unless listed in free_vars.  Duals follow the
standard sign conventions:

  sense=min: y_i >= 0 on '>=' rows, y_i <= 0 on '<=' rows, free on '='
  sense=max: y_i >= 0 on '<=' rows, y_i <= 0 on '>=' rows, free on '='

and satisfy objective == sum_i y_i * rhs_i exactly at optimum.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .core import AuditError, LimitExceeded
from .rational import as_rat, common

RELATIONS = ("<=", "=", ">=")

_MAX_PIVOTS = 200000


class LinearProgram:
    """min or max of objective . x subject to rows (coeffs, rel, rhs)."""

    def __init__(self, sense, objective, rows, free_vars=()):
        if sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
        self.sense = sense
        self.objective = [_exact(c) for c in objective]
        self.rows = []
        self._tableau = None
        for coeffs, rel, rhs in rows:
            self.add_row(coeffs, rel, rhs)
        self.free_vars = frozenset(free_vars)
        if any(not 0 <= j < self.n_vars for j in self.free_vars):
            raise ValueError("free variable index out of range")

    def add_row(self, coeffs, rel, rhs):
        """Append the row coeffs . x rel rhs.

        After an optimal solve, an inequality row borders the kept tableau
        and the next solve_lp resumes from it; an equality row discards the
        tableau, so the next solve starts cold.
        """
        if rel not in RELATIONS:
            raise ValueError(f"unknown relation {rel!r}")
        if len(coeffs) != self.n_vars:
            raise ValueError("row length does not match objective length")
        row = ([_exact(a) for a in coeffs], rel, _exact(rhs))
        self.rows.append(row)
        if self._tableau is not None:
            if rel == "=":
                self._tableau = None
            else:
                self._tableau.add_row(len(self.rows) - 1, row)

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

        Runs on ints: each row, x, the duals and the costs are put over
        common denominators, and every condition is compared with those
        positive scales cleared.  Returns True, or raises AuditError naming
        the first check that fails.
        """
        if self.status != "optimal":
            raise AuditError("verify applies to optimal solutions")
        x, y = self.x, self.duals
        if len(x) != lp.n_vars or len(y) != len(lp.rows):
            raise AuditError("solution length does not match the program")
        # x = X / x_den, y_i = Y_i / y_den, row i = (A_i, B_i) / s_i, c = C / c_den
        X, x_den = common(x)
        for j, xv in enumerate(X):
            if j not in lp.free_vars and xv < 0:
                raise AuditError(f"x[{j}] negative")
        Y, y_den = common(y)
        scales, int_rows = [], []
        for coeffs, _, rhs in lp.rows:
            ints, s = common([*coeffs, rhs])
            scales.append(s)
            int_rows.append((ints[:-1], ints[-1]))
        # y_i a_i = Z_i A_i / (y_den top), with Z_i = Y_i (top / s_i)
        top = lcm(*scales)
        Z = [v * (top // s) for v, s in zip(Y, scales)]
        mx = 1 if lp.sense == "min" else -1
        for i, ((A, B), (_, rel, _)) in enumerate(zip(int_rows, lp.rows)):
            lhs, rhs = sum([a * v for a, v in zip(A, X)]), B * x_den
            if rel == "<=":
                if lhs > rhs:
                    raise AuditError(f"row {i} violated")
                if mx * Z[i] > 0:
                    raise AuditError(f"dual sign on row {i}")
            elif rel == ">=":
                if lhs < rhs:
                    raise AuditError(f"row {i} violated")
                if mx * Z[i] < 0:
                    raise AuditError(f"dual sign on row {i}")
            elif lhs != rhs:
                raise AuditError(f"row {i} violated")
            if Z[i] and lhs != rhs:
                raise AuditError(f"complementary slackness on row {i}")
        # reduced costs times c_den y_den top: C_j y_den top - c_den sum_i Z_i A_ij
        C, c_den = common(lp.objective)
        priced = [0] * lp.n_vars
        for z, (A, _) in zip(Z, int_rows):
            if z:
                priced = [u + z * a for u, a in zip(priced, A)]
        for j in range(lp.n_vars):
            reduced = C[j] * y_den * top - c_den * priced[j]
            if j in lp.free_vars:
                if reduced != 0:
                    raise AuditError(f"dual constraint on free var {j}")
            elif mx * reduced < 0:
                raise AuditError(f"dual constraint on var {j}")
            elif X[j] and reduced:
                raise AuditError(f"complementary slackness on var {j}")
        # c . x = primal / (c_den x_den) and y . b = dual / (y_den top)
        primal = sum([c * v for c, v in zip(C, X)])
        dual = sum([z * B for z, (_, B) in zip(Z, int_rows)])
        if primal * y_den * top != dual * c_den * x_den:
            raise AuditError("strong duality failed")
        objective = self.objective
        if primal * objective.denominator != objective.numerator * c_den * x_den:
            raise AuditError("reported objective mismatch")
        return True


def solve_lp(lp):
    """Solve exactly; returns an LPSolution with status optimal/infeasible/unbounded.

    A program solved before resumes from its kept tableau by the dual
    simplex; any other starts cold.  An optimal solution has passed verify,
    which sets its verified flag.
    """
    tab = lp._tableau
    if tab is None:
        solution = _solve(lp, frozenset())
    elif tab.dual_simplex():
        solution = _optimum(lp, tab)
    else:
        lp._tableau = None
        solution = LPSolution("infeasible")
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
    return _optimum(lp, tab)


def _optimum(lp, tab):
    """The optimal solution of an optimal tableau, which lp keeps for add_row."""
    lp._tableau = tab
    return LPSolution(
        "optimal",
        x=tab.original_x(),
        duals=tab.original_duals(len(lp.rows)),
        objective=tab.original_objective(),
    )


class _Tableau:
    """Fraction-free revised simplex for min c.x, A x = b, x >= 0.

    Live rows are scaled to integers by a sign times the lcm of their
    denominators, the costs by the lcm of theirs.  B^-1 is kept as the integer
    adjugate adj = det * B^-1 over det > 0, with x_num = adj . b.  A pivot on
    d = adj . a_j at row l sets adj[r] = (adj[r] d[l] - d[r] adj[l]) // det for
    r != l, then det = d[l]; Sylvester's identity makes each division exact
    (Edmonds 1967, Bareiss 1968).  Positive row scales change no reduced-cost
    sign and no ratio order, so the pivots are those of the rational simplex.

    A cold start signs each row so that b >= 0 and runs phase 1 over the
    artificials of its '=' and '>=' rows, which are dropped once driven out.
    add_row then borders an optimal basis with a new inequality row, signed
    so that its slack enters with +1: with r_B the row's entries on the basic
    columns, adj becomes [[adj, 0], [-r_B . adj, det]] and det is unchanged.
    The prices are unchanged too, so the basis stays dual feasible, and
    dual_simplex pivots until x_num >= 0: the leaving row is the negative one
    of lowest basic index, the entering column the lowest index of least
    ratio, which is Bland's rule on the dual.  Pivots of the primal simplex
    are positive; drive-out and dual-simplex pivots may be negative, and then
    adj, x_num and det are negated together to keep det > 0.
    """

    def __init__(self, lp, dropped):
        self.sense_sign = 1 if lp.sense == "min" else -1

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

        self.live_rows = live = [i for i in range(len(lp.rows)) if i not in dropped]
        self.m = m = len(live)
        self.columns = [[0] * m for _ in range(n_cols)]
        costs, self.cost_scale = common(lp.objective)
        self.costs = []
        for c, (_, neg) in zip(costs, self.var_cols):
            c *= self.sense_sign
            self.costs.append(c)
            if neg is not None:
                self.costs.append(-c)

        self.x_num = []
        self.row_scales = []
        basis = []
        art_rows = []
        for k, i in enumerate(live):
            coeffs, rel, rhs = lp.rows[i]
            sign = 1 if rhs >= 0 else -1
            self.x_num.append(self._set_row(k, coeffs, rhs, sign))
            eff = rel if sign > 0 else {"<=": ">=", ">=": "<=", "=": "="}[rel]
            if eff == "<=":
                col = [0] * m
                col[k] = 1
                self.columns.append(col)
                self.costs.append(0)
                basis.append(len(self.columns) - 1)
            else:
                if eff == ">=":
                    col = [0] * m
                    col[k] = -1
                    self.columns.append(col)
                    self.costs.append(0)
                basis.append(None)
                art_rows.append(k)

        self.n_structural = len(self.columns)
        self.artificials = set()
        # The artificial of row k stands for |scale_k| unscaled units, so it
        # costs top / |scale_k|: phase 1 minimizes the unscaled sum, times top.
        top = lcm(*(self.row_scales[k] for k in art_rows))
        self.phase1_costs = [0] * self.n_structural
        for k in art_rows:
            col = [0] * m
            col[k] = 1
            self.columns.append(col)
            self.costs.append(0)
            self.phase1_costs.append(top // abs(self.row_scales[k]))
            basis[k] = len(self.columns) - 1
            self.artificials.add(basis[k])
        self.basis = basis
        self.in_basis = set(basis)
        self.adj = [[int(r == c) for c in range(m)] for r in range(m)]
        self.det = 1

    def _set_row(self, k, coeffs, rhs, sign):
        """Write row k over one denominator, times sign, into the columns.

        Records the row's scale, sign times that denominator, and returns
        the row's scaled right-hand side.
        """
        ints, scale = common([*coeffs, rhs])
        self.row_scales.append(sign * scale)
        for a, (pos, neg) in zip(ints, self.var_cols):
            a *= sign
            self.columns[pos][k] = a
            if neg is not None:
                self.columns[neg][k] = -a
        return sign * ints[-1]

    def _prices(self, costs):
        """y = c_B . adj: the simplex multipliers times det."""
        y = [0] * self.m
        for k, row in enumerate(self.adj):
            c = costs[self.basis[k]]
            if c:
                y = [u + c * v for u, v in zip(y, row)]
        return y

    def _column(self, j):
        """d = adj . a_j: the entering column in the current basis, times det."""
        col = self.columns[j]
        return [sum([v * a for v, a in zip(row, col)]) for row in self.adj]

    def _run(self, costs, allowed):
        for _ in range(_MAX_PIVOTS):
            y = self._prices(costs)
            det = self.det
            entering = None
            for j in allowed:
                if j in self.in_basis:
                    continue
                # reduced cost c_j - y.a_j / det < 0, cleared of det > 0
                if costs[j] * det < sum([u * a for u, a in zip(y, self.columns[j])]):
                    entering = j
                    break
            if entering is None:
                return True
            d = self._column(entering)
            x = self.x_num
            leaving = None
            for r in range(self.m):
                if d[r] > 0:
                    if leaving is None:
                        leaving = r
                        continue
                    # ratio x[r] / d[r] against the best, cross-multiplied
                    lhs, rhs = x[r] * d[leaving], x[leaving] * d[r]
                    if lhs < rhs or (lhs == rhs and self.basis[r] < self.basis[leaving]):
                        leaving = r
            if leaving is None:
                return False
            self._pivot(entering, leaving, d)
        raise LimitExceeded("simplex did not terminate (pivot cap reached)")

    def _pivot(self, entering, leaving, d):
        det, piv = self.det, d[leaving]
        adj, x = self.adj, self.x_num
        pivot_row, x_l = adj[leaving], x[leaving]
        for r in range(self.m):
            if r == leaving:
                continue
            f = d[r]
            if f:
                adj[r] = [(v * piv - f * w) // det for v, w in zip(adj[r], pivot_row)]
            elif piv != det:
                adj[r] = [v * piv // det for v in adj[r]]
            x[r] = (x[r] * piv - f * x_l) // det
        self.det = piv
        if piv < 0:
            # a drive-out or dual-simplex pivot; keep det > 0
            self.adj = [[-v for v in row] for row in adj]
            self.x_num = [-v for v in x]
            self.det = -piv
        self.in_basis.discard(self.basis[leaving])
        self.in_basis.add(entering)
        self.basis[leaving] = entering

    def phase1(self):
        if not self.artificials:
            return True
        costs = self.phase1_costs
        if not self._run(costs, range(self.n_structural)):
            raise AuditError("phase 1 cannot be unbounded")
        return sum(costs[j] * v for j, v in zip(self.basis, self.x_num)) == 0

    def drive_out_artificials(self):
        """Pivot basic artificials out; returns a redundant original row index or None."""
        for r in range(self.m):
            if self.basis[r] not in self.artificials:
                continue
            for j in range(self.n_structural):
                if j in self.in_basis:
                    continue
                if sum([v * a for v, a in zip(self.adj[r], self.columns[j])]):
                    # basic artificial sits at zero, so this pivot is degenerate
                    if self.x_num[r] != 0:
                        raise AuditError("basic artificial left at a nonzero value")
                    self._pivot(j, r, self._column(j))
                    break
            else:
                return self.live_rows[r]
        del self.columns[self.n_structural :]
        del self.costs[self.n_structural :]
        return None

    def phase2(self):
        return self._run(self.costs, range(len(self.columns)))

    def add_row(self, i, row):
        """Border the optimal basis with row i of the program and its slack."""
        coeffs, rel, rhs = row
        for col in self.columns:
            col.append(0)
        b = self._set_row(self.m, coeffs, rhs, 1 if rel == "<=" else -1)
        r_b = [self.columns[j][-1] for j in self.basis]
        border = [0] * self.m
        for r, row in zip(r_b, self.adj):
            if r:
                border = [u - r * v for u, v in zip(border, row)]
        for row in self.adj:
            row.append(0)
        border.append(self.det)
        self.adj.append(border)
        self.x_num.append(self.det * b - sum([r * v for r, v in zip(r_b, self.x_num)]))
        self.columns.append([0] * self.m + [1])
        self.costs.append(0)
        self.basis.append(len(self.columns) - 1)
        self.in_basis.add(self.basis[-1])
        self.live_rows.append(i)
        self.m += 1

    def dual_simplex(self):
        """From a dual-feasible basis, pivot to x_num >= 0; False if infeasible."""
        costs = self.costs
        for _ in range(_MAX_PIVOTS):
            x, basis = self.x_num, self.basis
            leaving = None
            for r in range(self.m):
                if x[r] < 0 and (leaving is None or basis[r] < basis[leaving]):
                    leaving = r
            if leaving is None:
                return True
            row, y, det = self.adj[leaving], self._prices(costs), self.det
            entering = None
            for j, col in enumerate(self.columns):
                if j in self.in_basis:
                    continue
                a = -sum([v * c for v, c in zip(row, col)])
                if a <= 0:
                    continue
                # reduced cost (>= 0) over a, against the best, cross-multiplied
                reduced = costs[j] * det - sum([u * c for u, c in zip(y, col)])
                if entering is None or reduced * best_a < best_reduced * a:
                    entering, best_reduced, best_a = j, reduced, a
            if entering is None:
                return False
            self._pivot(entering, leaving, self._column(entering))
        raise LimitExceeded("dual simplex did not terminate (pivot cap reached)")

    def original_x(self):
        values = dict(zip(self.basis, self.x_num))
        zero = Fraction(0)
        x = []
        for pos, neg in self.var_cols:
            v = values.get(pos, 0)
            if neg is not None:
                v -= values.get(neg, 0)
            x.append(Fraction(v, self.det) if v else zero)
        return x

    def original_objective(self):
        value = sum([self.costs[j] * v for j, v in zip(self.basis, self.x_num)])
        return Fraction(self.sense_sign * value, self.det * self.cost_scale)

    def original_duals(self, n_rows):
        y = self._prices(self.costs)
        den = self.det * self.cost_scale
        duals = [Fraction(0)] * n_rows
        for k, i in enumerate(self.live_rows):
            duals[i] = Fraction(self.sense_sign * y[k] * self.row_scales[k], den)
        return duals


def _exact(value):
    """An int as it is, anything else through the as_rat guard."""
    return value if type(value) is int else as_rat(value)
