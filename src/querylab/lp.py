"""Exact rational linear programming by two-phase revised simplex.

Everything is exact; there is no floating point and no tolerance anywhere.
The simplex itself runs on Python ints: the rows are scaled to integers and
the basis inverse is kept as an integer adjugate over its determinant,
updated by the fraction-free pivot of Edmonds, "Systems of distinct
representatives and linear algebra" (1967) and Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination" (1968).
Rationals appear only in the solution and the duals read off at the end.
Pivoting uses Bland's rule, so the solver terminates on degenerate programs
and is fully deterministic: identical input yields the identical basis,
solution, and duals.  Every optimal solve re-checks primal feasibility, dual
feasibility, complementary slackness, and strong duality on the original
rational program before returning; a failure of any of these is a solver bug
and raises AuditError.

Variables are nonnegative unless listed in free_vars.  Duals follow the
standard sign conventions:

  sense=min: y_i >= 0 on '>=' rows, y_i <= 0 on '<=' rows, free on '='
  sense=max: y_i >= 0 on '<=' rows, y_i <= 0 on '>=' rows, free on '='

and satisfy objective == sum_i y_i * rhs_i exactly at optimum.
"""

from __future__ import annotations

from math import lcm

from .core import AuditError
from .rational import ZERO, ONE, as_rat, rat

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
    """Fraction-free revised simplex for min c.x, A x = b, x >= 0, b >= 0.

    Live rows are scaled to integers by their sign times the lcm of their
    denominators, the costs by the lcm of theirs.  B^-1 is kept as the integer
    adjugate adj = det * B^-1 over det > 0, with x_num = adj . b.  A pivot on
    d = adj . a_j at row l sets adj[r] = (adj[r] d[l] - d[r] adj[l]) // det for
    r != l, then det = d[l]; Sylvester's identity makes each division exact
    (Edmonds 1967, Bareiss 1968).  Positive row scales change no reduced-cost
    sign and no ratio order, so the pivots are those of the rational simplex.
    """

    def __init__(self, lp, dropped):
        self.lp = lp
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
        self.cost_scale = lcm(*(int(c.denominator) for c in lp.objective))
        self.costs = []
        for j in range(lp.n_vars):
            pos, neg = self.var_cols[j]
            c = self.sense_sign * _scaled(lp.objective[j], self.cost_scale)
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
            scale = sign * lcm(int(rhs.denominator), *(int(a.denominator) for a in coeffs))
            self.row_scales.append(scale)
            self.x_num.append(_scaled(rhs, scale))
            for j in range(lp.n_vars):
                pos, neg = self.var_cols[j]
                a = self.columns[pos][k] = _scaled(coeffs[j], scale)
                if neg is not None:
                    self.columns[neg][k] = -a
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
        raise RuntimeError("simplex did not terminate (pivot cap reached)")

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
            # only a drive-out pivot can be negative; keep det > 0
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
        return None

    def phase2(self):
        return self._run(self.costs, range(self.n_structural))

    def original_x(self):
        values = dict(zip(self.basis, self.x_num))
        x = []
        for j in range(self.lp.n_vars):
            pos, neg = self.var_cols[j]
            v = values.get(pos, 0)
            if neg is not None:
                v -= values.get(neg, 0)
            x.append(rat(v, self.det))
        return x

    def original_duals(self):
        y = self._prices(self.costs)
        den = self.det * self.cost_scale
        duals = [ZERO] * len(self.lp.rows)
        for k, i in enumerate(self.live_rows):
            duals[i] = rat(self.sense_sign * y[k] * self.row_scales[k], den)
        return duals


def _scaled(q, scale):
    """The integer q * scale, for a rational q whose denominator divides scale."""
    return int(q.numerator) * (scale // int(q.denominator))
