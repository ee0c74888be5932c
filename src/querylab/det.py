"""Worst-case deterministic measures, and the split search behind every tree.

_split_search is the one memoized search for optimal decision trees, used by
det_complexity here and by games.best_response.  A state is the set of
domain inputs still consistent with the answers seen so far, held as an int
bitmask of domain indices: two states with the same set (and the same depth
budget left) have the same continuation value, and querying a position on
which the set agrees is never useful, so positions that fail to split the
set are skipped.  A set whose inputs share one label is a leaf of cost 0.
Any other set is priced by two caller rules: the leaf rule, the cost and
label of stopping there anyway (or forbidden), and the combine rule, the
cost of querying a position from the values of the parts it splits the set
into.  det_complexity combines by 1 + max and forbids erring leaves; a best
response adds the set's query weight to the sum of the parts.  A part with
infinite value rules its query out.  Ties keep the leaf, then the lowest
position; children follow the alphabet's symbol order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import inf

from .core import AuditError
from .lp import LinearProgram, solve_lp
from .trees import Leaf, Node


def _members(s):
    """Domain indices in the bitmask s, lowest first."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def _split_search(f, leaf_rule, combine, depth_budget=None):
    """Cheapest tree over f's nonempty domain; returns (cost, tree).

    leaf_rule(s) gives (cost, label) for stopping on a set s whose labels
    disagree, or is None to forbid that.  combine(s, values) gives the cost
    of a query splitting s into parts of these values.  depth_budget, when
    given, caps the depth.  The tree is None when the cost is infinite.
    """
    dom = f.domain
    labels = [f.table[x] for x in dom]
    label_masks = {}
    for k, label in enumerate(labels):
        label_masks[label] = label_masks.get(label, 0) | 1 << k
    branches = []
    for i in range(f.arity):
        per = {}
        for k, x in enumerate(dom):
            per[x[i]] = per.get(x[i], 0) | 1 << k
        branches.append([(a, per[a]) for a in f.alphabet if a in per])
    memo = {}

    def value(s, budget):
        key = (s, budget)
        got = memo.get(key)
        if got is not None:
            return got
        label = labels[(s & -s).bit_length() - 1]
        if s & label_masks[label] == s:
            best = (0, None, label)
        else:
            cost, label = (inf, None) if leaf_rule is None else leaf_rule(s)
            best = (cost, None, label)
        if best[0] != 0 and budget != 0:
            next_budget = None if budget is None else budget - 1
            for i, pairs in enumerate(branches):
                parts = [s & mask for _, mask in pairs if s & mask]
                if len(parts) < 2:
                    continue
                values = []
                for part in parts:
                    sub = value(part, next_budget)[0]
                    if sub == inf:
                        break
                    values.append(sub)
                else:
                    cost = combine(s, values)
                    if cost < best[0]:
                        best = (cost, i, None)
        memo[key] = best
        return best

    def build(s, budget):
        _, position, label = memo[(s, budget)]
        if position is None:
            return Leaf(label)
        next_budget = None if budget is None else budget - 1
        children = {}
        for a, mask in branches[position]:
            if s & mask:
                children[a] = build(s & mask, next_budget)
        return Node(position, children)

    full = (1 << len(dom)) - 1
    cost = value(full, depth_budget)[0]
    return cost, None if cost == inf else build(full, depth_budget)


def det_complexity(f, with_tree=False):
    """Minimum worst-case query count of a deterministic tree computing f.

    Empty domain costs 0.  With with_tree=True also returns an optimal tree
    (lowest splitting position first on ties), or None for the empty domain.
    """
    if not f.domain:
        return (0, None) if with_tree else 0
    depth, tree = _split_search(f, None, lambda s, values: 1 + max(values))
    return (depth, tree) if with_tree else depth


def _certifies(f, x, positions):
    """Does revealing x at these positions pin the label down?"""
    label = f.table[x]
    for y in f.domain:
        if all(y[i] == x[i] for i in positions) and f.table[y] != label:
            return False
    return True


def certificate_complexity(f):
    """Smallest certificate size per input, and the max over the domain."""
    per_input = {}
    for x in f.domain:
        found = None
        for size in range(f.arity + 1):
            for positions in combinations(range(f.arity), size):
                if _certifies(f, x, positions):
                    found = size
                    break
            if found is not None:
                break
        per_input[x] = found
    overall = max(per_input.values(), default=0)
    return overall, per_input


def _require_boolean(f, what):
    if f.alphabet != "01" or any(len(v) != 1 for v in f.table.values()):
        raise ValueError(f"{what} is defined for Boolean functions only")


def sensitive_blocks(f, x):
    """All nonempty position sets whose flip stays in the domain and changes f."""
    _require_boolean(f, "block sensitivity")
    label = f.table[x]
    blocks = []
    for size in range(1, f.arity + 1):
        for positions in combinations(range(f.arity), size):
            block = frozenset(positions)
            y = "".join(
                ("1" if c == "0" else "0") if i in block else c
                for i, c in enumerate(x)
            )
            if y in f.table and f.table[y] != label:
                blocks.append(block)
    return blocks


def minimal_sensitive_blocks(f, x):
    blocks = sensitive_blocks(f, x)
    block_set = set(blocks)
    out = []
    for b in blocks:
        if not any(other < b for other in block_set):
            out.append(b)
    return out


def max_disjoint(blocks):
    """Largest number of pairwise disjoint blocks, by exhaustive packing."""
    ordered = sorted(blocks, key=lambda b: (len(b), sorted(b)))

    def rec(i, used):
        if i == len(ordered):
            return 0
        best = rec(i + 1, used)
        if not (ordered[i] & used):
            best = max(best, 1 + rec(i + 1, used | ordered[i]))
        return best

    return rec(0, frozenset())


def block_sensitivity(f):
    """Max number of disjoint sensitive blocks, per input and overall."""
    per_input = {}
    for x in f.domain:
        per_input[x] = max_disjoint(minimal_sensitive_blocks(f, x))
    overall = max(per_input.values(), default=0)
    return overall, per_input


def fractional_block_sensitivity(f):
    """LP relaxation of block sensitivity, per input and overall.

    At input x: maximize total weight over sensitive blocks subject to each
    position carrying at most weight 1.
    """
    per_input = {}
    for x in f.domain:
        blocks = sensitive_blocks(f, x)
        if not blocks:
            per_input[x] = Fraction(0)
            continue
        rows = []
        for i in range(f.arity):
            rows.append(([1 if i in b else 0 for b in blocks], "<=", 1))
        sol = solve_lp(LinearProgram("max", [1] * len(blocks), rows))
        if sol.status != "optimal":
            raise AuditError(f"block-packing LP at {x!r} is {sol.status}")
        per_input[x] = sol.objective
    overall = max(per_input.values(), default=Fraction(0))
    return overall, per_input
