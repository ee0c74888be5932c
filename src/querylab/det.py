"""Worst-case deterministic measures, and the split search behind every tree.

_split_search is the one memoized search for optimal decision trees, used by
det_complexity here and by games.best_response.  A state is the set of
domain inputs still consistent with the answers seen so far, held as an int
bitmask of domain indices: two states with the same set (and the same depth
budget left) have the same continuation value, and querying a position on
which the set agrees is never useful, so positions that fail to split the
set are skipped.  A set whose inputs share one label is a leaf of cost 0,
answered before the memo and never stored in it.  Any other set may stop
at the caller's leaf rule, the cost and label of stopping there anyway (or
forbidden), or query a position: a query at s costs weight(s) plus a fold
of the values of the parts it splits s into.  det_complexity uses weight 1
and folds by max and forbids erring leaves; a best response uses the set's
query weight, the sum of its inputs' cost weights, and folds by sum.  A
part with infinite value rules its query out.  Ties keep the leaf, then the
lowest position; children follow the alphabet's symbol order.

Three cuts keep the search from pricing queries that cannot win:
  * a position's parts stop being folded once weight(s) plus the fold so
    far reaches the best cost so far;
  * no position of s is tried when weight(s) already reaches its leaf cost;
  * the scan over positions stops once the best cost equals weight(s).
The last two are one test, made before each position: the best cost so far
minus weight(s) is the cap that the position's fold must stay below.  The
cuts rest on every value being nonnegative (best_response rejects negative
weights), so a fold never falls and no cut drops a strictly cheaper
position.  A query is kept only when strictly cheaper, so values, trees and
tie-breaks are those of the search without cuts (tests/oracles.py keeps it
as the reference).  A cut only skips parts; each part it does price is
priced in full, so every memo entry is the exact value of its set.  The
memo key is the bare mask, or (mask, budget left) under a depth budget.

C and sabotage read core.subcube_labels: entry i is the mask of labels (bit
j for f.labels()[j]) met in the subcube of the pattern whose base-(k+1)
numeral is i, first position most significant, over f's k symbol ranks and
the top digit k for a free position.  At a free digit an entry ORs the k
patterns fixing it, which have smaller indices, so one increasing pass fills
the table.  C(x) is the fewest fixed positions of a pattern through x whose
mask is x's label; bs flips block b of x as x ^ b on int(x, 2).
"""

from __future__ import annotations

from fractions import Fraction
from math import inf

from .core import RANK_DIGITS, SYMBOL_RANK, AuditError, subcube_labels
from .lp import LinearProgram, solve_lp
from .trees import Leaf, Node


def _members(s):
    """Domain indices in the bitmask s, lowest first."""
    while s:
        low = s & -s
        yield low.bit_length() - 1
        s ^= low


def _split_tables(f):
    """The split search's tables of f: (labels, same_label, branches, splits).

    labels[k] is the label of domain input k and same_label[k] the mask of
    the inputs sharing it; branches[i] lists (symbol, mask of the inputs
    with that symbol at position i) in alphabet order, and splits[i] those
    masks alone.  They depend on f only, so a game builds them once for all
    its best responses.
    """
    dom = f.domain
    labels = [f.table[x] for x in dom]
    label_masks = {}
    for k, label in enumerate(labels):
        label_masks[label] = label_masks.get(label, 0) | 1 << k
    same_label = [label_masks[label] for label in labels]
    branches = []
    for i in range(f.arity):
        per = {}
        for k, x in enumerate(dom):
            per[x[i]] = per.get(x[i], 0) | 1 << k
        branches.append([(a, per[a]) for a in f.alphabet if a in per])
    splits = [[mask for _, mask in pairs] for pairs in branches]
    return labels, same_label, branches, splits


def _split_search(f, leaf_rule, query_weights=None, depth_budget=None, *, tables=None):
    """Cheapest tree over f's nonempty domain; returns (cost, tree).

    leaf_rule(s) gives (cost, label) for stopping on a set s whose labels
    disagree, or is None to forbid that.  Without query_weights a query costs
    1 plus the largest value of its parts; with them, nonnegative ints per
    domain index, it costs their sum over s plus the sum of its parts'
    values.  depth_budget, when given, caps the depth.  tables, when given,
    is _split_tables(f), built by the caller.  The tree is None when the
    cost is infinite.
    """
    labels, same_label, branches, splits = tables or _split_tables(f)
    worst_case = query_weights is None
    memo = {}  # key: the set, or (set, budget left) under a depth budget

    def value(s, budget):
        low = (s & -s).bit_length() - 1
        if s & same_label[low] == s:
            return 0, None, labels[low]
        key = s if budget is None else (s, budget)
        got = memo.get(key)
        if got is not None:
            return got
        cost, label = (inf, None) if leaf_rule is None else leaf_rule(s)
        best = (cost, None, label)
        if budget != 0:
            weight = 1 if worst_case else sum([query_weights[k] for k in _members(s)])
            next_budget = None if budget is None else budget - 1
            for i, split in enumerate(splits):
                cap = best[0] - weight  # the parts' fold must stay below it
                if cap <= 0:
                    break
                parts = [part for mask in split if (part := s & mask)]
                if len(parts) < 2:
                    continue
                fold = 0
                for part in parts:
                    sub = value(part, next_budget)[0]
                    if worst_case:
                        if sub > fold:
                            fold = sub
                    else:
                        fold += sub
                    if fold >= cap:
                        break
                else:
                    best = (weight + fold, i, None)
        memo[key] = best
        return best

    def build(s, budget):
        _, position, label = value(s, budget)
        if position is None:
            return Leaf(label)
        next_budget = None if budget is None else budget - 1
        children = {}
        for a, mask in branches[position]:
            if s & mask:
                children[a] = build(s & mask, next_budget)
        return Node(position, children)

    full = (1 << len(f.domain)) - 1
    cost = value(full, depth_budget)[0]
    return cost, None if cost == inf else build(full, depth_budget)


def det_complexity(f, with_tree=False):
    """Minimum worst-case query count of a deterministic tree computing f.

    Empty domain costs 0.  With with_tree=True also returns an optimal tree
    (lowest splitting position first on ties), or None for the empty domain.
    """
    if not f.domain:
        return (0, None) if with_tree else 0
    depth, tree = _split_search(f, None)
    return (depth, tree) if with_tree else depth


def certificate_complexity(f):
    """Smallest certificate size per input, and the max over the domain."""
    table, k = subcube_labels(f), len(f.alphabet)
    per_input = {}
    for x in f.domain:
        at = int(x.translate(RANK_DIGITS), k + 1)
        cells = [(at, f.arity)]  # (pattern through x, fixed positions)
        for i, s in enumerate(x):
            step = (k - SYMBOL_RANK[s]) * (k + 1) ** (f.arity - 1 - i)
            cells += [(p + step, fixed - 1) for p, fixed in cells]
        per_input[x] = min(fixed for p, fixed in cells if table[p] == table[at])
    return max(per_input.values(), default=0), per_input


def _sensitive(f):
    """Sensitive blocks of each input, smallest first, ties in position order."""
    if f.alphabet != "01" or any(len(v) != 1 for v in f.table.values()):
        raise ValueError("block sensitivity is defined for Boolean functions only")
    n = f.arity
    cells = [f.table.get(format(i, f"0{n}b")) for i in range(1 << n)]
    order = sorted(range(1, 1 << n), key=lambda b: (b.bit_count(), -b))
    return {x: [b for b in order if cells[int(x, 2) ^ b] not in (None, f.table[x])]
            for x in f.domain}


def _minimal(blocks):
    """Blocks with no sensitive proper subset; blocks come smallest first."""
    out = []
    for b in blocks:
        for m in out:
            if m & b == m:
                break
        else:
            out.append(b)
    return out


def _pack(blocks, used=0):
    """Largest number of pairwise disjoint masks, by exhaustive packing."""
    best = 0
    for i, b in enumerate(blocks):
        if not b & used:
            best = max(best, 1 + _pack(blocks[i + 1:], used | b))
    return best


def _positions(n, b):
    return frozenset(i for i in range(n) if b >> (n - 1 - i) & 1)


def sensitive_blocks(f, x):
    """All nonempty position sets whose flip stays in the domain and changes f."""
    return [_positions(f.arity, b) for b in _sensitive(f)[x]]


def minimal_sensitive_blocks(f, x):
    return [_positions(f.arity, b) for b in _minimal(_sensitive(f)[x])]


def max_disjoint(blocks):
    """Largest number of pairwise disjoint blocks, by exhaustive packing."""
    return _pack([sum(1 << i for i in b) for b in blocks])


def block_sensitivity(f):
    """Max number of disjoint sensitive blocks, per input and overall."""
    per_input = {x: _pack(_minimal(bl)) for x, bl in _sensitive(f).items()}
    return max(per_input.values(), default=0), per_input


def fractional_block_sensitivity(f):
    """LP relaxation of block sensitivity, per input and overall.

    At input x: maximize total weight over sensitive blocks subject to each
    position carrying at most weight 1.
    """
    n = f.arity
    per_input = {}
    for x, blocks in _sensitive(f).items():
        if not blocks:
            per_input[x] = Fraction(0)
            continue
        rows = [([b >> (n - 1 - i) & 1 for b in blocks], "<=", 1) for i in range(n)]
        sol = solve_lp(LinearProgram("max", [1] * len(blocks), rows))
        if sol.status != "optimal":
            raise AuditError(f"block-packing LP at {x!r} is {sol.status}")
        per_input[x] = sol.objective
    return max(per_input.values(), default=Fraction(0)), per_input
