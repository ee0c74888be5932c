"""Registry of verifiable relations between measures.

Each check is an exact inequality or identity evaluated over a family of
functions (or pairs of functions).  Checks share a MeasureContext, so a
verification sweep reuses every game solution and decision tree computed
along the way.  A check failure carries the offending function encodings
and both sides of the comparison as exact rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constructions import compose, direct_sum
from .core import enumerate_functions
from .games import best_response
from .rational import rat_str


@dataclass(frozen=True)
class TheoremCheck:
    check_id: str
    statement: str
    kind: str  # "function" or "pair"
    default_family: str
    run: callable


def _detail(**parts):
    rendered = {}
    for key, value in parts.items():
        if isinstance(value, (int, Fraction)):
            rendered[key] = rat_str(value)
        else:
            rendered[key] = value
    return rendered


def _check_ds_equals_d(ctx, f):
    ds = ctx.measure(f, "DS")
    d = ctx.measure(f, "D")
    return ds == d, _detail(DS=ds, D=d)


def _check_usab_equals_sab(ctx, f):
    rs = ctx.measure(f, "RS")
    rsu = ctx.measure(f, "RSu")
    return rs == rsu, _detail(RS=rs, RSu=rsu)


def _check_error_collapse(ctx, f):
    sab = ctx.sabotaged(f)
    if not sab.domain:
        return True, _detail(note="empty sabotage domain")
    r0 = ctx.measure(sab, "R0")
    rq = ctx.measure(sab, "Rbar", Fraction(1, 4))
    ok = r0 >= rq and 2 * rq >= r0
    return ok, _detail(R0=r0, Rbar_quarter=rq)


def _check_r0_dominates_rs(ctx, f):
    r0 = ctx.measure(f, "R0")
    rs = ctx.measure(f, "RS")
    return r0 >= rs, _detail(R0=r0, RS=rs)


def _check_direct_sum_doubling(ctx, f):
    doubled = direct_sum(f, 2)
    r0 = ctx.measure(f, "R0")
    r0_pair = ctx.measure(doubled, "R0")
    return r0_pair == 2 * r0, _detail(R0=r0, R0_pair=r0_pair)


def _check_product_distribution(ctx, f):
    # A best response against the product of two copies of the single-copy
    # hard distribution must already cost twice the single-copy value.
    doubled = direct_sum(f, 2)
    r0 = ctx.measure(f, "R0")
    mu = ctx.hard_distribution(f, 0)
    weights = {}
    for x, wx in mu.items():
        if wx == 0:
            continue
        for y, wy in mu.items():
            if wy == 0:
                continue
            weights[x + y] = wx * wy
    _, cost = best_response(doubled, weights)
    return cost == 2 * r0, _detail(R0=r0, product_cost=cost)


def _check_compose_lower(ctx, f, g):
    fg = compose(f, g)
    lhs = ctx.measure(fg, "RS")
    rhs = ctx.measure(f, "RS") * ctx.measure(g, "RS")
    return lhs >= rhs, _detail(RS_compose=lhs, RS_product=rhs)


def _check_compose_upper(ctx, f, g):
    fg = compose(f, g)
    lhs = ctx.measure(fg, "RS")
    rhs = ctx.measure(f, "RS") * ctx.measure(g, "R0")
    return lhs <= rhs, _detail(RS_compose=lhs, RS_times_R0=rhs)


def _check_compose_error(ctx, f, g):
    fg = compose(f, g)
    rs_g = ctx.measure(g, "RS")
    details = {}
    ok = True
    for eps in (Fraction(0), Fraction(1, 4)):
        if eps == 0:
            lhs = ctx.measure(fg, "R0")
            outer = ctx.measure(f, "R0")
        else:
            lhs = ctx.measure(fg, "Rbar", eps)
            outer = ctx.measure(f, "Rbar", eps)
        rhs = outer * rs_g
        ok = ok and lhs >= rhs
        tag = rat_str(eps)
        details[f"lhs_eps_{tag}"] = rat_str(lhs)
        details[f"rhs_eps_{tag}"] = rat_str(rhs)
    return ok, details


def _check_rs_vs_rc(ctx, f):
    rs = ctx.measure(f, "RS")
    rc = ctx.measure(f, "RC")
    return 4 * rs >= rc, _detail(RS=rs, RC=rc)


def _check_chain(ctx, f):
    bs = ctx.measure(f, "bs")
    rc = ctx.measure(f, "RC")
    c = ctx.measure(f, "C")
    r0 = ctx.measure(f, "R0")
    d = ctx.measure(f, "D")
    ok = bs <= rc <= c <= r0 <= d
    return ok, _detail(bs=bs, RC=rc, C=c, R0=r0, D=d)


def _check_duality_audit(ctx, f):
    if not f.domain:
        return True, _detail(note="empty domain")
    solution = ctx.game(f, 0)
    failed = sorted(k for k, v in solution.audit.items() if not v)
    return not failed, {"value": rat_str(solution.value), "failed_flags": failed}


REGISTRY = {
    check.check_id: check
    for check in (
        TheoremCheck(
            "T8.1",
            "deterministic sabotage complexity equals deterministic complexity",
            "function",
            "all-total:3",
            _check_ds_equals_d,
        ),
        TheoremCheck(
            "T3.5",
            "unique sabotage matches sabotage for total functions",
            "function",
            "all-total:3",
            _check_usab_equals_sab,
        ),
        TheoremCheck(
            "T3.2",
            "quarter-error expected cost is within a factor two of zero error"
            " on sabotaged functions",
            "function",
            "all-total:2",
            _check_error_collapse,
        ),
        TheoremCheck(
            "T3.4",
            "zero-error randomized complexity dominates sabotage complexity",
            "function",
            "all-total:3",
            _check_r0_dominates_rs,
        ),
        TheoremCheck(
            "T4.2",
            "zero-error complexity of two disjoint copies is exactly double",
            "function",
            "all-total:2",
            _check_direct_sum_doubling,
        ),
        TheoremCheck(
            "T4.2-PROD",
            "the product of single-copy hard distributions certifies the"
            " doubled value",
            "function",
            "all-total:2",
            _check_product_distribution,
        ),
        TheoremCheck(
            "T4.4",
            "sabotage complexity of a composition is at least the product",
            "pair",
            "compose-pairs:2x2",
            _check_compose_lower,
        ),
        TheoremCheck(
            "T4.5",
            "expected-cost complexity of a composition is at least the outer"
            " complexity times inner sabotage complexity",
            "pair",
            "compose-pairs:2x2",
            _check_compose_error,
        ),
        TheoremCheck(
            "T4.6",
            "sabotage complexity of a composition is at most outer sabotage"
            " times inner zero-error complexity",
            "pair",
            "compose-pairs:2x2",
            _check_compose_upper,
        ),
        TheoremCheck(
            "T7.2",
            "sabotage complexity is at least a quarter of fractional block"
            " sensitivity",
            "function",
            "all-total:3",
            _check_rs_vs_rc,
        ),
        TheoremCheck(
            "CHAIN",
            "block sensitivity <= fractional block sensitivity <= certificate"
            " complexity <= zero-error randomized <= deterministic",
            "function",
            "all-total:3",
            _check_chain,
        ),
        TheoremCheck(
            "YAO-DUAL",
            "every zero-error game solution passes its own duality audit",
            "function",
            "all-total:2",
            _check_duality_audit,
        ),
    )
}


class UnknownCheckError(KeyError):
    """A verify request named a check id that is not registered."""


def family_members(family, kind, limit_arity=4):
    """Resolve a family string to functions or (f, g) pairs."""
    if kind == "pair":
        if not family.startswith("compose-pairs:"):
            raise ValueError(f"pair checks need a compose-pairs family, got {family!r}")
        shape = family.split(":", 1)[1]
        left_text, _, right_text = shape.partition("x")
        if not (left_text.isdigit() and right_text.isdigit()):
            raise ValueError(f"bad compose-pairs shape {shape!r}")
        outer = list(enumerate_functions(f"nonconstant-total:{left_text}", limit_arity))
        inner = list(enumerate_functions(f"nonconstant-total:{right_text}", limit_arity))
        return [(f, g) for f in outer for g in inner]
    if family.startswith("compose-pairs:"):
        raise ValueError(f"check over single functions cannot use {family!r}")
    return list(enumerate_functions(family, limit_arity))


def run_checks(ctx, check_ids, family=None, max_counterexamples=5):
    """Run checks and return one verdict dict per check id, in request order."""
    results = []
    for check_id in check_ids:
        if check_id not in REGISTRY:
            raise UnknownCheckError(check_id)
        check = REGISTRY[check_id]
        fam = family if family is not None else check.default_family
        members = family_members(fam, check.kind, ctx.limit_arity)
        passed = 0
        counterexamples = []
        for member in members:
            if check.kind == "pair":
                ok, details = check.run(ctx, member[0], member[1])
                names = [member[0].encoding(), member[1].encoding()]
            else:
                ok, details = check.run(ctx, member)
                names = [member.encoding()]
            if ok:
                passed += 1
            elif len(counterexamples) < max_counterexamples:
                counterexamples.append({"functions": names, "details": details})
        results.append(
            {
                "check": check_id,
                "statement": check.statement,
                "family": fam,
                "total": len(members),
                "passed": passed,
                "failed": len(members) - passed,
                "counterexamples": counterexamples,
            }
        )
    return results
