"""Error-amplification and cost-truncation arithmetic.

Exact pieces (majority error, truncation caps, repetition costs) are computed
as rationals.  Formulas that involve a logarithm cannot be exact; those
return floats and are documented as advisory bounds.  Nothing here feeds the
exact engines; the theorem harness only ever asserts on the rational parts.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, floor, log

from .core import AuditError
from .rational import as_rat


def majority_error(eps, runs):
    """Exact error probability of a majority vote over independent runs.

    Each run is wrong with probability eps; the vote is wrong when at most
    half the runs are right.  runs must be odd (no ties).
    """
    eps = as_rat(eps)
    if not 0 <= eps < 1:
        raise ValueError(f"per-run error must lie in [0, 1), got {eps}")
    if not isinstance(runs, int) or runs < 1 or runs % 2 == 0:
        raise ValueError(f"run count must be an odd positive integer, got {runs!r}")
    total = Fraction(0)
    for correct in range((runs - 1) // 2 + 1):
        total = total + comb(runs, correct) * eps ** (runs - correct) * (
            1 - eps
        ) ** correct
    return total


def amplification_repetitions(eps, target):
    """Repetitions needed to push error eps below target by majority vote.

    Returns (advisory_bound, exact_count): the advisory float bound
    2*ln(1/target)/(1-2*eps)^2, and the smallest odd run count whose exact
    majority error is at most target.  The exact count never exceeds the
    bound rounded up to an odd integer.
    """
    eps = as_rat(eps)
    target = as_rat(target)
    if not 0 <= eps < Fraction(1, 2):
        raise ValueError(f"per-run error must lie in [0, 1/2), got {eps}")
    if not 0 < target <= eps:
        raise ValueError(f"target must lie in (0, eps], got {target}")
    bound = 2.0 * log(1.0 / float(target)) / (1.0 - 2.0 * float(eps)) ** 2
    runs = 1
    while majority_error(eps, runs) > target:
        runs += 2
    odd_ceiling = ceil(bound)
    if odd_ceiling % 2 == 0:
        odd_ceiling += 1
    if runs > odd_ceiling:
        raise AuditError("exact count exceeded the advisory bound")
    return bound, runs


def markov_truncation(expected_cost, delta):
    """Cut off an algorithm with expected cost T after floor(T/delta) queries.

    Returns (query_cap, success_lower_bound): the truncated run finishes
    within the cap with probability at least 1 - delta.
    """
    expected_cost = as_rat(expected_cost)
    delta = as_rat(delta)
    if expected_cost < 0:
        raise ValueError(f"expected cost must be nonnegative, got {expected_cost}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return floor(expected_cost / delta), 1 - delta


def repeat_cost(certificate_cost, eps):
    """Expected queries of repeat-until-certain: T per attempt, success 1-eps."""
    certificate_cost = as_rat(certificate_cost)
    eps = as_rat(eps)
    if certificate_cost < 0:
        raise ValueError(f"cost must be nonnegative, got {certificate_cost}")
    if not 0 <= eps < 1:
        raise ValueError(f"failure probability must lie in [0, 1), got {eps}")
    return certificate_cost / (1 - eps)


def expected_to_worstcase_factor(eps):
    """Multiplier turning an expected-cost bound into a worst-case-cost bound.

    At eps = 1/3 the factor is the exact constant 10; other eps get the
    advisory float 14*ln(1/eps)/(1-2*eps)^2.
    """
    eps = as_rat(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ValueError(f"error must lie in (0, 1/2), got {eps}")
    if eps == Fraction(1, 3):
        return Fraction(10)
    return 14.0 * log(1.0 / float(eps)) / (1.0 - 2.0 * float(eps)) ** 2
