"""The three workloads: seeded inputs, one round of work, checked outputs.

A round is a fixed amount of work that starts from empty caches: a fresh
MeasureContext (and, for scan-cache, an empty cache directory).  The seed
picks the inputs once; every round of a run repeats the same inputs, so the
rounds of a run are repeats of one measurement and the counts of a traced
round repeat exactly.

Inputs are drawn from frozen strata (data/population.json, written by
build_data.py) so that every seed gets the same mix of cheap and costly
items:
  * compose-eps and scan-cache: the population is ranked by the simplex work
    of each item on the code the data was built from and cut into strata
    (see `draw`); the seed draws one item per stratum.
  * det-sweep4: each NPN orbit of 4-bit functions gets a fixed quota
    proportional to its size; the seed draws the quota's members by random
    orbit transforms, so orbits repeat as they do in a uniform sample.
Every measure checked here is NPN-invariant, so each value is compared with
the frozen reference of its orbit, whatever the seed.
"""

import contextlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field
from fractions import Fraction

import npn

COMPOSE_PAIRS = 24
DET_FUNCTIONS = 500
SCAN_FUNCTIONS = 16
DET_MEASURES = ["D", "DS", "C", "bs"]
SCAN_WARM = 50
SCAN_MEASURES = "D,DS,C,bs,RC,R0,RS,RSu,Rbar(1/4),Rwc(1/3)"


@dataclass
class Round:
    wall_s: float = 0.0
    latencies: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    cold_s: float = None
    cache_files: int = 0
    cache_bytes: int = 0


def draw(rng, ranked, count):
    """One item from each of `count` strata of a population ranked by work.

    Each stratum carries an equal share of the summed square roots of the
    work, so costly items sit in narrow strata and every seed draws a
    similar total.
    """
    weights = [math.sqrt(item[0]) for item in ranked]
    total, acc, bounds = sum(weights), 0.0, [0]
    for i, weight in enumerate(weights):
        acc += weight
        if len(bounds) < count and acc >= total * len(bounds) / count:
            bounds.append(i + 1)
    bounds.append(len(ranked))
    picks = [rng.choice(ranked[a:b])[1:] for a, b in zip(bounds, bounds[1:]) if a < b]
    rng.shuffle(picks)
    return picks


def _quotas(sizes):
    """DET_FUNCTIONS split in proportion to sizes, largest remainders first."""
    total = sum(sizes)
    quotas = [DET_FUNCTIONS * s // total for s in sizes]
    by_remainder = sorted(range(len(sizes)), key=lambda k: -(DET_FUNCTIONS * sizes[k] % total))
    for k in by_remainder[:DET_FUNCTIONS - sum(quotas)]:
        quotas[k] += 1
    return quotas


def _mismatches(values, expected):
    """Names whose value differs from the exact reference."""
    return [
        name for name, ref in expected.items()
        if name not in values or Fraction(values[name]) != Fraction(ref)
    ]


def _failed_audits(audits):
    return [spec for _, spec, audit in audits if not all(audit.values())]


def _run_items(rnd, items, body, rec):
    """Time body(item) for each item; a failure is a problem string or a raise."""
    clock = time.perf_counter
    for k, item in enumerate(items):
        if rec is not None:
            rec.item = k
        start = clock()
        try:
            problem = body(item)
        except Exception as exc:  # an item that raises is a failed item
            problem = f"raised {exc!r}"
        rnd.latencies.append(clock() - start)
        rnd.attempted += 1
        if problem:
            rnd.failures.append(f"item {k}: {problem}")


class ComposeEps:
    """Registry check T4.5 on stratified compose pairs, one shared context."""

    min_rounds = 2

    def __init__(self, data, rng, q, scratch):
        self.q = q
        refs = data["classes"]
        self.items = []
        for f_lit, g_lit, fg_cls, f_cls, g_cls in draw(rng, data["compose"]["ranked"], COMPOSE_PAIRS):
            rs_g = Fraction(refs[g_cls]["RS"])
            expected = {
                "lhs_eps_0": refs[fg_cls]["R0"],
                "rhs_eps_0": str(Fraction(refs[f_cls]["R0"]) * rs_g),
                "lhs_eps_1/4": refs[fg_cls]["Rbar(1/4)"],
                "rhs_eps_1/4": str(Fraction(refs[f_cls]["Rbar(1/4)"]) * rs_g),
            }
            self.items.append((f_lit, g_lit, expected))

    def run_round(self, rec):
        q = self.q
        rnd = Round()
        start = time.perf_counter()
        ctx = q.harness.MeasureContext()
        check = q.registry.REGISTRY["T4.5"].run
        if rec is not None:
            check = rec.wrap("registry.check", check)

        def body(item):
            f_lit, g_lit, expected = item
            f = q.core.parse_function(f_lit)
            g = q.core.parse_function(g_lit)
            seen = len(ctx.audits)
            ok, details = check(ctx, f, g)
            problems = [] if ok else ["T4.5 failed"]
            problems += [f"audit {s}" for s in _failed_audits(ctx.audits[seen:])]
            problems += [f"{n} != reference" for n in _mismatches(details, expected)]
            return "; ".join(problems)

        _run_items(rnd, self.items, body, rec)
        rnd.wall_s = time.perf_counter() - start
        return rnd

    def close(self):
        pass


class DetSweep4:
    """MeasureContext.report(f, [D, DS, C, bs]) on 4-bit total functions."""

    min_rounds = 1

    def __init__(self, data, rng, q, scratch):
        self.q = q
        refs = data["classes"]
        maps = npn.transforms(4)
        orbits = data["det4"]["orbits"]
        self.items = []
        for (rep, _, cls), quota in zip(orbits, _quotas([size for _, size, _ in orbits])):
            expected = {m: refs[cls][m] for m in DET_MEASURES}
            for _ in range(quota):
                table = npn.apply(4, rep, rng.choice(maps))
                self.items.append((npn.literal(4, table), expected))
        rng.shuffle(self.items)

    def run_round(self, rec):
        q = self.q
        rnd = Round()
        start = time.perf_counter()
        ctx = q.harness.MeasureContext()

        def body(item):
            literal, expected = item
            report = ctx.report(literal, DET_MEASURES)
            problems = [f"{n} != reference" for n in _mismatches(report["measures"], expected)]
            if report["function"] != literal:
                problems.append("report names another function")
            return "; ".join(problems)

        _run_items(rnd, self.items, body, rec)
        problems = _failed_audits(ctx.audits)
        if problems:
            rnd.failures.append(f"audits {problems}")
        rnd.wall_s = time.perf_counter() - start
        return rnd

    def close(self):
        pass


class ScanCache:
    """qlab scan of ten measures: one cold scan, then warm scans of the cache."""

    min_rounds = 2

    def __init__(self, data, rng, q, scratch):
        self.q = q
        refs = data["classes"]
        picks = draw(rng, data["scan"]["ranked"], SCAN_FUNCTIONS)
        self.literals = [lit for lit, _ in picks]
        self.expected = [refs[cls] for _, cls in picks]
        self.cache_dir = os.path.join(scratch, f"cache-{os.getpid()}")
        self._reset_cache()
        self.argv = [
            "scan", "--family", "named:" + ";".join(self.literals),
            "--measures", SCAN_MEASURES, "--format", "json",
            "--cache-dir", self.cache_dir,
        ]
        # Every context the CLI builds, so that its audits can be checked.
        self.contexts = []
        contexts = self.contexts

        class RecordedContext(q.harness.MeasureContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                contexts.append(self)

        q.cli.MeasureContext = RecordedContext

    def _reset_cache(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        os.makedirs(self.cache_dir)

    def _scan(self):
        """Run the scan; returns (problems, reports without elapsed_ms)."""
        self.contexts.clear()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.q.cli.main(self.argv)
        if code != 0:
            return [f"exit code {code}"], None
        payload = json.loads(out.getvalue())
        reports = payload if isinstance(payload, list) else [payload]
        for report in reports:
            report.pop("elapsed_ms", None)
        problems = [
            f"audit {s}" for c in self.contexts for s in _failed_audits(c.audits)
        ]
        return problems, reports

    def run_round(self, rec):
        rnd = Round()
        self._reset_cache()
        start = time.perf_counter()
        if rec is not None:
            rec.item = -1
        problems, cold = self._scan()
        rnd.cold_s = time.perf_counter() - start
        rnd.attempted += 1
        if cold is not None:
            if [r["function"] for r in cold] != self.literals:
                problems.append("cold scan lists other functions")
            for literal, report, expected in zip(self.literals, cold, self.expected):
                problems += [
                    f"{literal} {n} != reference"
                    for n in _mismatches(report["measures"], expected)
                ]
        if problems:
            rnd.failures.append("cold scan: " + "; ".join(problems))
        for entry in os.scandir(self.cache_dir):
            if entry.name.endswith(".json"):
                rnd.cache_files += 1
                rnd.cache_bytes += entry.stat().st_size

        def body(_):
            problems, warm = self._scan()
            if warm is not None and warm != cold:
                problems.append("warm report differs from the cold one")
            return "; ".join(problems)

        _run_items(rnd, range(SCAN_WARM), body, rec)
        rnd.wall_s = time.perf_counter() - start
        return rnd

    def close(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {
    "compose-eps": ComposeEps,
    "det-sweep4": DetSweep4,
    "scan-cache": ScanCache,
}
