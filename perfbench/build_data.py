"""Writes data/population.json: the sampling strata and the frozen references.

    python3 perfbench/build_data.py

Run from the repository root, against the querylab sources under src/ that
the reference values should come from.  It takes several minutes.

Ranking: each candidate item runs once in a fresh MeasureContext while the
simplex pivots are weighed by the size of the basis update they make
(rows x (rows + columns)).  That weight is deterministic, so a rebuild on
the same code writes the same file.  Items are stored sorted by it;
workloads.py cuts them into strata.

compose-eps leaves out the pairs whose check needs more than COMPOSE_CAP
units of simplex work, about 3 s on the 2-core host the data was first
built on.  On that code they are 44 of the 196 2x2 pairs, whose eps = 1/4
games take from about 8 s to over 2 min each (longer than a whole benchmark
run), and 14 of the 1,016 1x3 and 3x1 pairs.

References: one value per NPN orbit and measure, taken from the first
member met (for det-sweep4, the orbit's smallest truth table).  Every later
member must give the same value, which tests the invariance the benchmark
relies on.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import npn
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from querylab import lp  # noqa: E402
from querylab.constructions import compose  # noqa: E402
from querylab.harness import MeasureContext  # noqa: E402
from querylab.registry import REGISTRY, family_members  # noqa: E402

COMPOSE_SHAPES = ("1x1", "1x2", "2x1", "2x2", "1x3", "3x1")
COMPOSE_CAP = 1_000_000
ALL_MEASURES = workloads.SCAN_MEASURES.split(",")


class TooCostly(Exception):
    pass


class Meter:
    """Weighs simplex pivots; raises TooCostly past the cap.

    It hooks the solver's private tableau, so it works only on code that
    still pivots through `lp._Tableau._pivot`.
    """

    def __init__(self):
        self.units = 0
        self.cap = None
        self._pivot = lp._Tableau._pivot
        meter = self

        def pivot(tab, *args):
            meter.units += tab.m * (tab.m + len(tab.columns))
            if meter.cap is not None and meter.units > meter.cap:
                raise TooCostly
            return meter._pivot(tab, *args)

        lp._Tableau._pivot = pivot

    def measure(self, fn, cap=None):
        self.units, self.cap = 0, cap
        try:
            return fn(), self.units
        finally:
            self.cap = None


def main():
    ids = {n: npn.orbit_ids(n) for n in (1, 2, 3, 4)}

    def cls(lit):
        n, table = npn.table_of(lit)
        return f"{n}:{ids[n][table]}"

    meter = Meter()
    refs = {}

    def record(key, values):
        """Keep the first value seen per orbit; every later one must equal it."""
        have = refs.setdefault(key, {})
        for measure, value in values.items():
            value = str(value)
            if Fraction(have.setdefault(measure, value)) != Fraction(value):
                raise SystemExit(f"{measure} is not constant on orbit {key}")

    # compose-eps
    check = REGISTRY["T4.5"].run
    quarter = Fraction(1, 4)
    ranked, excluded = [], 0
    for shape in COMPOSE_SHAPES:
        for f, g in family_members(f"compose-pairs:{shape}", "pair"):
            ctx = MeasureContext()
            try:
                (ok, _), units = meter.measure(lambda: check(ctx, f, g), COMPOSE_CAP)
            except TooCostly:
                excluded += 1
                continue
            if not ok:
                raise SystemExit(f"T4.5 fails on {f.encoding()} {g.encoding()}")
            fg = compose(f, g)
            keys = (cls(fg.encoding()), cls(f.encoding()), cls(g.encoding()))
            for key, h in zip(keys[:2], (fg, f)):
                record(key, {"R0": ctx.measure(h, "R0"),
                             "Rbar(1/4)": ctx.measure(h, "Rbar", quarter)})
            record(keys[2], {"RS": ctx.measure(g, "RS")})
            ranked.append((units, f.encoding(), g.encoding(), *keys))
        print(f"compose {shape}: {len(ranked)} kept, {excluded} over the cap", flush=True)
    compose_ranked = sorted(ranked)

    # scan-cache
    ranked = []
    for table in range(256):
        lit = npn.literal(3, table)
        key = cls(lit)
        report, units = meter.measure(
            lambda: MeasureContext().report(lit, ALL_MEASURES))
        record(key, report["measures"])
        ranked.append((units, lit, key))
    print("scan: ranked 256 functions", flush=True)
    scan_ranked = sorted(ranked)

    # det-sweep4: every orbit, with its size and smallest table.
    orbits = []
    for orbit in range(max(ids[4]) + 1):
        key, table = f"4:{orbit}", ids[4].index(orbit)
        report = MeasureContext().report(npn.literal(4, table), workloads.DET_MEASURES)
        record(key, report["measures"])
        orbits.append([table, ids[4].count(orbit), key])
    print(f"det4: {len(orbits)} orbits", flush=True)

    data = {
        "classes": {k: refs[k] for k in sorted(refs, key=_key_order)},
        "compose": {"cap_units": COMPOSE_CAP, "excluded": excluded,
                    "ranked": compose_ranked},
        "scan": {"ranked": scan_ranked},
        "det4": {"orbits": orbits},
    }
    path = ROOT / "perfbench" / "data" / "population.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    print(f"wrote {path}")


def _key_order(key):
    n, orbit = key.split(":")
    return int(n), int(orbit)


if __name__ == "__main__":
    main()
