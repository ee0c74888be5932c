"""Measure dispatch, caching, limits, and report shape."""

import hashlib
import json
import os
from fractions import Fraction

import pytest

from querylab import (
    ENGINE_VERSION,
    LimitExceeded,
    MeasureContext,
    MeasureError,
    enumerate_functions,
    parse_function,
    parse_measure,
)
from querylab.harness import MEASURE_NAMES


def test_parse_measure_specs():
    assert parse_measure("D", Fraction(1, 3)) == ("D", None, "D")
    assert parse_measure("Rbar", Fraction(1, 3)) == ("Rbar", Fraction(1, 3), "Rbar(1/3)")
    assert parse_measure("Rbar(1/4)", Fraction(1, 3)) == (
        "Rbar", Fraction(1, 4), "Rbar(1/4)")
    assert parse_measure("Rwc(0)", Fraction(1, 3)) == ("Rwc", Fraction(0), "Rwc(0)")
    assert parse_measure(" RS ", Fraction(1, 3))[2] == "RS"


@pytest.mark.parametrize("bad", ["Q", "D(1/3)", "Rbar(x)", "Rbar()", "", "R0(1/2/3)"])
def test_parse_measure_errors(bad):
    with pytest.raises(MeasureError):
        parse_measure(bad, Fraction(1, 3))


def test_measure_values_and_types():
    ctx = MeasureContext()
    or2 = parse_function("tt:2:0111")
    assert ctx.measure(or2, "D") == 2
    assert isinstance(ctx.measure(or2, "D"), int)
    assert ctx.measure(or2, "RS") == Fraction(3, 2)
    assert ctx.measure(or2, "RSu") == Fraction(3, 2)
    assert ctx.measure(or2, "DS") == 2
    assert ctx.measure(or2, "C") == 2
    assert ctx.measure(or2, "bs") == 2
    assert ctx.measure(or2, "RC") == 2
    assert ctx.measure(or2, "R0") == 2
    assert ctx.measure(or2, "Rbar", Fraction(1, 4)) == 1
    assert ctx.measure(or2, "Rwc") == 1  # default eps 1/3


def test_measure_accepts_literals():
    ctx = MeasureContext()
    assert ctx.measure("tt:1:01", "RS") == 1


def test_empty_sabotage_measures_are_zero():
    ctx = MeasureContext()
    const = parse_function("tt:2:1111")
    assert ctx.measure(const, "RS") == 0
    assert ctx.measure(const, "RSu") == 0
    assert ctx.measure(const, "DS") == 0


def test_report_shape():
    ctx = MeasureContext()
    report = ctx.report("tt:2:0111", ["D", "RS", "Rbar(1/4)"])
    assert report["function"] == "tt:2:0111"
    assert report["engine_version"] == ENGINE_VERSION
    assert report["measures"] == {"D": "2", "RS": "3/2", "Rbar(1/4)": "1"}
    assert isinstance(report["elapsed_ms"], int)
    certs = report["certificates"]
    assert "optimal_tree" in certs["D"]
    assert certs["RS"]["sabotaged_function"].startswith("ext:2:")
    assert "hard_distribution" in certs["RS"]
    mixture = certs["RS"]["optimal_mixture"]
    assert sum(Fraction(m["weight"]) for m in mixture) == 1
    # rationals are rendered without a trailing /1
    for v in report["measures"].values():
        assert not v.endswith("/1")


def test_hard_distribution_roundtrip():
    ctx = MeasureContext()
    or2 = parse_function("tt:2:0111")
    mu = ctx.hard_distribution(or2, 0)
    assert sum(mu.values()) == 1
    assert all(isinstance(w, Fraction) for w in mu.values())


def test_audits_are_collected_once():
    ctx = MeasureContext()
    or2 = parse_function("tt:2:0111")
    ctx.measure(or2, "RS")
    n = len(ctx.audits)
    assert n >= 1
    ctx.measure(or2, "RS")  # memo hit, no second audit
    assert len(ctx.audits) == n


def test_limits():
    ctx = MeasureContext(limit_arity=2)
    with pytest.raises(LimitExceeded):
        ctx.measure(parse_function("tt:3:01101001"), "D")
    tiny = MeasureContext(domain_cap=3)
    with pytest.raises(LimitExceeded):
        tiny.measure(parse_function("tt:2:0111"), "R0")


def test_disk_cache_round_trip(tmp_path):
    cache = str(tmp_path / "cache")
    first = MeasureContext(cache_dir=cache)
    report_a = first.report("tt:2:0111", ["RS", "D"])
    files = os.listdir(cache)
    assert len(files) == 2
    # a fresh context must reproduce the identical entry from disk
    second = MeasureContext(cache_dir=cache)
    report_b = second.report("tt:2:0111", ["RS", "D"])
    assert not second.audits  # nothing was recomputed
    a = {k: v for k, v in report_a.items() if k != "elapsed_ms"}
    b = {k: v for k, v in report_b.items() if k != "elapsed_ms"}
    assert a == b


def test_disk_cache_ignores_other_engine_versions(tmp_path):
    cache = str(tmp_path / "cache")
    ctx = MeasureContext(cache_dir=cache)
    ctx.report("tt:1:01", ["D"])
    (path,) = [os.path.join(cache, p) for p in os.listdir(cache)]
    with open(path) as handle:
        entry = json.load(handle)
    entry["engine_version"] = "0.0.0"
    entry["value"] = "99"
    with open(path, "w") as handle:
        json.dump(entry, handle)
    fresh = MeasureContext(cache_dir=cache)
    assert fresh.measure("tt:1:01", "D") == 1  # stale entry not trusted


def test_disk_cache_survives_corrupt_files(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    ctx = MeasureContext(cache_dir=str(cache))
    digest_path = ctx._cache_path(parse_function("tt:1:01"), "D")
    with open(digest_path, "w") as handle:
        handle.write("not json")
    assert ctx.measure("tt:1:01", "D") == 1


def test_cache_files_have_no_timing(tmp_path):
    cache = str(tmp_path / "cache")
    ctx = MeasureContext(cache_dir=cache)
    ctx.report("tt:2:0111", ["RS"])
    for name in os.listdir(cache):
        with open(os.path.join(cache, name)) as handle:
            entry = json.load(handle)
        assert "elapsed_ms" not in entry
        assert set(entry) == {
            "engine_version", "function", "measure", "value", "certificates",
        }


# The report bytes each engine version produces.  A change that alters any
# value, certificate or report field must bump ENGINE_VERSION (cached entries
# are keyed by it) and pin the new digest here.
REPORT_DIGESTS = {
    "0.2.0": "ac1ebf946cb26d273f1c33842a3383d7e78c2c2550f19370e30570edce7c3237",
}


def test_report_bytes_pinned_to_engine_version():
    ctx = MeasureContext()
    reports = []
    for f in [*enumerate_functions("all-total:2"), "tt:3:00010111"]:
        report = ctx.report(f, list(MEASURE_NAMES))
        del report["elapsed_ms"]
        reports.append(report)
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_DIGESTS.get(ENGINE_VERSION), (
        f"reports changed under engine version {ENGINE_VERSION}; bump it"
    )
