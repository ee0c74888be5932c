"""CLI surface: formats, exit codes, caching, and parallel scans."""

import json
import os

import pytest

from querylab import enumerate_functions
from querylab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_measure_text(capsys):
    code, out, _ = run(capsys, "measure", "tt:1:01", "--measures", "RS")
    assert code == 0
    assert "RS = 1" in out.splitlines()


def test_measure_json(capsys):
    code, out, _ = run(
        capsys, "measure", "tt:2:0111", "--measures", "D,RS,Rbar(1/4)",
        "--format", "json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["function"] == "tt:2:0111"
    assert report["measures"] == {"D": "2", "RS": "3/2", "Rbar(1/4)": "1"}
    assert "certificates" in report and "elapsed_ms" in report


def test_measure_csv_multiple_functions(capsys):
    code, out, _ = run(
        capsys, "measure", "tt:1:01", "tt:1:10", "--measures", "D,RS",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "function,D,RS"
    assert lines[1] == "tt:1:01,1,1"
    assert lines[2] == "tt:1:10,1,1"


def test_measure_eps_flag_sets_default(capsys):
    code, out, _ = run(
        capsys, "measure", "tt:2:0111", "--measures", "Rbar",
        "--eps", "1/4", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["measures"] == {"Rbar(1/4)": "1"}


def test_measure_parse_error_exit_2(capsys):
    code, _, err = run(capsys, "measure", "tt:2:011", "--measures", "D")
    assert code == 2 and "error" in err


def test_measure_unknown_measure_exit_2(capsys):
    code, _, _ = run(capsys, "measure", "tt:1:01", "--measures", "ZZ")
    assert code == 2


def test_measure_limit_exit_3(capsys):
    code, _, err = run(
        capsys, "measure", "tt:5:" + "0" * 31 + "1", "--measures", "D",
    )
    assert code == 3 and "limit" in err


def test_verify_ok(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorems", "T8.1,T3.5", "--family", "all-total:1",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    assert all("4/4 passed OK" in line for line in lines)


def test_verify_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--theorems", "CHAIN", "--family", "all-total:2",
        "--format", "json",
    )
    assert code == 0
    (result,) = json.loads(out)
    assert result["check"] == "CHAIN"
    assert result["passed"] == 16


def test_verify_unknown_theorem_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--theorems", "T99")
    assert code == 2 and "unknown check" in err


def test_verify_failure_exit_1(capsys, monkeypatch):
    from querylab.registry import REGISTRY, TheoremCheck

    fake = TheoremCheck(
        "FAKE", "always fails", "function", "all-total:1",
        lambda ctx, f: (False, {}),
    )
    monkeypatch.setitem(REGISTRY, "FAKE", fake)
    code, out, _ = run(capsys, "verify", "--theorems", "FAKE")
    assert code == 1
    assert "0/4 passed FAIL" in out


def test_scan_csv(capsys):
    code, out, _ = run(
        capsys, "scan", "--family", "all-total:1", "--measures", "D,RS,R0",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "function,D,RS,R0"
    assert lines[1] == "tt:1:00,0,0,0"
    assert lines[2] == "tt:1:01,1,1,1"
    assert lines[4] == "tt:1:11,0,0,0"


def test_scan_out_file(capsys, tmp_path):
    path = tmp_path / "scan.csv"
    code, out, _ = run(
        capsys, "scan", "--family", "all-total:1", "--measures", "D",
        "--format", "csv", "--out", str(path),
    )
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[0] == "function,D"


def test_scan_unwritable_out_exit_4(capsys, tmp_path):
    code, _, err = run(
        capsys, "scan", "--family", "all-total:1", "--measures", "D",
        "--out", str(tmp_path / "missing" / "x.csv"),
    )
    assert code == 4 and "io error" in err


def test_scan_jobs_match_serial(capsys):
    code, serial, _ = run(
        capsys, "scan", "--family", "all-total:2", "--measures", "D,bs",
        "--format", "csv",
    )
    assert code == 0
    code, parallel, _ = run(
        capsys, "scan", "--family", "all-total:2", "--measures", "D,bs",
        "--format", "csv", "--jobs", "2",
    )
    assert code == 0
    assert serial == parallel


def test_scan_jobs_keep_audits(capsys, monkeypatch):
    import querylab.cli

    contexts = []

    class Recording(querylab.cli.MeasureContext):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(querylab.cli, "MeasureContext", Recording)
    scan = ("scan", "--family", "all-total:2", "--measures", "R0,Rwc")
    assert run(capsys, *scan)[0] == 0
    serial = {(fn, spec) for fn, spec, _ in contexts[-1].audits}
    assert serial
    assert run(capsys, *scan, "--jobs", "2")[0] == 0
    parent = contexts[-1].audits
    assert serial <= {(fn, spec) for fn, spec, _ in parent}
    assert all(all(flags.values()) for _, _, flags in parent)
    order = [f.encoding() for f in enumerate_functions("all-total:2")]
    positions = [order.index(fn) for fn, _, _ in parent]
    assert positions == sorted(positions)


def test_scan_jobs_below_one_exit_2(capsys):
    for jobs in ("0", "-3"):
        code, _, err = run(
            capsys, "scan", "--family", "all-total:1", "--measures", "D",
            "--jobs", jobs,
        )
        assert code == 2 and "--jobs" in err


def test_worker_count_clamp():
    # Only the helper runs: a pool of this size is never started.
    from querylab.cli import _worker_count

    cpus = os.cpu_count() or 1
    assert _worker_count(10**9, 10**6) == cpus
    assert _worker_count(10**9, 3) == min(cpus, 3)
    assert _worker_count(1, 50) == 1
    assert _worker_count(4, 0) == 0


def test_engine_cap_exit_3(capsys, monkeypatch):
    import querylab.harness
    from querylab import LimitExceeded

    def capped(f, eps):
        raise LimitExceeded("column generation did not terminate")

    monkeypatch.setattr(querylab.harness, "solve_expected_game", capped)
    code, out, err = run(capsys, "measure", "tt:2:0111", "--measures", "R0")
    assert code == 3 and out == ""
    assert "column generation did not terminate" in err


def test_other_runtime_error_is_not_exit_3(capsys, monkeypatch):
    import querylab.harness

    def stuck(f, eps):
        raise RuntimeError("no admissible tree exists for these weights")

    monkeypatch.setattr(querylab.harness, "solve_expected_game", stuck)
    with pytest.raises(RuntimeError, match="no admissible tree"):
        main(["measure", "tt:2:0111", "--measures", "R0"])


def test_failed_audit_exit_5(capsys, monkeypatch):
    import querylab.harness
    from querylab import AuditError

    def broken(f, eps):
        raise AuditError("game audit failed")

    monkeypatch.setattr(querylab.harness, "solve_worstcase_depth", broken)
    code, out, err = run(capsys, "measure", "tt:2:0111", "--measures", "Rwc")
    assert code == 5 and out == ""
    assert "audit failed" in err


def test_scan_bad_family_exit_2(capsys):
    code, _, _ = run(capsys, "scan", "--family", "bogus:2", "--measures", "D")
    assert code == 2


def test_cache_dir_flag_and_env(capsys, tmp_path, monkeypatch):
    flag_dir = tmp_path / "flagcache"
    code, _, _ = run(
        capsys, "measure", "tt:1:01", "--measures", "D",
        "--cache-dir", str(flag_dir),
    )
    assert code == 0 and len(os.listdir(flag_dir)) == 1

    env_dir = tmp_path / "envcache"
    monkeypatch.setenv("QLAB_CACHE_DIR", str(env_dir))
    code, _, _ = run(capsys, "measure", "tt:1:01", "--measures", "D")
    assert code == 0 and len(os.listdir(env_dir)) == 1


def test_warm_cache_byte_identical_reports(capsys, tmp_path):
    cache = str(tmp_path / "cache")
    args = (
        "measure", "tt:2:0111", "--measures", "RS,D", "--format", "json",
        "--cache-dir", cache,
    )
    _, cold, _ = run(capsys, *args)
    _, warm, _ = run(capsys, *args)
    strip = lambda text: {
        k: v for k, v in json.loads(text).items() if k != "elapsed_ms"
    }
    assert strip(cold) == strip(warm)


def test_construct_text_and_json(capsys):
    code, out, _ = run(capsys, "construct", "sab", "tt:2:0111")
    assert code == 0
    assert out.strip() == "ext:2:{0*=0,0+=1,*0=0,**=0,+0=1,++=1}"

    code, out, _ = run(
        capsys, "construct", "compose", "tt:2:0111", "tt:2:0111",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "tt:4:0111111111111111"
    assert payload["arity"] == 4 and payload["domain_size"] == 16


def test_construct_usab_sum_index(capsys):
    code, out, _ = run(capsys, "construct", "usab", "tt:1:01")
    assert code == 0 and out.strip() == "ext:1:{*=0,+=1}"
    code, out, _ = run(capsys, "construct", "sum", "tt:1:01", "2")
    assert code == 0 and out.strip().startswith("ext:2:")
    code, out, _ = run(capsys, "construct", "index", "3")
    assert code == 0 and out.strip() == "tt:3:00110101"
    code, out, _ = run(capsys, "construct", "indsum", "tt:1:01", "1")
    assert code == 0 and out.strip() == "tt:3:00110101"


def test_construct_arg_errors(capsys):
    code, _, _ = run(capsys, "construct", "sab")
    assert code == 2
    code, _, _ = run(capsys, "construct", "sum", "tt:1:01", "x")
    assert code == 2
    code, _, _ = run(capsys, "construct", "sab", "ext:2:{0*=0,0+=1}")
    assert code == 2  # already sabotaged


def test_bounds_ops(capsys):
    code, out, _ = run(capsys, "bounds", "majority", "--eps", "1/3", "--runs", "3")
    assert code == 0 and "error = 7/27" in out

    code, out, _ = run(
        capsys, "bounds", "amplify", "--eps", "1/3", "--target", "1/100",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["runs"] % 2 == 1

    code, out, _ = run(
        capsys, "bounds", "truncate", "--expected-cost", "3/2", "--delta", "1/10",
    )
    assert code == 0 and "depth = 15" in out

    code, out, _ = run(capsys, "bounds", "repeat", "--cost", "2", "--eps", "1/3")
    assert code == 0 and "expected_cost = 3" in out

    code, out, _ = run(capsys, "bounds", "factor", "--eps", "1/3")
    assert code == 0 and "factor = 10" in out


def test_bounds_missing_flag_exit_2(capsys):
    code, _, _ = run(capsys, "bounds", "majority", "--eps", "1/3")
    assert code == 2
    code, _, _ = run(capsys, "bounds", "amplify", "--eps", "1/3")
    assert code == 2


def test_limit_arity_override_warns(capsys):
    code, out, err = run(
        capsys, "measure", "tt:2:0111", "--measures", "D", "--limit-arity", "6",
    )
    assert code == 0
    assert "warning" in err
