"""Command line front end.

Subcommands: measure, verify, scan, construct, bounds.  All values are
printed as exact rationals ("num/den", or a bare integer when the
denominator is one).  Exit codes: 0 success, 1 verification found a failing
check, 2 malformed input (bad literal, unknown measure or check id, scan
--jobs below 1), 3 a size limit or a simplex pivot or column-generation cap
was exceeded (LimitExceeded), 4 an output or cache path was not writable, 5
an exact self-check of a result failed (AuditError; an engine bug).  Any
other error, such as a broken worker pool, ends in a traceback.  scan --jobs
N starts at most min(N, CPU count, number of functions) worker processes.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import sys

from .bounds import (
    amplification_repetitions,
    expected_to_worstcase_factor,
    majority_error,
    markov_truncation,
    repeat_cost,
)
from .constructions import (
    ConstructionError,
    compose,
    direct_sum,
    index_function,
    indexed_direct_sum,
    sabotage,
    unique_sabotage,
)
from .core import (
    AuditError,
    LimitExceeded,
    ParseError,
    enumerate_functions,
    parse_function,
)
from .harness import ENGINE_VERSION, MeasureContext, MeasureError, parse_measure
from .rational import rat_from_str, rat_str
from .registry import REGISTRY, UnknownCheckError, run_checks

_DEFAULT_LIMIT_ARITY = 4
_DEFAULT_DOMAIN_CAP = 1024


def _common_flags(parser):
    parser.add_argument(
        "--format", choices=("json", "csv", "text"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--eps", default="1/3", metavar="RAT",
        help="default error budget for Rbar/Rwc, as an exact rational",
    )
    parser.add_argument(
        "--cache-dir", default=os.environ.get("QLAB_CACHE_DIR"), metavar="DIR",
        help="persistent result cache directory (env: QLAB_CACHE_DIR)",
    )
    parser.add_argument(
        "--limit-arity", type=int, default=_DEFAULT_LIMIT_ARITY, metavar="N",
        help="arity cap for tree and certificate search (default: 4)",
    )
    parser.add_argument(
        "--domain-cap", type=int, default=_DEFAULT_DOMAIN_CAP, metavar="N",
        help="domain size cap for game solving (default: 1024)",
    )


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="qlab",
        description="exact query-complexity workbench for small functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="measure one or more functions")
    p_measure.add_argument("functions", nargs="+", metavar="LITERAL")
    p_measure.add_argument(
        "--measures", required=True, metavar="SPECS",
        help="comma-separated measure specs, e.g. D,RS,Rbar(1/4)",
    )
    _common_flags(p_measure)

    p_verify = sub.add_parser("verify", help="check registered relations")
    p_verify.add_argument(
        "--theorems", default="all", metavar="IDS",
        help="comma-separated check ids, or 'all' (default)",
    )
    p_verify.add_argument(
        "--family", default=None, metavar="FAMILY",
        help="override the family every selected check runs on",
    )
    p_verify.add_argument(
        "--max-counterexamples", type=int, default=5, metavar="N",
    )
    _common_flags(p_verify)

    p_scan = sub.add_parser("scan", help="tabulate measures over a family")
    p_scan.add_argument("--family", required=True, metavar="FAMILY")
    p_scan.add_argument("--measures", required=True, metavar="SPECS")
    p_scan.add_argument("--out", default=None, metavar="PATH")
    p_scan.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="parallel worker processes for the scan",
    )
    _common_flags(p_scan)

    p_construct = sub.add_parser("construct", help="build derived functions")
    p_construct.add_argument(
        "op", choices=("sab", "usab", "compose", "sum", "index", "indsum"),
    )
    p_construct.add_argument("args", nargs="*", metavar="ARG")
    _common_flags(p_construct)

    p_bounds = sub.add_parser("bounds", help="amplification and cost bounds")
    p_bounds.add_argument(
        "op", choices=("majority", "amplify", "truncate", "repeat", "factor"),
    )
    p_bounds.add_argument("--runs", type=int, default=None)
    p_bounds.add_argument("--target", default=None, metavar="RAT")
    p_bounds.add_argument("--expected-cost", default=None, metavar="RAT")
    p_bounds.add_argument("--delta", default=None, metavar="RAT")
    p_bounds.add_argument("--cost", default=None, metavar="RAT")
    _common_flags(p_bounds)

    return parser


def _context(args):
    if args.limit_arity > _DEFAULT_LIMIT_ARITY:
        print(
            f"warning: raising the arity limit to {args.limit_arity};"
            " searches grow doubly exponentially",
            file=sys.stderr,
        )
    if args.domain_cap > _DEFAULT_DOMAIN_CAP:
        print(
            f"warning: raising the game domain cap to {args.domain_cap}",
            file=sys.stderr,
        )
    return MeasureContext(
        cache_dir=args.cache_dir,
        limit_arity=args.limit_arity,
        domain_cap=args.domain_cap,
        default_eps=args.eps,
    )


def _split_specs(text):
    """Split a comma-separated measure list, keeping parentheses intact."""
    parts, depth, current = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p.strip() for p in parts if p.strip()]


def _canonical_specs(specs, default_eps):
    return [parse_measure(s, default_eps)[2] for s in specs]


# -- measure -----------------------------------------------------------------


def _cmd_measure(args):
    ctx = _context(args)
    specs = _split_specs(args.measures)
    reports = [ctx.report(parse_function(lit), specs) for lit in args.functions]
    _emit_reports(reports, args.format, sys.stdout, ctx.default_eps, specs)
    return 0


def _emit_reports(reports, fmt, stream, default_eps, specs):
    canonical = _canonical_specs(specs, default_eps)
    if fmt == "json":
        payload = reports[0] if len(reports) == 1 else reports
        stream.write(json.dumps(payload, sort_keys=True) + "\n")
    elif fmt == "csv":
        stream.write(",".join(["function"] + canonical) + "\n")
        for report in reports:
            row = [report["function"]] + [
                report["measures"][spec] for spec in canonical
            ]
            stream.write(",".join(row) + "\n")
    else:
        for i, report in enumerate(reports):
            if i:
                stream.write("\n")
            stream.write(f"function = {report['function']}\n")
            for spec in canonical:
                stream.write(f"{spec} = {report['measures'][spec]}\n")


# -- verify ------------------------------------------------------------------


def _cmd_verify(args):
    ctx = _context(args)
    if args.theorems.strip() == "all":
        check_ids = list(REGISTRY)
    else:
        check_ids = [t.strip() for t in args.theorems.split(",") if t.strip()]
    results = run_checks(
        ctx, check_ids, family=args.family,
        max_counterexamples=args.max_counterexamples,
    )
    if args.format == "json":
        print(json.dumps(results, sort_keys=True))
    elif args.format == "csv":
        print("check,family,total,passed,failed")
        for r in results:
            print(
                f"{r['check']},{r['family']},{r['total']},{r['passed']},"
                f"{r['failed']}"
            )
    else:
        for r in results:
            status = "OK" if r["failed"] == 0 else "FAIL"
            print(
                f"{r['check']} [{r['family']}] {r['passed']}/{r['total']}"
                f" passed {status}"
            )
            for ce in r["counterexamples"]:
                names = " ".join(ce["functions"])
                details = json.dumps(ce["details"], sort_keys=True)
                print(f"  counterexample: {names} {details}")
    return 0 if all(r["failed"] == 0 for r in results) else 1


# -- scan ----------------------------------------------------------------------


def _scan_worker(payload):
    literal, specs, cache_dir, limit_arity, domain_cap, eps = payload
    ctx = MeasureContext(
        cache_dir=cache_dir, limit_arity=limit_arity,
        domain_cap=domain_cap, default_eps=eps,
    )
    return ctx.report(parse_function(literal), specs), ctx.audits


def _worker_count(jobs, n_functions):
    """Worker processes for a scan: never more than the CPUs or the functions."""
    return min(jobs, os.cpu_count() or 1, n_functions)


def _cmd_scan(args):
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    ctx = _context(args)
    specs = _split_specs(args.measures)
    literals = [
        f.encoding()
        for f in enumerate_functions(args.family, args.limit_arity)
    ]
    workers = _worker_count(args.jobs, len(literals))
    if workers > 1:
        payloads = [
            (lit, tuple(specs), args.cache_dir, args.limit_arity,
             args.domain_cap, args.eps)
            for lit in literals
        ]
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            results = list(pool.map(_scan_worker, payloads))
        reports = [report for report, _ in results]
        for _, audits in results:
            ctx.audits.extend(audits)
    else:
        reports = [ctx.report(parse_function(lit), specs) for lit in literals]
    if args.out is None:
        _emit_reports(reports, args.format, sys.stdout, ctx.default_eps, specs)
    else:
        with open(args.out, "w") as stream:
            _emit_reports(reports, args.format, stream, ctx.default_eps, specs)
    return 0


# -- construct -----------------------------------------------------------------


def _cmd_construct(args):
    op, rest = args.op, args.args

    def need(count):
        if len(rest) != count:
            raise ParseError(
                f"construct {op} takes {count} argument(s), got {len(rest)}"
            )

    if op == "sab":
        need(1)
        result = sabotage(parse_function(rest[0]))
    elif op == "usab":
        need(1)
        result = unique_sabotage(parse_function(rest[0]))
    elif op == "compose":
        need(2)
        result = compose(parse_function(rest[0]), parse_function(rest[1]))
    elif op == "sum":
        need(2)
        result = direct_sum(parse_function(rest[0]), _parse_int(rest[1]))
    elif op == "index":
        need(1)
        result = index_function(_parse_int(rest[0]))
    else:  # indsum
        need(2)
        result = indexed_direct_sum(parse_function(rest[0]), _parse_int(rest[1]))

    if args.format == "json":
        print(
            json.dumps(
                {
                    "arity": result.arity,
                    "domain_size": len(result.domain),
                    "engine_version": ENGINE_VERSION,
                    "op": op,
                    "result": result.encoding(),
                },
                sort_keys=True,
            )
        )
    else:
        print(result.encoding())
    return 0


def _parse_int(text):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}") from None


# -- bounds --------------------------------------------------------------------


def _rat_arg(value, flag):
    if value is None:
        raise ParseError(f"bounds: missing required flag {flag}")
    try:
        return rat_from_str(value)
    except ValueError:
        raise ParseError(f"bounds: bad rational for {flag}: {value!r}") from None


def _cmd_bounds(args):
    eps = _rat_arg(args.eps, "--eps")
    if args.op == "majority":
        if args.runs is None:
            raise ParseError("bounds majority: missing --runs")
        value = majority_error(eps, args.runs)
        payload = {"op": "majority", "eps": rat_str(eps), "runs": args.runs,
                   "error": rat_str(value)}
    elif args.op == "amplify":
        target = _rat_arg(args.target, "--target")
        advisory, runs = amplification_repetitions(eps, target)
        payload = {"op": "amplify", "eps": rat_str(eps),
                   "target": rat_str(target), "runs": runs,
                   "advisory_bound": advisory}
    elif args.op == "truncate":
        expected = _rat_arg(args.expected_cost, "--expected-cost")
        delta = _rat_arg(args.delta, "--delta")
        depth, success = markov_truncation(expected, delta)
        payload = {"op": "truncate", "expected_cost": rat_str(expected),
                   "delta": rat_str(delta), "depth": depth,
                   "success": rat_str(success)}
    elif args.op == "repeat":
        cost = _rat_arg(args.cost, "--cost")
        value = repeat_cost(cost, eps)
        payload = {"op": "repeat", "cost": rat_str(cost),
                   "eps": rat_str(eps), "expected_cost": rat_str(value)}
    else:  # factor
        factor = expected_to_worstcase_factor(eps)
        rendered = rat_str(factor) if not isinstance(factor, float) else factor
        payload = {"op": "factor", "eps": rat_str(eps), "factor": rendered}

    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            if key == "op":
                continue
            print(f"{key} = {value}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "measure": _cmd_measure,
        "verify": _cmd_verify,
        "scan": _cmd_scan,
        "construct": _cmd_construct,
        "bounds": _cmd_bounds,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, ConstructionError, MeasureError, ValueError) as exc:
        print(f"qlab: error: {exc}", file=sys.stderr)
        return 2
    except UnknownCheckError as exc:
        print(f"qlab: unknown check id: {exc.args[0]}", file=sys.stderr)
        return 2
    except LimitExceeded as exc:
        print(f"qlab: limit exceeded: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"qlab: io error: {exc}", file=sys.stderr)
        return 4
    except AuditError as exc:
        print(f"qlab: audit failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
