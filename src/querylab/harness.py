"""Measure dispatch, in-process memoization, persistent cache, and reports.

A MeasureContext owns every engine call.  Values are memoized in process by
canonical function encoding, and optionally persisted one file per
(function, measure, eps, engine version) under a cache directory; files are
written to a temp name and atomically renamed, so concurrent scans sharing a
cache directory stay consistent.  Reports are plain dicts with every
rational rendered as an exact "num/den" string; elapsed_ms is the only
nondeterministic field.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import time

from .constructions import sabotage, unique_sabotage
from .core import LimitExceeded, QueryFunction, parse_function
from .det import (
    block_sensitivity,
    certificate_complexity,
    det_complexity,
    fractional_block_sensitivity,
)
from .games import solve_expected_game, solve_worstcase_depth
from .rational import as_rat, rat_from_str, rat_str
from .trees import tree_to_obj

ENGINE_VERSION = "0.2.0"

MEASURE_NAMES = ("D", "DS", "C", "bs", "RC", "R0", "RS", "RSu", "Rbar", "Rwc")
_EPS_MEASURES = ("Rbar", "Rwc")
_DET_MEASURES = ("D", "DS", "C", "bs", "RC")

_MEASURE_RE = re.compile(r"([A-Za-z0-9]+)(?:\((.+)\))?")


class MeasureError(ValueError):
    """An unknown measure name or a malformed measure spec."""


def parse_measure(spec, default_eps):
    """'RS' or 'Rbar(1/4)' -> (name, eps or None, canonical spec string)."""
    m = _MEASURE_RE.fullmatch(spec.strip())
    if not m:
        raise MeasureError(f"bad measure spec {spec!r}")
    name, eps_text = m.group(1), m.group(2)
    if name not in MEASURE_NAMES:
        raise MeasureError(f"unknown measure {name!r}")
    if name not in _EPS_MEASURES:
        if eps_text is not None:
            raise MeasureError(f"measure {name} does not take an error budget")
        return name, None, name
    if eps_text is None:
        eps = as_rat(default_eps)
    else:
        try:
            eps = rat_from_str(eps_text)
        except ValueError:
            raise MeasureError(f"bad error budget in {spec!r}") from None
    return name, eps, f"{name}({rat_str(eps)})"


class MeasureContext:
    """Shared engine front end with memoization, limits, and caching."""

    def __init__(
        self,
        cache_dir=None,
        limit_arity=4,
        domain_cap=1024,
        default_eps="1/3",
    ):
        self.cache_dir = cache_dir
        self.limit_arity = limit_arity
        self.domain_cap = domain_cap
        self.default_eps = as_rat(default_eps)
        self._entries = {}
        self._games = {}
        self._worstcase = {}
        self._constructions = {}
        self.audits = []

    # -- function plumbing -------------------------------------------------

    def function(self, f):
        return f if isinstance(f, QueryFunction) else parse_function(f)

    def sabotaged(self, f):
        key = ("sab", f.encoding())
        if key not in self._constructions:
            self._constructions[key] = sabotage(f)
        return self._constructions[key]

    def unique_sabotaged(self, f):
        key = ("usab", f.encoding())
        if key not in self._constructions:
            self._constructions[key] = unique_sabotage(f)
        return self._constructions[key]

    def _check_arity(self, f):
        if f.arity > self.limit_arity:
            raise LimitExceeded(
                f"arity {f.arity} exceeds the limit {self.limit_arity}"
            )

    def _check_domain(self, f):
        if len(f.domain) > self.domain_cap:
            raise LimitExceeded(
                f"domain size {len(f.domain)} exceeds the cap {self.domain_cap}"
            )

    # -- game solutions (memoized as whole objects) ------------------------

    def game(self, f, eps):
        key = (f.encoding(), rat_str(eps))
        if key not in self._games:
            self._check_domain(f)
            solution = solve_expected_game(f, eps)
            self.audits.append((f.encoding(), f"Rbar({rat_str(eps)})", solution.audit))
            self._games[key] = solution
        return self._games[key]

    def worstcase(self, f, eps):
        key = (f.encoding(), rat_str(eps))
        if key not in self._worstcase:
            self._check_domain(f)
            solution = solve_worstcase_depth(f, eps)
            self.audits.append((f.encoding(), f"Rwc({rat_str(eps)})", solution.audit))
            self._worstcase[key] = solution
        return self._worstcase[key]

    # -- measure entries ---------------------------------------------------

    def measure(self, f, name, eps=None):
        """The measure's exact value (int or Fraction)."""
        f = self.function(f)
        name, eps, spec = parse_measure(
            name if eps is None else f"{name}({rat_str(eps)})", self.default_eps
        )
        entry = self.measure_entry(f, name, eps, spec)
        value = entry["value"]
        q = rat_from_str(value)
        return int(q) if q.denominator == 1 and name in (
            "D", "DS", "C", "bs", "Rwc"
        ) else q

    def hard_distribution(self, f, eps=0):
        """Adversary distribution certifying the expected-cost game value."""
        f = self.function(f)
        spec = "R0" if eps == 0 else f"Rbar({rat_str(eps)})"
        name = "R0" if eps == 0 else "Rbar"
        entry = self.measure_entry(f, name, as_rat(eps) if eps else None, spec)
        dist = entry["certificates"].get("hard_distribution", {})
        return {x: rat_from_str(v) for x, v in dist.items()}

    def measure_entry(self, f, name, eps, spec):
        key = (f.encoding(), spec)
        if key in self._entries:
            return self._entries[key]
        cached = self._cache_read(f, spec)
        if cached is not None:
            self._entries[key] = cached
            return cached
        entry = self._compute(f, name, eps, spec)
        self._cache_write(f, spec, entry)
        self._entries[key] = entry
        return entry

    def _compute(self, f, name, eps, spec):
        if name in _DET_MEASURES:
            self._check_arity(f)
        if name == "D":
            value, tree = det_complexity(f, with_tree=True)
            certs = {"optimal_tree": tree_to_obj(tree) if tree else None}
        elif name == "DS":
            sab = self.sabotaged(f)
            value, tree = det_complexity(sab, with_tree=True)
            certs = {
                "sabotaged_function": sab.encoding(),
                "optimal_tree": tree_to_obj(tree) if tree else None,
            }
        elif name == "C":
            value, per_input = certificate_complexity(f)
            certs = {"per_input": per_input}
        elif name == "bs":
            value, per_input = block_sensitivity(f)
            certs = {"per_input": per_input}
        elif name == "RC":
            value, per_input = fractional_block_sensitivity(f)
            certs = {"per_input": {x: rat_str(v) for x, v in per_input.items()}}
        elif name in ("R0", "Rbar", "RS", "RSu"):
            if name == "RS":
                target = self.sabotaged(f)
            elif name == "RSu":
                target = self.unique_sabotaged(f)
            else:
                target = f
            game_eps = eps if name == "Rbar" else 0
            if not target.domain:
                value, certs = 0, {
                    "hard_distribution": {},
                    "optimal_mixture": [],
                }
            else:
                solution = self.game(target, game_eps)
                value = solution.value
                certs = _game_certificates(solution)
            if name in ("RS", "RSu"):
                certs["sabotaged_function"] = target.encoding()
        elif name == "Rwc":
            if not f.domain:
                value, certs = 0, {"optimal_mixture": []}
            else:
                solution = self.worstcase(f, eps)
                value = solution.depth
                certs = {
                    "achieved_error": rat_str(solution.error_value),
                    "hard_distribution": {
                        x: rat_str(v)
                        for x, v in sorted(solution.hard_distribution.items())
                    },
                    "optimal_mixture": [
                        {"weight": rat_str(w), "tree": tree_to_obj(t)}
                        for t, w in solution.support
                    ],
                }
        else:  # pragma: no cover
            raise MeasureError(f"unknown measure {name!r}")
        return {
            "engine_version": ENGINE_VERSION,
            "function": f.encoding(),
            "measure": spec,
            "value": rat_str(value),
            "certificates": certs,
        }

    # -- persistent cache --------------------------------------------------

    def _cache_path(self, f, spec):
        digest = hashlib.sha256(
            f"{f.encoding()}\n{spec}\n{ENGINE_VERSION}".encode()
        ).hexdigest()
        return os.path.join(self.cache_dir, f"{digest}.json")

    def _cache_read(self, f, spec):
        if self.cache_dir is None:
            return None
        path = self._cache_path(f, spec)
        try:
            with open(path) as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if entry.get("engine_version") != ENGINE_VERSION:
            return None
        return entry

    def _cache_write(self, f, spec, entry):
        if self.cache_dir is None:
            return
        os.makedirs(self.cache_dir, exist_ok=True)
        path = self._cache_path(f, spec)
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(entry, handle, sort_keys=True)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    # -- reports -----------------------------------------------------------

    def report(self, f, measure_specs):
        """MeasureReport dict for one function over a list of measure specs."""
        f = self.function(f)
        started = time.perf_counter()
        measures = {}
        certificates = {}
        for spec_text in measure_specs:
            name, eps, spec = parse_measure(spec_text, self.default_eps)
            entry = self.measure_entry(f, name, eps, spec)
            measures[spec] = entry["value"]
            certificates[spec] = entry["certificates"]
        return {
            "function": f.encoding(),
            "measures": measures,
            "certificates": certificates,
            "engine_version": ENGINE_VERSION,
            "elapsed_ms": int((time.perf_counter() - started) * 1000),
        }


def _game_certificates(solution):
    return {
        "hard_distribution": {
            x: rat_str(v) for x, v in sorted(solution.hard_distribution.items())
        },
        "optimal_mixture": [
            {"weight": rat_str(w), "tree": tree_to_obj(t)}
            for t, w in solution.support
        ],
        "iterations": solution.iterations,
    }
