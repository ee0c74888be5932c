"""The demos use only the public API, and the quick ones run to completion."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import querylab

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = str(Path(querylab.__file__).resolve().parent.parent)


def _imported_names(path):
    tree = ast.parse(path.read_text())
    return [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "querylab"
        for alias in node.names
    ]


def test_demo_imports_are_public():
    demos = sorted(DEMOS.glob("*.py"))
    assert len(demos) == 5
    for path in demos:
        names = _imported_names(path)
        assert names, path.name
        missing = [n for n in names if n not in querylab.__all__]
        assert not missing, (path.name, missing)


@pytest.mark.parametrize(
    "name",
    [
        "01_functions_and_trees.py",
        "02_sabotage_game.py",
        "03_measure_landscape.py",
        "04_composition_products.py",
        "05_error_tradeoffs.py",
    ],
)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
