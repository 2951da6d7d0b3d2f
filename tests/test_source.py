"""Source checks: every hand-set numerical threshold lives in toposq.config,
the package never imports the benchmark or its oracles, and the atom search
``dominating_atom_index`` stays a test oracle."""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

import toposq

SOURCE = Path(toposq.__file__).parent


def test_exponent_literals_only_in_config():
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        if path.name == "config.py":
            continue
        tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        for tok in tokens:
            text = tok.string.lower()
            if tok.type == tokenize.NUMBER and "e" in text and not text.startswith("0x"):
                found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    assert found == [], "exponent-form literals outside config.py: " + ", ".join(found)


def test_no_benchmark_or_oracle_imports():
    # perfbench checks toposq against its own numpy-only oracles; that check
    # is independent only while toposq imports neither.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            for name in names:
                parts = name.split(".")
                if "perfbench" in parts or "oracle" in parts:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == [], "benchmark imports in src/toposq: " + ", ".join(found)


def test_dominating_atom_index_not_called_in_package():
    # Restriction tables come from one restriction_table pass; the atom
    # search that checks them in the tests must not feed them.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "dominating_atom_index":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == [], "dominating_atom_index called in src/toposq: " + ", ".join(found)
