"""Source checks: every hand-set numerical threshold lives in toposq.config,
and the package never imports the benchmark or its oracles."""

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
