"""Source checks: every hand-set numerical threshold lives in toposq.config."""

from __future__ import annotations

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
