"""Source checks: every hand-set numerical threshold lives in toposq.config,
the package never imports the benchmark or its oracles, the atom search
``dominating_atom_index`` stays a test oracle, every module-level import is
used, and the package's public names are exactly its modules' ``__all__``
lists."""

from __future__ import annotations

import ast
import importlib
import io
import tokenize
from pathlib import Path

import toposq

SOURCE = Path(toposq.__file__).parent

# The modules whose __all__ the package re-exports, in order.
EXPORTING_MODULES = (
    "config", "contexts", "daseinisation", "errors", "linalg", "operators", "presheaf", "states",
)

# Every name the package exported before it re-exported the module lists, by
# defining module; none of them may go.
EARLIER_EXPORTS = {
    "config": "default_tolerance",
    "contexts": "Context ContextPoset build_poset coarsenings context_from_atoms "
    "context_from_operator includes intersect",
    "daseinisation": "daseinise_projection inner_projection outer_projection",
    "errors": "DimensionMismatchError InternalInvariantViolation InvalidFamilyError "
    "MixedDimensionsError NotAPartitionError NotAProjectionError NotHermitianError "
    "NotInContextError NotIncludedError NotNormalizedError NotRestrictionClosedError "
    "ParseError PosetMismatchError ScalarOperatorError ToposqError TrivialIntersectionError "
    "UnsupportedFeatureError",
    "linalg": "EigenStructure HermitianOperator Projection SpectralFamily canonical_projection "
    "eigenstructure from_spectral_family operator_norm proj_join proj_leq proj_meet "
    "spectral_family",
    "operators": "OperatorArrow OrderPair PrincipalFilter antonymous cone filter_from_point "
    "gelfand_transform_inner gelfand_transform_outer inner_operator observable operator_arrow "
    "outer_operator spectral_leq",
    "presheaf": "ClopenSubobject GelfandPoint evaluate global_sections points_to_projection "
    "projection_to_points restrict spectrum",
    "states": "ContainmentReport ContainmentRow UnitVector ValueSubobject check_containment "
    "containment_report expectation pseudo_state value",
}


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
    # Restriction tables are read from the poset's atom-order matrix; the
    # atom search that checks them in the tests must not feed them.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "dominating_atom_index":
                    found.append(f"{path.name}:{node.lineno}")
    assert found == [], "dominating_atom_index called in src/toposq: " + ", ".join(found)


def test_every_module_level_import_is_used():
    # No linter runs over the package, so an import left behind by a change
    # is caught here. A name counts as used when the module reads it, or
    # lists it in __all__ as a re-export.
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
            ):
                used |= {elt.value for elt in ast.walk(node.value) if isinstance(elt, ast.Constant)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound != "*" and bound not in used:
                        found.append(f"{path.name}:{node.lineno}: {bound}")
    assert found == [], "unused imports in src/toposq: " + ", ".join(found)


def test_package_exports_each_module_all():
    modules = {name: importlib.import_module(f"toposq.{name}") for name in EXPORTING_MODULES}
    joined = [name for module in modules.values() for name in module.__all__]
    assert toposq.__all__ == joined
    # A star import lets a later module hide an earlier module's name silently.
    repeated = sorted({name for name in joined if joined.count(name) > 1})
    assert repeated == [], "names in two modules' __all__: " + ", ".join(repeated)
    for module in modules.values():
        for name in module.__all__:
            assert getattr(toposq, name) is getattr(module, name), name
    assert sum(len(names.split()) for names in EARLIER_EXPORTS.values()) == 71
    for module_name, names in EARLIER_EXPORTS.items():
        for name in names.split():
            assert name in toposq.__all__, name
            obj = getattr(toposq, name)
            assert obj.__module__ == f"toposq.{module_name}", name
            assert obj is getattr(modules[module_name], name), name
