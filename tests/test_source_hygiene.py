"""Source hygiene of the package modules.

Covers: every name a module under src/tge imports is used in that module.
The package's __init__.py (whose imports are re-exports) and
`from __future__ import annotations` are exempt.  A name counts as used
when it appears as an identifier anywhere in the module, annotations
included; quoted annotations are parsed for their identifiers too.

The oracles live in tge/oracles.py and nowhere else: no package module
but __init__.py imports that module, in any form, or one of its names, and
each moved name still belongs to oracles and to tge.__all__.
entropy_report.py, which only counts, imports neither the word cap nor its
error.

No module under src/tge names `max_iter` or `DEFAULT_MAX_ITER`: radii
iterate until the bracket meets tol or stops narrowing, and an iteration
cap would only let a valid graph fail.
"""

import ast
import re
from pathlib import Path

import tge

SRC = Path(__file__).resolve().parent.parent / "src" / "tge"


def _imported(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                quoted = ast.parse(sub.value, mode="eval")
                names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = _used(tree)
    return [f"{path.name}:{line} {name}" for name, line in _imported(tree)
            if name not in used]


def test_no_unused_imports_in_package_modules():
    modules = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    assert len(modules) >= 10
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == [], "imported but never used: " + ", ".join(unused)


ORACLES = {"DiscreteWord", "enumerate_words", "iter_word_products", "WordWeight",
           "word_weight", "loop_weight", "cyclic_exponent_matrix", "word_weights",
           "torus_solutions_bruteforce", "ht_phi", "block_entropy_transpose"}
# iter_word_products was never exported from tge
EXPORTED_ORACLES = ORACLES - {"iter_word_products"}
WORD_CAP = {"DEFAULT_WORD_CAP", "CapExceededError"}


def _import_targets(tree: ast.Module):
    """(dotted name, line) of everything a module imports, relative
    imports resolved against the tge package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["tge" if node.level else None, node.module]))
            for alias in node.names:
                yield f"{base}.{alias.name}", node.lineno


def banned_imports(path: Path, banned_names: set[str]) -> list[str]:
    """Imports of tge.oracles or anything in it, or of a banned name, under any alias."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{line} {target}" for target, line in _import_targets(tree)
            if target == "tge.oracles" or target.startswith("tge.oracles.")
            or target.rsplit(".", 1)[-1] in banned_names]


def test_report_path_imports_no_oracle_or_word_cap():
    modules = sorted(p for p in SRC.glob("*.py") if p.name not in ("__init__.py", "oracles.py"))
    assert len(modules) >= 9
    found = [entry for path in modules for entry in banned_imports(
        path, ORACLES | (WORD_CAP if path.name == "entropy_report.py" else set()))]
    assert found == [], "banned imports: " + ", ".join(found)
    for name in ORACLES:
        assert getattr(tge.oracles, name).__module__ == "tge.oracles", name
    for name in EXPORTED_ORACLES:
        assert name in tge.__all__ and getattr(tge, name) is getattr(tge.oracles, name), name


def test_scan_sees_quoted_annotations_and_dotted_imports(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as js\n"
        "from typing import Iterator, Mapping\n"
        "def f(x: 'Iterator[int]') -> None:\n"
        "    return os.path.join('a')\n",
        encoding="utf-8",
    )
    assert unused_imports(src) == ["sample.py:3 js", "sample.py:4 Mapping"]


ITERATION_CAP = re.compile(r"\b(?:max_iter|DEFAULT_MAX_ITER)\b")


def test_no_iteration_cap_in_package():
    found = [f"{path.name}:{lineno}" for path in sorted(SRC.glob("*.py"))
             for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
             if ITERATION_CAP.search(line)]
    assert found == [], "iteration cap named at " + ", ".join(found)
