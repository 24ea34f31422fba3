"""Source hygiene of the package modules.

Covers: every name a module under src/tge imports is used in that module.
The package's __init__.py (whose imports are re-exports) and
`from __future__ import annotations` are exempt.  A name counts as used
when it appears as an identifier anywhere in the module, annotations
included; quoted annotations are parsed for their identifiers too.

The report path imports no oracle: cli.py and entropy_report.py import no
word enumerator or brute-force solver, and entropy_report.py, which only
counts, imports neither the word cap nor its error.
"""

import ast
from pathlib import Path

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
    assert len(modules) >= 9
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == [], "imported but never used: " + ", ".join(unused)


ORACLES = {"iter_word_products", "enumerate_words", "word_weights",
           "torus_solutions_bruteforce"}
REPORT_PATH_BANS = {
    "cli.py": ORACLES,
    "entropy_report.py": ORACLES | {"DEFAULT_WORD_CAP", "CapExceededError"},
}


def banned_imports(path: Path, banned: set[str]) -> list[str]:
    """Imports of a banned name, under any alias."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"{path.name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names if alias.name.rsplit(".", 1)[-1] in banned]


def test_report_path_imports_no_oracle_or_word_cap():
    found = [entry for name, banned in REPORT_PATH_BANS.items()
             for entry in banned_imports(SRC / name, banned)]
    assert found == [], "report path imports: " + ", ".join(found)


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
