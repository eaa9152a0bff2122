"""The package's top-level exports, the README's examples as written, and
no unused imports in its modules, its tests or its tools."""

import ast
from pathlib import Path

import multistack
from multistack.cli import main

PACKAGE = Path(multistack.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
SCANNED = (PACKAGE, TESTS, TESTS.parent / "tools")
README = TESTS.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in multistack.__all__ if not hasattr(multistack, name)]
    assert missing == []
    assert len(set(multistack.__all__)) == len(multistack.__all__)


def readme_block(opening: str) -> str:
    """The README's text from the line after opening to the next fence."""
    return README.read_text(encoding="utf-8").split(f"{opening}\n", 1)[1].split("```", 1)[0]


def test_the_readme_examples_run_as_written(capsys):
    exec(readme_block("```python"), {})  # the Library snippet
    assert main(["explore", "--threads", "2", "--ops", "1", "-v"]) == 0
    assert capsys.readouterr().out == readme_block("$ multistack explore --threads 2 --ops 1 -v")


def unused_imports(path: Path) -> list[str]:
    """The names path imports but never reads.  A name listed in __all__
    counts as read; __future__ imports and imports whose first line is
    marked noqa are skipped."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    where = f"{path.parent.name}/{path.name}"
    return [f"{where}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    paths = [path for folder in SCANNED for path in sorted(folder.glob("*.py"))]
    assert len({path.parent for path in paths}) == len(SCANNED)  # no folder went missing
    unused = [entry for path in paths for entry in unused_imports(path)]
    assert unused == []
