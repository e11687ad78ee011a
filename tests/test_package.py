"""Properties of the package as a whole: what importing it loads, that its
declared public names exist and have callers, and that no import goes
unused."""

import ast
import importlib
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "owflab"

# The reduction module checks the paper's density transfer, which no command
# or criterion runs yet; it is exempt until it becomes verify-all's C12.
NO_CALLER_EXEMPT = {"reduction.py"}


def test_cli_import_leaves_mpmath_unloaded():
    # mpmath serves quotient_ratio alone; a command that does not call it
    # should not pay for importing it.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, owflab.cli; print('mpmath' in sys.modules)"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("module", ["bitsampler", "owf", "threshold"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(f"owflab.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _definitions(tree: ast.Module):
    """(name, node) of each public module-level name and each public method
    or property of a public module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, node
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uses(tree: ast.Module):
    """(name, line, is_attribute) of every name, attribute and imported name
    in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, False


def test_every_public_name_has_a_caller():
    # A public name that only the tests reach is a test-only wrapper: it
    # belongs in the tests, or nowhere.  A use inside a definition that has
    # no caller itself does not count, so dead code cannot keep dead code.
    trees = {path: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    reached = defaultdict(set)  # name -> {is_attribute} in demos and owbench
    for folder in (ROOT / "demos", ROOT / "owbench"):
        for path in sorted(folder.glob("*.py")):
            for name, _, is_attribute in _uses(_parse(path)):
                reached[name].add(is_attribute)
    uses = defaultdict(list)  # name -> [(path, line, is_attribute)] inside the package
    for path, tree in trees.items():
        for name, line, is_attribute in _uses(tree):
            uses[name].append((path, line, is_attribute))

    def counts(qualname, is_attribute):
        # A method or property is reached only as an attribute, x.name: a
        # bare name of the same spelling does not call it.
        return is_attribute or "." not in qualname

    spans = {
        f"{path.stem}.{qualname}": (path, range(node.lineno, node.end_lineno + 1))
        for path, tree in trees.items()
        if path.name not in NO_CALLER_EXEMPT
        for qualname, node in _definitions(tree)
        if not any(counts(qualname, attr) for attr in reached[qualname.rpartition(".")[2]])
    }
    uncalled: set[str] = set()
    while True:
        found = set()
        for label, own in spans.items():
            excluded = [own, *(spans[dead] for dead in uncalled)]
            if all(
                any(path == p and line in span for p, span in excluded)
                for path, line, is_attribute in uses[label.rpartition(".")[2]]
                if counts(label.partition(".")[2], is_attribute)
            ):
                found.add(label)
        if found == uncalled:
            break
        uncalled = found
    assert sorted(uncalled) == []


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # Names listed in __all__ are exported, which is a use.
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in used:
                unused.append(f"{path.relative_to(ROOT)}: {alias.name}")
    return unused


def test_no_unused_imports():
    paths = [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "tests").glob("*.py")),
        *sorted((ROOT / "demos").glob("*.py")),
    ]
    assert [entry for path in paths for entry in _unused_imports(path)] == []
