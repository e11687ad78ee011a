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


def _uses(tree: ast.Module, module: str):
    """(name, line, receiver) of every name, attribute and imported name in
    a module.  receiver is None for a bare or imported name, "module.Class"
    for self.name inside a method of Class, and "" for any other attribute."""
    owners = {}  # self.name node -> its class
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for method in cls.body:
            if isinstance(method, ast.FunctionDef) and method.args.args:
                me = method.args.args[0].arg
                for node in ast.walk(method):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == me
                    ):
                        owners[node] = f"{module}.{cls.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, None
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, owners.get(node, "")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, None


def _counts(label: str, receiver: str | None) -> bool:
    """Whether a use with this receiver can reach the definition "module.name"
    or "module.Class.method".  A method is reached only as an attribute: a
    bare name of the same spelling does not call it, and self.name counts
    only inside its own class.  A module-level name is not reached by
    self.name."""
    owner = label.rpartition(".")[0]
    if "." in owner:
        return receiver == "" or receiver == owner
    return receiver is None or receiver == ""


def _uncalled(package: Path, callers: list[Path]) -> list[str]:
    """The public names of the package's modules that nothing in the package
    or in the caller folders uses.  A use inside a definition that has no
    caller itself does not count, so dead code cannot keep dead code."""
    trees = {path: _parse(path) for path in sorted(package.glob("*.py"))}
    reached = defaultdict(set)  # name -> {receiver} in the caller folders
    for folder in callers:
        for path in sorted(folder.glob("*.py")):
            module = f"{folder.name}/{path.stem}"  # matches no package class
            for name, _, receiver in _uses(_parse(path), module):
                reached[name].add(receiver)
    uses = defaultdict(list)  # name -> [(path, line, receiver)] inside the package
    for path, tree in trees.items():
        for name, line, receiver in _uses(tree, path.stem):
            uses[name].append((path, line, receiver))

    spans = {}  # label -> (path, lines) of each definition the callers miss
    for path, tree in trees.items():
        if path.name in NO_CALLER_EXEMPT:
            continue
        for qualname, node in _definitions(tree):
            label = f"{path.stem}.{qualname}"
            if not any(_counts(label, r) for r in reached[label.rpartition(".")[2]]):
                spans[label] = (path, range(node.lineno, node.end_lineno + 1))
    uncalled: set[str] = set()
    while True:
        found = set()
        for label, own in spans.items():
            excluded = [own, *(spans[dead] for dead in uncalled)]
            if all(
                any(path == p and line in span for p, span in excluded)
                for path, line, receiver in uses[label.rpartition(".")[2]]
                if _counts(label, receiver)
            ):
                found.add(label)
        if found == uncalled:
            break
        uncalled = found
    return sorted(uncalled)


def test_every_public_name_has_a_caller():
    # A public name that only the tests reach is a test-only wrapper: it
    # belongs in the tests, or nowhere.
    assert _uncalled(PACKAGE, [ROOT / "demos", ROOT / "owbench"]) == []


def test_has_a_caller_resolves_self_to_its_class(tmp_path):
    """A dead method is not kept alive by self.name in another class: here
    Report.line reads self.limit, and Params.limit has no caller.  Other
    receivers, such as p.ok or report.limit, stay unresolved, so any
    x.limit with x other than self would still count for Params.limit."""
    package, callers = tmp_path / "pkg", tmp_path / "callers"
    package.mkdir()
    callers.mkdir()
    (package / "mod.py").write_text(
        "class Report:\n"
        "    limit: float = 1.0\n"
        "\n"
        "    def line(self):\n"
        "        return f'{self.limit}'\n"
        "\n"
        "\n"
        "class Params:\n"
        "    def limit(self):\n"
        "        return 2\n"
    )
    (callers / "use.py").write_text("from pkg.mod import Params, Report\n"
                                    "print(Report().line(), Params())\n")
    assert _uncalled(package, [callers]) == ["mod.Params.limit"]


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
