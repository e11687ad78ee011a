"""Properties of the package as a whole: that it imports only the standard
library, that its declared public names exist and have callers, and that no
import goes unused."""

import ast
import importlib
import shutil
import sys
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "owflab"


def _foreign_imports(path: Path) -> list[str]:
    """The modules a source file imports from outside the standard library
    and the owflab package; a relative import stays inside the package."""
    foreign = []
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        for module in modules:
            top = module.partition(".")[0]
            if top != "owflab" and top not in sys.stdlib_module_names:
                foreign.append(f"{path.name}:{node.lineno}: {module}")
    return foreign


def test_package_imports_only_the_standard_library():
    # owflab declares no runtime dependency, so every import anywhere in a
    # module, a function-level one included, is the standard library's or
    # the package's own.
    paths = sorted(PACKAGE.glob("*.py"))
    assert [entry for path in paths for entry in _foreign_imports(path)] == []


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


# The nodes that open a scope of names.
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
# Annotations whose iteration yields their one argument: tuple[X, ...], list[X].
ELEMENTWISE = {"tuple", "list", "Sequence", "Iterable", "Iterator"}


def _class_names(tree: ast.Module, module: str, classes: set[str]) -> dict[str, str]:
    """The label "module.Class" of each class a module defines or imports by
    name, keyed by the name it is bound to."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            names[node.name] = f"{module}.{node.name}"
        elif isinstance(node, ast.ImportFrom) and node.module:
            source = node.module.rpartition(".")[2]
            for alias in node.names:
                if f"{source}.{alias.name}" in classes:
                    names[alias.asname or alias.name] = f"{source}.{alias.name}"
    return names


def _annotated(node, names: dict[str, str]):
    """("one", label) for an annotation naming a class, ("each", label) for a
    container of one class such as tuple[X, ...], None for anything else."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):  # X | None
        sides = [n for n in (node.left, node.right) if not _is_constant(n, None)]
        return _annotated(sides[0], names) if len(sides) == 1 else None
    if isinstance(node, ast.Name) and node.id in names:
        return ("one", names[node.id])
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
        args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
        args = [arg for arg in args if not _is_constant(arg, ...)]
        if len(args) != 1:
            return None
        inner = _annotated(args[0], names)
        if node.value.id in ELEMENTWISE and inner and inner[0] == "one":
            return ("each", inner[1])
    return None


def _is_constant(node, value) -> bool:
    return isinstance(node, ast.Constant) and node.value is value


def _fields(tree: ast.Module, names: dict[str, str]) -> dict[str, dict[str, tuple]]:
    """The annotated fields of each module-level class, as {label: {field:
    ("one" or "each", label)}}, for the fields whose annotation names a class."""
    fields = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            fields[names[cls.name]] = {
                item.target.id: kind
                for item in cls.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and (kind := _annotated(item.annotation, names))
            }
    return fields


class _Scope:
    """The class of each name bound in one module, function or lambda scope,
    for the names whose every binding agrees on it.  A binding gives a class
    when it is a parameter annotated with a class, the first parameter of a
    method (its class), a loop or comprehension variable over a container of
    one class, or an assignment of a class's constructor call; any other
    binding of the name leaves it unresolved."""

    def __init__(self, node, owner, names, fields):
        self.fields = fields
        self.bindings = defaultdict(list)  # name -> [type, or ("of", iterable)]
        self.types = {}
        if not isinstance(node, ast.Module):
            args = node.args
            params = [*args.posonlyargs, *args.args, *args.kwonlyargs]
            for i, arg in enumerate(params):
                if i == 0 and owner is not None:
                    self.bindings[arg.arg].append(("one", owner))
                else:
                    kind = arg.annotation and _annotated(arg.annotation, names)
                    self.bindings[arg.arg].append(kind)
            for arg in (args.vararg, args.kwarg):
                if arg is not None:
                    self.bindings[arg.arg].append(None)
        given = {}  # id of a Name that a binding stores to -> its type
        for sub in ast.walk(node):
            if isinstance(sub, (ast.For, ast.comprehension)):
                given[id(sub.target)] = ("of", sub.iter)
            elif isinstance(sub, ast.AnnAssign):
                given[id(sub.target)] = _annotated(sub.annotation, names)
            elif (
                isinstance(sub, ast.Assign)
                and isinstance(sub.value, ast.Call)
                and isinstance(sub.value.func, ast.Name)
                and sub.value.func.id in names
            ):
                for target in sub.targets:
                    given[id(target)] = ("one", names[sub.value.func.id])
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store):
                self.bindings[sub.id].append(given.get(id(sub)))
            elif isinstance(sub, ast.ExceptHandler) and sub.name:
                self.bindings[sub.name].append(None)
            elif isinstance(sub, ast.alias):
                self.bindings[sub.asname or sub.name.partition(".")[0]].append(None)

    def name_type(self, name: str):
        if name not in self.types:
            self.types[name] = None  # a binding that depends on itself resolves to None
            kinds = set()
            for binding in self.bindings.get(name, [None]):
                if binding is not None and binding[0] == "of":
                    iterable = self.expr_type(binding[1])
                    each = iterable is not None and iterable[0] == "each"
                    binding = ("one", iterable[1]) if each else None
                kinds.add(binding)
            self.types[name] = kinds.pop() if len(kinds) == 1 else None
        return self.types[name]

    def expr_type(self, node):
        if isinstance(node, ast.Name):
            return self.name_type(node.id)
        if isinstance(node, ast.Attribute):
            kind = self.expr_type(node.value)
            if kind and kind[0] == "one":
                return self.fields.get(kind[1], {}).get(node.attr)
        return None


def _uses(tree: ast.Module, module: str, names: dict[str, str], fields: dict):
    """(name, line, receiver) of every name, attribute and imported name in
    a module.  receiver is None for a bare or imported name, "module.Class"
    for an attribute of an object whose class the scope resolves (see
    _Scope), and "" for any other attribute."""
    owners = {}  # attribute node -> the class of its object, or ""
    methods = {
        id(method): f"{module}.{cls.name}"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef)
    }
    # Scopes in walk order, so an inner scope's resolution overrides its
    # enclosing scope's for the attributes inside it.
    for node in ast.walk(tree):
        if isinstance(node, SCOPES):
            scope = _Scope(node, methods.get(id(node)), names, fields)
            for sub in ast.walk(node):
                if isinstance(sub, ast.Attribute):
                    kind = scope.expr_type(sub.value)
                    owners[sub] = kind[1] if kind and kind[0] == "one" else ""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, None
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, owners[node]
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno, None


def _counts(label: str, receiver: str | None) -> bool:
    """Whether a use with this receiver can reach the definition "module.name"
    or "module.Class.method".  A method is reached only as an attribute: a
    bare name of the same spelling does not call it, and an attribute of an
    object whose class is resolved counts only for that class.  A
    module-level name is not reached as an attribute of such an object."""
    owner = label.rpartition(".")[0]
    if "." in owner:
        return receiver == "" or receiver == owner
    return receiver is None or receiver == ""


def _uncalled(package: Path, callers: list[Path]) -> list[str]:
    """The public names of the package's modules that nothing in the package
    or in the caller folders uses.  A use inside a definition that has no
    caller itself does not count, so dead code cannot keep dead code."""
    trees = {path: _parse(path) for path in sorted(package.glob("*.py"))}
    modules = {path: path.stem for path in trees}
    caller_trees = {}
    for folder in callers:
        for path in sorted(folder.glob("*.py")):
            caller_trees[path] = _parse(path)
            modules[path] = f"{folder.name}/{path.stem}"  # matches no package class
    everything = {**trees, **caller_trees}
    classes = {
        f"{modules[path]}.{node.name}"
        for path, tree in everything.items()
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    names = {
        path: _class_names(tree, modules[path], classes) for path, tree in everything.items()
    }
    fields = {}
    for path, tree in everything.items():
        fields.update(_fields(tree, names[path]))
    reached = defaultdict(set)  # name -> {receiver} in the caller folders
    for path, tree in caller_trees.items():
        for name, _, receiver in _uses(tree, modules[path], names[path], fields):
            reached[name].add(receiver)
    uses = defaultdict(list)  # name -> [(path, line, receiver)] inside the package
    for path, tree in trees.items():
        for name, line, receiver in _uses(tree, modules[path], names[path], fields):
            uses[name].append((path, line, receiver))

    spans = {}  # label -> (path, lines) of each definition the callers miss
    for path, tree in trees.items():
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
    Report.line reads self.limit, and Params.limit has no caller.  A
    receiver whose class no annotation, loop or constructor call gives stays
    unresolved, so x.limit with such an x would still count for
    Params.limit."""
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


def test_has_a_caller_resolves_annotated_receivers(tmp_path):
    """Row.width is read through a comprehension over the annotated field
    rows: tuple[Row, ...], Row.depth through a parameter annotated Row |
    None, Row.size through an annotated assignment and Row.kind through a
    constructor call, so none of them keeps the same method of Params alive.
    The unresolved x.limit in the caller keeps Params.limit alive."""
    package, callers = tmp_path / "pkg", tmp_path / "callers"
    package.mkdir()
    callers.mkdir()
    methods = "".join(
        f"    def {name}(self):\n        return 1\n\n"
        for name in ("width", "depth", "size", "kind", "limit")
    )
    (package / "mod.py").write_text(
        f"class Row:\n{methods}\n"
        f"class Params:\n{methods}\n"
        "class Table:\n"
        "    rows: tuple[Row, ...]\n"
        "\n"
        "    def total(self):\n"
        "        return sum(r.width() for r in self.rows)\n"
        "\n"
        "\n"
        "def deepest(row: Row | None, other):\n"
        "    first: Row = other\n"
        "    return row.depth() + first.size()\n"
    )
    (callers / "use.py").write_text(
        "from pkg.mod import Params, Row, Table, deepest\n"
        "\n"
        "\n"
        "def show(x):\n"
        "    row = Row()\n"
        "    print(Table().total(), deepest(None, x), Params(), x.limit(), row.kind())\n"
    )
    assert _uncalled(package, [callers]) == [
        "mod.Params.depth",
        "mod.Params.kind",
        "mod.Params.size",
        "mod.Params.width",
    ]


def test_has_a_caller_resolves_a_loop_over_a_dataclass_field(tmp_path):
    # reduction.TransferReport.violations reads p.ok with p looping over the
    # field points: tuple[TransferPoint, ...], so a dead SamplerParams.ok in
    # a copy of the package is found.
    package = tmp_path / "owflab"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    threshold = package / "threshold.py"
    source = threshold.read_text()
    anchor = "        return self.m <= self.n\n"
    assert source.count(anchor) == 1
    dead = "\n    @property\n    def ok(self) -> bool:\n        return True\n"
    threshold.write_text(source.replace(anchor, anchor + dead))
    callers = [ROOT / "demos", ROOT / "owbench"]
    assert _uncalled(package, callers) == ["threshold.SamplerParams.ok"]


def test_has_a_caller_covers_the_reduction_module(tmp_path):
    # No module is exempt: a dead public function appended to reduction.py
    # in a copy of the package is found like one in any other module.
    package = tmp_path / "owflab"
    shutil.copytree(PACKAGE, package, ignore=shutil.ignore_patterns("__pycache__"))
    reduction = package / "reduction.py"
    reduction.write_text(reduction.read_text() + "\n\ndef dead() -> int:\n    return 1\n")
    callers = [ROOT / "demos", ROOT / "owbench"]
    assert _uncalled(package, callers) == ["reduction.dead"]


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


def _private_uses(path: Path, owner: str, names: set[str]) -> list[str]:
    """Each attribute access to one of ``names`` outside ``class owner``."""
    uses = []

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef) and node.name == owner:
            return
        if isinstance(node, ast.Attribute) and node.attr in names:
            uses.append(f"{path.name}:{node.lineno}: {node.attr}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    visit(_parse(path))
    return uses


def test_only_bittape_touches_its_state():
    # Neither a slot nor a private method of BitTape is used outside it.
    from owflab.bitsampler import BitTape

    slots = set(BitTape.__slots__)
    methods = {
        name for name, value in vars(BitTape).items()
        if callable(value) and name.startswith("_") and not name.startswith("__")
    }
    paths = sorted(PACKAGE.glob("*.py"))
    names = slots | methods
    assert [use for path in paths for use in _private_uses(path, "BitTape", names)] == []
    assert methods == {"_refill"}
    assert slots == {
        "_seed", "_stream", "_total", "_cursor", "_bits", "_window", "_end", "_plan"
    }
