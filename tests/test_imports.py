"""Every name a sipr module imports is used there, every name it exports is bound there, and
every private module-level function or class is used somewhere in the package; no module reads
an underscore attribute of another object, and every method or property of a package class is
read in the package or named in the README; importing the CLI leaves scipy.stats unloaded, and
no command loads scipy.optimize.

No linter is a test dependency; these scans use the standard library's ast.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "sipr"
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Local name -> line of every import binding in the module."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def exported_names(tree: ast.Module) -> list[str]:
    """The strings listed in the module's __all__ (empty without one)."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    return []


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, plus the strings listed in __all__."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported_names(tree))


def bound_names(tree: ast.Module) -> set[str]:
    """Names the module binds at top level: imports, functions, classes, assignments."""
    out = set(imported_names(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out |= {t.id for t in targets if isinstance(t, ast.Name)}
    return out


def dangling_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = bound_names(tree)
    return [name for name in exported_names(tree) if name not in bound]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_an_unused_import_and_spares_exports():
    source = (
        "import os\nimport numpy as np\nfrom .data import Dataset, load_csv\n"
        "from .geometry import greens_matrix\n__all__ = ['greens_matrix']\n"
        "def f():\n    return np.zeros(1), load_csv\n"
    )
    assert unused_imports(source) == ["os (line 1)", "Dataset (line 3)"]


EXPORTING = [p for p in MODULES if exported_names(ast.parse(p.read_text()))]


@pytest.mark.parametrize("path", EXPORTING, ids=lambda p: p.name)
def test_module_binds_every_export(path):
    assert dangling_exports(path.read_text()) == []


def test_scan_flags_a_dangling_export():
    source = (
        "from .data import load_csv\nimport numpy as np\nX: int = 1\nY = 2\n"
        "def f():\n    pass\nclass C:\n    pass\n"
        "__all__ = ['load_csv', 'np', 'X', 'Y', 'f', 'C', 'gone']\n"
    )
    assert dangling_exports(source) == ["gone"]


def referenced_names(node: ast.AST) -> set[str]:
    """Names a node reads, as a Name, as an Attribute or in a from-import."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out |= {alias.name for alias in sub.names}
    return out


def orphaned_definitions(sources: dict[str, str]) -> list[str]:
    """module:name of every private module-level function or class that no
    other statement of the package references (its own body does not count)."""
    statements = [(name, node) for name, source in sources.items() for node in ast.parse(source).body]
    refs = [referenced_names(node) for _, node in statements]
    out = []
    for i, (name, node) in enumerate(statements):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name.startswith("_"):
            if not any(node.name in used for j, used in enumerate(refs) if j != i):
                out.append(f"{name}:{node.name}")
    return out


def test_every_private_definition_is_used():
    assert orphaned_definitions({p.name: p.read_text() for p in MODULES}) == []


def test_scan_flags_an_orphaned_private_definition():
    sources = {
        "a.py": (
            "def _orphan(n):\n    return _orphan(n - 1) if n else 0\n"
            "def _called():\n    pass\nclass _Imported:\n    pass\n"
            "def _read_as_attribute():\n    pass\ndef public():\n    return _called()\n"
        ),
        "b.py": "from .a import _Imported\nfrom . import a\nx = a._read_as_attribute\n",
    }
    assert orphaned_definitions(sources) == ["a.py:_orphan"]


# _Geometry's unit box, its factored unit-box saddle and the unit-box points:
# only geometry.py knows the unit box, and every other module gets its solves
# back in the caller's units (_Geometry.interpolant, power_function, ...).
UNIT_BOX_ATTRIBUTES = {"box", "saddle", "U"}


def unit_box_readers(sources: dict[str, str]) -> list[str]:
    """module:line .name of every read of a unit-box attribute outside geometry.py."""
    out = []
    for name, source in sources.items():
        if name != "geometry.py":
            out += [f"{name}:{node.lineno} .{node.attr}" for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Attribute) and node.attr in UNIT_BOX_ATTRIBUTES]
    return sorted(out)


def test_only_geometry_reads_the_unit_box():
    assert unit_box_readers({p.name: p.read_text() for p in MODULES}) == []


def test_scan_flags_a_unit_box_read_outside_geometry():
    sources = {
        "geometry.py": "s = self.box.scale\nK = self.saddle\n",
        "a.py": "s = geo.box.scale\nsol = geo.saddle.solve(b)\nu = geo.U\nx = geo.X\nbox = 1\n",
    }
    assert unit_box_readers(sources) == ["a.py:1 .box", "a.py:2 .saddle", "a.py:3 .U"]


def private_attribute_readers(sources: dict[str, str]) -> list[str]:
    """module:line .name of every underscore attribute read off anything but self or cls (dunders aside)."""
    out = []
    for name, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.endswith("__")
                    and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
                out.append(f"{name}:{node.lineno} .{node.attr}")
    return sorted(out)


def test_no_module_reads_another_objects_private_attribute():
    assert private_attribute_readers({p.name: p.read_text() for p in MODULES}) == []


def test_scan_flags_a_private_attribute_read_off_another_object():
    sources = {
        "a.py": (
            "class C:\n    def f(self):\n        return self._x, type(self).__name__\n"
            "    @classmethod\n    def g(cls):\n        return cls._y\n"
            "def h(model):\n    return model._solve(1), model.__dict__, model.public\n"
        ),
        "b.py": "from . import a\nz = a._hidden\n",
    }
    assert private_attribute_readers(sources) == ["a.py:8 ._solve", "b.py:2 ._hidden"]


def code_font_names(markdown: str) -> set[str]:
    """Identifiers inside fenced code blocks and inline code spans of a Markdown text."""
    fenced = re.findall(r"```.*?```", markdown, flags=re.S)
    inline = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", markdown, flags=re.S))
    return set(re.findall(r"[A-Za-z_]\w*", " ".join(fenced + inline)))


def unread_members(sources: dict[str, str], readme: str) -> list[str]:
    """Class.name of every method or property of a package class that no attribute read names,
    outside its own body, and that the README does not name in code font (dunders aside)."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    reads: dict[str, int] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                reads[node.attr] = reads.get(node.attr, 0) + 1
    documented = code_font_names(readme)
    out = []
    for tree in trees.values():
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for member in cls.body:
                if not isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) or member.name.endswith("__"):
                    continue
                own = sum(isinstance(n, ast.Attribute) and n.attr == member.name for n in ast.walk(member))
                if reads.get(member.name, 0) == own and member.name not in documented:
                    out.append(f"{cls.name}.{member.name}")
    return sorted(out)


def test_every_class_member_is_read_or_documented():
    readme = (SRC.parent.parent / "README.md").read_text()
    assert unread_members({p.name: p.read_text() for p in MODULES}, readme) == []


def test_scan_flags_an_unread_class_member():
    sources = {
        "a.py": (
            "class C:\n    def __init__(self):\n        self.n = 0\n"
            "    def used(self):\n        return self.n\n"
            "    @property\n    def shown(self):\n        return 1\n"
            "    def recursive(self, k):\n        return self.recursive(k - 1) if k else 0\n"
            "    def unread(self):\n        return 2\n"
        ),
        "b.py": "from .a import C\nvalue = C().used()\n",
    }
    readme = "Read `C().shown` for it.\n\n```python\nc.inline_only\n```\n"
    assert unread_members(sources, readme) == ["C.recursive", "C.unread"]


def test_cli_import_leaves_out_scipy_stats():
    # Every CLI process pays for what sipr.cli imports; scipy.stats alone
    # costs about half a second and sipr needs none of it.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    code = "import sipr.cli, sys; assert 'scipy.stats' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_cli_commands_leave_out_scipy_optimize(tmp_path):
    # scipy.optimize costs about a quarter of a second per process. Importing
    # the CLI must not load it, and neither may an unknown-noise fit (its
    # sigma_y quantiles), a prediction, a crossval or an interpolation.
    x = np.linspace(0.0, 10.0, 20)
    y = np.sin(2.0 * np.pi * x / 10.0) + 0.1 * np.random.default_rng(0).standard_normal(20)
    data = tmp_path / "d.csv"
    data.write_text("x,y\n" + "\n".join(f"{a!r},{b!r}" for a, b in zip(x.tolist(), y.tolist())) + "\n")
    model, out = tmp_path / "m.json", tmp_path / "o.csv"
    common = ["--data", str(data), "--target", "y", "--eta", "1.5"]
    commands = [
        ["fit", *common, "--noise", "unknown", "--model-out", str(model)],
        ["predict", "--model", str(model), "--grid", "0:10:7", "--out", str(out)],
        ["crossval", *common, "--noise", "unknown", "--folds", "3", "--out", str(out)],
        ["interpolate", *common, "--grid", "0.1:9.9:7", "--paths", "2", "--out", str(out)],
    ]
    code = (
        "import sys, sipr.cli\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        f"for argv in {commands!r}:\n"
        "    assert sipr.cli.main(argv) == 0, argv\n"
        "    assert 'scipy.optimize' not in sys.modules, argv\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)
