"""The package's modules reach each other only through public names: an
underscore name is free to change inside its own module."""

import ast
import os
import pathlib
import subprocess
import sys

import lyricstats

PACKAGE = pathlib.Path(lyricstats.__file__).parent
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node) -> str | None:
    """`a.b.c` for a chain of attribute lookups on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def private_uses(path: pathlib.Path) -> list[str]:
    """Each `file:line` of `path` that imports, or looks up, an underscore
    name of another lyricstats module."""
    own = "lyricstats" if path.stem == "__init__" else f"lyricstats.{path.stem}"
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    modules = {"lyricstats": "lyricstats"}  # local name -> the lyricstats module it names
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lyricstats":
                    modules[alias.asname or alias.name.split(".")[0]] = alias.name if alias.asname else "lyricstats"
        elif isinstance(node, ast.ImportFrom):
            source = "lyricstats" + (f".{node.module}" if node.module else "") if node.level else node.module or ""
            if source.split(".")[0] != "lyricstats":
                continue
            for alias in node.names:
                if _private(alias.name) and source != own:
                    found.append(f"{path.name}:{node.lineno} imports {source}.{alias.name}")
                elif source == "lyricstats":
                    modules[alias.asname or alias.name] = f"lyricstats.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            owner = _dotted(node.value)
            head, _, rest = (owner or "").partition(".")
            if head in modules:
                module = ".".join(filter(None, (modules[head], rest)))
                if module != own:
                    found.append(f"{path.name}:{node.lineno} uses {module}.{node.attr}")
    return found


def test_no_module_uses_another_modules_private_name():
    assert [use for path in sorted(PACKAGE.glob("*.py")) for use in private_uses(path)] == []


def test_guard_sees_each_form(tmp_path):
    path = tmp_path / "style.py"
    path.write_text(
        "import lyricstats.corpus\n"
        "import lyricstats.corpus as c\n"
        "from lyricstats import weat\n"
        "from lyricstats.corpus import _EDGE, tokenize\n"
        "from .weat import _scores\n"
        "from lyricstats.style import _own\n"
        "lyricstats.corpus._ANNOTATION, c._ANNOTATION, weat._p_values, weat.run_battery, _own\n"
    )
    assert private_uses(path) == [
        "style.py:4 imports lyricstats.corpus._EDGE",
        "style.py:5 imports lyricstats.weat._scores",
        "style.py:7 uses lyricstats.corpus._ANNOTATION",
        "style.py:7 uses lyricstats.corpus._ANNOTATION",
        "style.py:7 uses lyricstats.weat._p_values",
    ]


def test_permutation_core_imports_no_package_module():
    """`permutation` is a leaf that imports only the standard library and
    numpy: any module can use the core without loading `weat` or
    `embeddings`."""
    modules = set()
    for node in ast.walk(ast.parse((PACKAGE / "permutation.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add("." if node.level else node.module.split(".")[0])
    assert "numpy" in modules and modules - {"numpy"} <= sys.stdlib_module_names


def test_cli_import_leaves_numpy_random_unloaded():
    """numpy loads `numpy.random` on first use; the permutation core looks up
    `np.random.default_rng` only when it draws, so a command that draws
    nothing does not pay for that import."""
    code = "import sys, lyricstats.cli; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    assert subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True).stdout == "False\n"


def unnamed_functions(modules, sources) -> list[str]:
    """The public top-level functions defined in `modules` that no file of
    `sources` names: as a name, an attribute or an imported name."""
    defined = {
        node.name
        for path in modules
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    named = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return sorted(defined - named)


def test_every_public_function_serves_the_package_its_tools_or_the_benchmark():
    """A public function that only tests call is a test helper: it belongs
    under tests/. `__init__` re-exports names without using them, and the
    benchmark's own tests are tests."""
    modules = sorted((REPO_ROOT / "src" / "lyricstats").glob("*.py"))
    sources = [path for path in modules if path.name != "__init__.py"]
    sources += sorted((REPO_ROOT / "demos").glob("*.py")) + sorted((REPO_ROOT / "tools").glob("*.py"))
    sources += [path for path in sorted((REPO_ROOT / "perfbench").glob("*.py")) if not path.name.startswith("test_")]
    assert unnamed_functions(modules, sources) == []


def test_unnamed_function_guard_sees_each_form(tmp_path):
    module, user = tmp_path / "m.py", tmp_path / "user.py"
    module.write_text("def called(): pass\ndef looked_up(): pass\ndef imported(): pass\ndef unused(): unused()\n"
                      "def _private(): pass\nclass C:\n    def method(self): pass\n")
    user.write_text("from m import imported\nimport m\ncalled()\nm.looked_up\n")
    assert unnamed_functions([module], [user]) == ["unused"]
