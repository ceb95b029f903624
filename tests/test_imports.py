"""The library runs on numpy alone: importing scipy would load a second BLAS into every process.  And its
layers import downwards: thermo needs channels, not the correlators built on top of it, and the package
does not need its command-line front end.  And every module uses each name it imports, and every top-level
name of the library is read somewhere."""

import ast
import json
import textwrap
from collections import Counter
from pathlib import Path

from conftest import run_capped

SCRIPT = textwrap.dedent(
    """
    import sys
    import numpy as np
    from hbts import channels, finite_state, parent_ham, thermo
    from hbts import tensor_core as tc

    lam = tc.paper_isometry()
    assert channels.choi_check(channels.extension_channel(lam, 4)).completely_positive
    transpose = np.eye(4)[[0, 2, 1, 3]]
    assert channels.choi_check(channels.Channel(2, 1, 1, transpose)).choi_min_eigenvalue < 0
    finite_state.recursion_check(lam, tc.TopTensor(2, np.eye(2) / np.sqrt(2)), 3)
    thermo.reduced_infinity(lam, 4)
    parent_ham.diagonalize(parent_ham.assemble(parent_ham.build_interaction(lam), 6))
    print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """
)


def test_library_does_not_import_scipy():
    out = run_capped(["-c", SCRIPT], 2 << 30)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


# the package __init__ imports every module, so thermo is loaded under a bare package that runs none of it
THERMO_ALONE = textwrap.dedent(
    """
    import importlib.util, json, sys, types
    package = types.ModuleType("hbts")
    package.__path__ = importlib.util.find_spec("hbts").submodule_search_locations
    sys.modules["hbts"] = package
    import hbts.thermo
    print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "hbts")))
    """
)


def test_thermo_does_not_import_the_correlators():
    out = run_capped(["-c", THERMO_ALONE], 2 << 30)
    assert out.returncode == 0, out.stderr
    loaded = json.loads(out.stdout)
    assert "hbts.thermo" in loaded and "hbts.channels" in loaded
    assert "hbts.correlators" not in loaded


BARE_IMPORT = 'import json, sys\nimport hbts\nprint(json.dumps([name in sys.modules for name in ("hbts.cli", "argparse")]))'


def test_import_hbts_loads_neither_the_cli_nor_argparse():
    out = run_capped(["-c", BARE_IMPORT], 2 << 30)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == [False, False]


ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "hbts").glob("*.py") if p.name != "__init__.py")
MODULES += sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names a module imports (bar ``annotations``) that no ``ast.Name`` in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``import a.b as c`` and ``from a import b as c`` bind ``c``
                name = alias.asname or alias.name.split(".")[0]
                if name not in ("annotations", "*"):
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return ["%s (line %d)" % (name, line) for name, line in sorted(imported.items()) if name not in used]


def test_the_check_finds_an_unused_import():
    assert unused_imports("import numpy as np\nfrom os import path, sep\nprint(sep)\n") == [
        "np (line 1)", "path (line 2)"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.path.join('a')\n") == []


def test_every_import_is_used():
    unused = {str(p.relative_to(ROOT)): unused_imports(p.read_text(encoding="utf-8")) for p in MODULES}
    assert {path: names for path, names in unused.items() if names} == {}


def unread_names(defined: dict[str, str], sources: dict[str, str]) -> list[str]:
    """Top-level ``def``, ``class`` and assigned names of the ``defined`` modules, dunders aside, that no module
    of ``sources`` reads outside the name's own definition: as an ``ast.Name`` load, an attribute or an import
    alias.  Both map a path to its text; names are matched by spelling alone, whatever module reads them."""

    def reads(tree) -> list[str]:
        out = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                out.append(node.id)
            elif isinstance(node, ast.Attribute):
                out.append(node.attr)
            elif isinstance(node, ast.alias):
                out.extend(node.name.split("."))
        return out

    total = Counter(name for text in sources.values() for name in reads(ast.parse(text)))
    unread = []
    for path, text in defined.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = Counter(reads(node))
            unread += ["%s: %s (line %d)" % (path, name, node.lineno) for name in names
                       if not (name.startswith("__") and name.endswith("__")) and total[name] == own[name]]
    return unread


def test_the_check_finds_an_unread_name():
    module = textwrap.dedent(
        """
        import os
        A = 1
        B: int = A
        __all__ = []
        def f():
            return f()
        class C:
            pass
        os.path
        """
    )
    sources = {"m.py": module, "t.py": "from m import C\n"}
    assert unread_names({"m.py": module}, sources) == ["m.py: B (line 4)", "m.py: f (line 6)"]


def test_every_top_level_name_is_read():
    sources = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8")
               for folder in ("src", "tests", "perfbench") for p in sorted((ROOT / folder).rglob("*.py"))}
    library = {path: text for path, text in sources.items() if path.startswith("src/hbts/")}
    assert unread_names(library, sources) == []
