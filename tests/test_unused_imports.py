"""Every module-level import in a `gibbsinf` module is used by that module.

The package `__init__`s only re-export, so they are not checked.  The names
below are the runner's imports that `perfbench/tracer.py` wraps by name and
no code in `src/` calls; they go once the tracer hooks the entry points the
run takes (ROADMAP items 1 and 2).  Each must still be a name the tracer
spells out, so the list cannot outlive the hook that needs it.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "gibbsinf"
TRACER = ROOT / "perfbench" / "tracer.py"

TRACER_ONLY = {
    "harness/runner.py": {"mh_run", "build_generator", "build_rate",
                          "build_loss", "build_prior", "build_divergence",
                          "build_mh"},
}

MODULES = sorted(p.relative_to(SRC).as_posix() for p in SRC.rglob("*.py")
                 if p.name != "__init__.py")


def _module_imports(tree: ast.Module) -> dict:
    """The names the module's top-level import statements bind, with their
    lines; `from __future__` imports bind none."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def _unused(path: pathlib.Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return set(_module_imports(tree)) - used


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import_it_makes(module):
    unused = _unused(SRC / module)
    assert unused == TRACER_ONLY.get(module, set()), (
        f"{module}: unused imports {sorted(unused)}")


def test_the_check_sees_an_unused_import(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text("from __future__ import annotations\nimport os\n"
                    "import numpy as np\nfrom a.b import c, d\n"
                    "x = np.zeros(c)\n")
    assert _unused(path) == {"os", "d"}


def test_every_tracer_only_import_is_a_name_the_tracer_hooks():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    spelled = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    for module, names in TRACER_ONLY.items():
        assert names <= spelled, (
            f"{module}: {sorted(names - spelled)} are allowed as unused imports "
            f"for the tracer, which no longer names them")
