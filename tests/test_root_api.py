"""The package root re-exports exactly the names the demos and the benchmark import."""

import ast
import inspect
from pathlib import Path

import ezdlab

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*(ROOT / "bench").glob("*.py"), *(ROOT / "demos").glob("*.py")])


def _root_imports(source: str) -> set[str]:
    """Names taken by `from ezdlab import ...`, at any depth of the module."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "ezdlab" and node.level == 0
        for alias in node.names
    }


def _used_names() -> dict[str, str]:
    return {name: path.name for path in SCRIPTS for name in _root_imports(path.read_text())}


def test_walker_finds_nested_imports():
    source = "def f():\n    from ezdlab import a, b as c\n    from ezdlab.lab import d\n"
    assert _root_imports(source) == {"a", "b"}


def test_root_exports_every_name_scripts_import():
    used = _used_names()
    assert used
    missing = sorted(f"{script}: {name}" for name, script in used.items() if not hasattr(ezdlab, name))
    assert not missing, f"names imported from the ezdlab root that it lacks: {missing}"


def test_root_exports_nothing_else():
    public = {
        name for name, value in vars(ezdlab).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    extra = sorted(public - set(_used_names()))
    assert not extra, f"the ezdlab root re-exports names no demo or bench script imports: {extra}"
