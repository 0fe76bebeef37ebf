"""The package's modules form layers, each importing only from those below:
exactmat < polyring < gradedring < ezd < lab < cli. The package root and
`__main__` are entry points above every layer. No module imports another
module's private (underscore) name. Only `gradedring` reads a ring's
normal-form table: every other module asks the ring for maps and ranks.
An echelon form has one door, `Subspace.from_vectors`, and a ring kernel
in `ezd` another, `annihilator_degree`. A ring that may not vanish past its
bound is refused in one place, `GradedQuotient.top_degree`, which every
analysis reads. Inside the package a matrix is a list of rows: `QMatrix`
appears only in its class, in `exactmat.rref` and in the public
`ezd.mult_map`. No code in `lab` samples a form or searches its partner:
the scans decide through `generic_ezd_decision`. Inside `ezd` one function,
`decision_forms`, picks the linear forms a ring's generic questions are
decided on and checks how many are asked for."""

import ast
from pathlib import Path

from ezdlab.ezd import PairVerdict

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ezdlab"
LAYERS = ["exactmat", "polyring", "gradedring", "ezd", "lab", "cli"]
ENTRY_POINTS = {"__init__", "__main__"}


def _package_imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for every import of a package module, at any depth:
    `from .x import`, `from . import x`, `from ezdlab.x import`, `import ezdlab.x`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "ezdlab":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.append((node.lineno, parts[0]))
            else:
                found.extend((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "ezdlab":
                    found.append((node.lineno, parts[1] if len(parts) > 1 else "__init__"))
    return sorted(found)


def _private_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) for every underscore name a `from` import takes from the
    package, at any depth; dunder names are not private."""
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "ezdlab")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    )


def _table_reads(source: str) -> list[tuple[int, str]]:
    """(line, name) for every attribute named `components` or `normal_forms`
    the source reads, whatever object it is read from."""
    return sorted(
        (node.lineno, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in {"components", "normal_forms"}
    )


def _door_bypasses(source: str, module: str) -> list[tuple[int, str]]:
    """(line, callee) for every call that goes round a door: `Subspace(...)`;
    `cls(...)` inside class `Subspace` or `_echelon_rows(...)` anywhere,
    outside `from_vectors`; and `kernel_basis(...)` in `ezd` outside
    `annihilator_degree`. A call is placed in its innermost function."""
    found = []

    def visit(node, cls, fn):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if (
                name == "Subspace"
                or (name == "cls" and isinstance(f, ast.Name) and cls == "Subspace" and fn != "from_vectors")
                or (name == "_echelon_rows" and fn != "from_vectors")
                or (name == "kernel_basis" and module == "ezd" and fn != "annihilator_degree")
            ):
                found.append((node.lineno, name))
        for child in ast.iter_child_nodes(node):
            visit(child, cls, fn)

    visit(ast.parse(source), None, None)
    return sorted(found)


def test_door_walker_finds_every_bypass():
    source = (
        "a = Subspace(2, ())\n"
        "class Subspace:\n"
        "    def from_vectors(cls, n, vs):\n        return cls(n, _echelon_rows(vs, n))\n"
        "    def zero(cls, n):\n        return cls(n, ())\n"
        "def kernel(m):\n    return exactmat.Subspace(m.cols, _echelon_rows(m, m.cols))\n"
        "def annihilator_degree(r, f, d):\n    return kernel_basis(r)\n"
        "def partner(r):\n    return kernel_basis(r)\n"
    )
    outside_ezd = [(1, "Subspace"), (6, "cls"), (8, "Subspace"), (8, "_echelon_rows")]
    assert _door_bypasses(source, "exactmat") == outside_ezd
    assert _door_bypasses(source, "ezd") == outside_ezd + [(12, "kernel_basis")]


def test_echelon_forms_and_ring_kernels_have_one_door():
    bypasses = [
        f"{path.name}:{line} calls {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _door_bypasses(path.read_text(), path.stem)
    ]
    assert not bypasses, f"calls round Subspace.from_vectors or annihilator_degree: {bypasses}"


# the calls that sample a form or search its partner: `lab` makes none, as
# the scans decide through generic_ezd_decision
SAMPLERS = {"find_ezd_complement", "generic_linear_form"}


def _sampler_calls(source: str) -> list[tuple[int, str]]:
    """(line, callee) for every call of a SAMPLERS name, bare or as an
    attribute, wherever it is made."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name in SAMPLERS:
                found.append((node.lineno, name))
    return sorted(found)


def test_sampler_walker_finds_every_call():
    source = (
        "from .ezd import find_ezd_complement, generic_linear_form\n"
        "def _task(ring, n, s):\n"
        "    ell = generic_linear_form(n, s)\n"
        "    return ezd.find_ezd_complement(ring, ell)\n"
        "def generic_form_probe(ring, n, s):\n"
        "    return find_ezd_complement(ring, generic_linear_form(n, s))\n"
        "FORM = generic_linear_form(3, 0)\n"
    )
    assert _sampler_calls(source) == [
        (3, "generic_linear_form"), (4, "find_ezd_complement"),
        (6, "find_ezd_complement"), (6, "generic_linear_form"), (7, "generic_linear_form"),
    ]


def test_scans_decide_through_generic_ezd_decision():
    calls = _sampler_calls((PACKAGE / "lab.py").read_text())
    assert not calls, f"lab samples a form or searches a partner: {calls}"


SEAM = "decision_forms"


def _form_choices(source: str) -> list[tuple[int, str, str | None]]:
    """(line, choice, innermost function) for every place that picks the
    forms a ring is decided on or checks their count: a call of
    `generic_linear_form`, bare or as an attribute; a call of `linear_form`
    on `[1] * k` or `k * [1]`; and a comparison of `trials`, a name or an
    attribute, with a constant."""
    found = []

    def all_ones(arg):
        return isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mult) and any(
            isinstance(side, ast.List) and len(side.elts) == 1 and getattr(side.elts[0], "value", None) == 1
            for side in (arg.left, arg.right)
        )

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "generic_linear_form":
                found.append((node.lineno, name, fn))
            elif name == "linear_form" and node.args and all_ones(node.args[0]):
                found.append((node.lineno, "all-ones", fn))
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if any(isinstance(x, ast.Constant) for x in sides) and any(
                getattr(x, "id", None) == "trials" or getattr(x, "attr", None) == "trials" for x in sides
            ):
                found.append((node.lineno, "trials", fn))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(source), None)
    return sorted(found)


def test_form_choice_walker_finds_every_case():
    source = (
        "def decision_forms(ring, trials, seed):\n"
        "    if trials < 1:\n        raise ValueError\n"
        "    return (linear_form([1] * ring.nvars),), True\n"
        "def wlp_check(ring, trials=3, seed=0):\n"
        "    if 1 > cfg.trials or trials == 0:\n        raise ValueError\n"
        "    forms = [polyring.linear_form(ring.nvars * [1])] * trials\n"
        "    forms += [ezd.generic_linear_form(ring.nvars, derived_seed(seed, t)) for t in range(trials)]\n"
        "    return linear_form([1, 1]), linear_form([2] * 3), successes == trials\n"
        "ELL = generic_linear_form(3, 0)\n"
    )
    assert _form_choices(source) == [
        (2, "trials", SEAM), (4, "all-ones", SEAM),
        (6, "trials", "wlp_check"), (6, "trials", "wlp_check"), (8, "all-ones", "wlp_check"),
        (9, "generic_linear_form", "wlp_check"), (11, "generic_linear_form", None),
    ]


def test_the_forms_a_ring_is_decided_on_have_one_seam():
    """`generic_ezd_decision`, `wlp_check` and `socle_dims` take their forms
    from `decision_forms` and pick none themselves."""
    choices = _form_choices((PACKAGE / "ezd.py").read_text())
    stray = [f"ezd.py:{line} {what} in {fn}" for line, what, fn in choices if fn != SEAM]
    assert not stray, f"forms picked or counted outside {SEAM}: {stray}"
    assert sorted(what for _, what, _ in choices) == ["all-ones", "generic_linear_form", "trials"]


def test_walker_finds_every_import_form():
    source = (
        "from .polyring import HomogPoly\n"
        "from . import lab\n"
        "def f():\n    from ezdlab.ezd import mult_map\n"
        "import ezdlab.cli\n"
        "from fractions import Fraction\n"
    )
    assert _package_imports(source) == [(1, "polyring"), (2, "lab"), (4, "ezd"), (5, "cli")]


def test_private_walker_finds_every_import_form():
    source = (
        "from .gradedring import _refuse_costly, build_quotient\n"
        "from . import _private\n"
        "def f():\n    from ezdlab.lab import _task as task\n"
        "from ezdlab import __version__\n"
        "from fractions import _gcd\n"
        "from __future__ import annotations\n"
    )
    assert _private_imports(source) == [(1, "_refuse_costly"), (2, "_private"), (4, "_task")]


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(LAYERS) | ENTRY_POINTS


def test_modules_import_only_lower_layers():
    rank = {name: i for i, name in enumerate(LAYERS)}
    top = len(LAYERS)
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        level = rank.get(path.stem, top)
        for line, module in _package_imports(path.read_text()):
            if rank.get(module, top) >= level:
                upward.append(f"{path.name}:{line} imports {module}")
    assert not upward, f"imports that are not from a lower layer: {upward}"


def test_no_module_imports_a_private_name():
    private = [
        f"{path.name}:{line} imports {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, name in _private_imports(path.read_text())
    ]
    assert not private, f"imports of another module's private name: {private}"


def test_table_walker_finds_every_read():
    source = (
        "comp = ring.components[d]\n"
        "nf = comp.normal_forms\n"
        "def f(r):\n    return r.components[0].normal_forms[m]\n"
        "components = normal_forms = None\n"
    )
    assert _table_reads(source) == [(1, "components"), (2, "normal_forms"), (4, "components"), (4, "normal_forms")]


def test_only_gradedring_reads_the_normal_form_table():
    reads = [
        f"{path.name}:{line} reads .{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "gradedring"
        for line, name in _table_reads(path.read_text())
    ]
    assert not reads, f"reads of a ring's normal-form table outside gradedring: {reads}"


REFUSAL = "within the degree bound"


def _refusal_messages(source: str) -> list[tuple[int, str | None]]:
    """(line, innermost class.function or function) for every string
    constant holding REFUSAL that is not a docstring, f-string parts
    included."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}" if where else node.name
        body = getattr(node, "body", None)
        children = list(ast.iter_child_nodes(node))
        if isinstance(body, list) and body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            children.remove(body[0])  # a docstring, or a bare string opening a block: neither is raised
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and REFUSAL in node.value:
            found.append((node.lineno, where))
        for child in children:
            visit(child, where)

    visit(ast.parse(source), None)
    return sorted(found)


def test_refusal_walker_finds_every_message():
    source = (
        '"""Refused when it does not vanish within the degree bound."""\n'
        "class Ring:\n"
        '    """Not within the degree bound."""\n'
        "    def top(self):\n"
        '        """Raises within the degree bound."""\n'
        '        raise ValueError("does not vanish within the degree bound")\n'
        "def check(ring):\n"
        '    raise ValueError(f"{ring} needs to vanish within the degree bound")\n'
        'MESSAGE = "not within the degree bound"\n'
    )
    assert _refusal_messages(source) == [(6, "Ring.top"), (8, "check"), (9, None)]


def test_a_ring_that_may_not_vanish_is_refused_in_one_place():
    messages = [
        (path.name, where)
        for path in sorted(PACKAGE.glob("*.py"))
        for _, where in _refusal_messages(path.read_text())
    ]
    assert messages == [("gradedring.py", "GradedQuotient.top_degree")], (
        f"refusals of a ring that may not vanish outside GradedQuotient.top_degree: {messages}"
    )
    assert [v.name for v in PairVerdict] == ["EXACT_PAIR", "NOT_PAIR"]


# (module, innermost class or function) where a QMatrix may be named; a
# module holding one of them may also import it
QMATRIX_HOMES = {("exactmat", "QMatrix"), ("exactmat", "rref"), ("ezd", "mult_map")}


def _qmatrix_names(source: str) -> list[tuple[int, str | None]]:
    """(line, place) for every `QMatrix` the source names: a name, an
    attribute or an imported name. The place is "import" for an import,
    else the innermost class or function, or None at module level."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.extend((node.lineno, "import") for alias in node.names if alias.name == "QMatrix")
        elif (isinstance(node, ast.Name) and node.id == "QMatrix") or (
            isinstance(node, ast.Attribute) and node.attr == "QMatrix"
        ):
            found.append((node.lineno, where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), None)
    return sorted(found, key=lambda item: item[0])


def test_qmatrix_walker_finds_every_name():
    source = (
        "from .exactmat import QMatrix, rank\n"
        "class QMatrix:\n    rows: int\n"
        "def rref(m: QMatrix) -> QMatrix:\n    return exactmat.QMatrix(1, 1, [1])\n"
        "ZERO = QMatrix(0, 0, ())\n"
        "def f(m):\n    from ezdlab.exactmat import QMatrix as M\n    return m.QMatrix.from_rows([])\n"
        'NAME = "QMatrix"\n'
    )
    assert _qmatrix_names(source) == [
        (1, "import"), (4, "rref"), (4, "rref"), (5, "rref"), (6, None), (8, "import"), (9, "f")
    ]


def test_qmatrix_is_named_only_at_the_public_boundary():
    """A map is built, ranked and reduced as a list of rows; only `rref` and
    the public `mult_map` take or give a QMatrix."""
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        homes = {where for module, where in QMATRIX_HOMES if module == path.stem}
        stray += [
            f"{path.name}:{line}"
            for line, where in _qmatrix_names(path.read_text())
            if where not in homes and not (where == "import" and homes)
        ]
    assert not stray, f"QMatrix named outside its class, rref and mult_map: {stray}"
