import ast
import os
import subprocess
import sys
import types

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

IMPORT_ALL = """
import pkgutil, sys
import crflab
for mod in pkgutil.walk_packages(crflab.__path__, "crflab."):
    __import__(mod.name)
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""


def test_package_loads_no_scipy():
    # numpy is the package's only numerical backend; scipy would cost
    # about 0.3 s and 25 MB of RSS at import
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_ALL], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"


SOLVER_IMPORTS = """
import sys
import crflab, crflab.flow, crflab.elliptic, crflab.models, crflab.tensors, crflab.io
print(sorted(m for m in sys.modules if m.startswith("numpy.polynomial")))
"""


def test_solver_modules_load_no_numpy_polynomial():
    # only models.integrate_hopf takes Gauss-Legendre nodes, and it imports
    # them itself; numpy.polynomial would add about 5 ms to every set-up
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", SOLVER_IMPORTS], capture_output=True, text=True, env=env,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_geometry_is_the_one_transform_layer():
    # flow and elliptic transform only through TorusChart
    for name in ("flow.py", "elliptic.py"):
        with open(os.path.join(SRC, "crflab", name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "fft":
                assert not (isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")), name
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = [a.name for a in node.names] + [getattr(node, "module", None) or ""]
                assert not any("fft" in m for m in modules), name


def test_solvers_form_the_metric_only_through_plus_hessian():
    # omega + i ddbar phi has one recipe: neither solver names complex_hessian
    for name in ("flow.py", "elliptic.py"):
        with open(os.path.join(SRC, "crflab", name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.alias):
                names.add(node.asname or node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        assert "complex_hessian" not in names, name
        assert "plus_hessian" in names, name


def _values_round_trips(source):
    # lines of herm_components(<expr>.values) calls outside HermitianMatrixField
    tree = ast.parse(source)
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == "HermitianMatrixField":
            inside.update(id(n) for n in ast.walk(node))
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside or not node.args:
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        arg = node.args[0]
        if callee == "herm_components" and isinstance(arg, ast.Attribute) and arg.attr == "values":
            lines.append(node.lineno)
    return lines


def test_only_the_field_takes_components_of_its_matrix():
    # a Hermitian field's matrix <-> components round trip has one home,
    # HermitianMatrixField: callers read the field's .parts instead
    assert _values_round_trips("geometry.herm_components(g.values)\n") == [1]
    assert _values_round_trips(
        "class HermitianMatrixField:\n    p = herm_components(self.values)\n") == []
    found = []
    package = os.path.join(SRC, "crflab")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                found += [f"{name}:{line}" for line in _values_round_trips(fh.read())]
    assert found == []


def _references(source, strings=False):
    # names a module's code refers to: loaded names, attributes and imported
    # names, and with ``strings`` each dotted piece of a string constant (the
    # benchmark's tracer names the functions it patches in strings)
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def _python_sources(root, skip=()):
    for folder, _, files in os.walk(root):
        for name in sorted(files):
            if name.endswith(".py") and name not in skip:
                with open(os.path.join(folder, name), encoding="utf-8") as fh:
                    yield name, fh.read()


def test_every_exported_name_has_a_caller():
    # crflab.__all__ lists what the package offers; a name that only tests
    # call does not belong in it
    import crflab

    assert sorted(crflab.__all__) == sorted(
        name for name, value in vars(crflab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert "f" in _references("f(1)\n") and "g" not in _references("def g(): pass\n")
    assert "step" in _references("patch('crflab.flow', 'step')\n", strings=True)
    used = set()
    for _, source in _python_sources(os.path.join(SRC, "crflab"), skip=("__init__.py",)):
        used |= _references(source)
    for _, source in _python_sources(os.path.join(SRC, os.pardir, "perfbench")):
        used |= _references(source, strings=True)
    assert sorted(set(crflab.__all__) - used) == []


def _unused_imports(source):
    # names a module imports and never loads
    tree = ast.parse(source)
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_imports_a_name_it_does_not_use():
    # elliptic imports flow.step only so that the benchmark's tracer, which
    # patches a function wherever it is looked up, finds it there too
    assert _unused_imports("import os\nfrom a import b, c as d\nd(os.sep)\n") == {"b"}
    found = {
        name: sorted(_unused_imports(source))
        for name, source in _python_sources(os.path.join(SRC, "crflab"), skip=("__init__.py",))
    }
    assert {name: unused for name, unused in found.items() if unused} == {"elliptic.py": ["step"]}


def _writing_opens(source):
    # the enclosing function (None at module level) of each open(...) call
    # that may write: a mode with "w", "a", "x" or "+", a mode that is not a
    # string literal, or os.open / os.fdopen, whose flags are not checked
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
                if owner == "os" and name in ("open", "fdopen"):
                    found.append(function)
                elif name == "open" and owner in (None, "io", "builtins"):
                    modes = child.args[1:2] + [k.value for k in child.keywords if k.arg == "mode"]
                    for mode in modes:
                        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                                and not set(mode.value) & set("wax+")):
                            found.append(function)
            visit(child, function)

    visit(ast.parse(source), None)
    return found


def test_files_are_written_only_by_atomic_write():
    # every output is written whole: write-then-rename in io._atomic_write
    # is the one place that opens a file for writing
    probe = "def f(p, m):\n    open(p)\n    open(p, 'rb')\n    open(p, mode='a')\n    open(p, m)\n"
    assert _writing_opens(probe) == ["f", "f"]
    assert _writing_opens("with open('x', 'w+') as fh: pass\nos.fdopen(3)\n") == [None, None]
    found = [
        (name, function)
        for name, source in _python_sources(os.path.join(SRC, "crflab"))
        for function in _writing_opens(source)
    ]
    assert found == [("io.py", "_atomic_write")]
