import ast
import os
import subprocess
import sys

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
