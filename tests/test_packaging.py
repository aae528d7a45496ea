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
