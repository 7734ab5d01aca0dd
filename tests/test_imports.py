"""Every top-level package of ``repro`` imports on its own.

``repro/__init__.py`` holds only its docstring and ``__version__``, so
``import repro.x`` loads ``repro.x`` and what it needs, nothing else.
Each import runs in a fresh interpreter: in this process every module
is loaded already, so an import cycle would not show here.
"""

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import repro
from repro.obs.manifest import environment

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "repro")
ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))


def _top_level():
    """The modules and packages directly under ``repro``."""
    names = []
    for entry in sorted(os.listdir(PKG)):
        if entry.endswith(".py") and entry != "__init__.py":
            names.append(entry[:-3])
        elif os.path.isfile(os.path.join(PKG, entry, "__init__.py")):
            names.append(entry)
    return names


def _python(code):
    return subprocess.run(
        [sys.executable, "-c", code], env=ENV, capture_output=True, text=True
    )


def test_every_top_level_package_imports_alone():
    names = _top_level()
    assert {
        "api", "core", "net", "server", "mobility", "index", "experiments",
        "obs",
    } <= set(names)
    with ThreadPoolExecutor(max_workers=4) as pool:
        procs = pool.map(lambda name: _python(f"import repro.{name}"), names)
        failed = {
            name: proc.stderr.strip().splitlines()[-1]
            for name, proc in zip(names, procs)
            if proc.returncode
        }
    assert not failed


def test_the_bare_package_loads_nothing_but_its_version():
    proc = _python(
        "import sys, repro; "
        "print(sorted(m for m in sys.modules if m.startswith('repro')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['repro']"
    assert isinstance(repro.__version__, str)
    assert environment()["repro"] == repro.__version__
