"""``tools/reach.py``'s recorder keeps recording when the code it runs
clears the profiler or the tracer, as a test that counts calls with
``sys.setprofile`` does — else the census would silently stop there."""

import dis
import json
import os
import subprocess
import sys

from repro.geometry import dist

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PROBE = """
import sys
from repro.geometry import dist

def counter(frame, event, arg):
    pass

sys.{setter}(counter)
sys.{setter}(None)
dist(0.0, 0.0, 3.0, 4.0)
"""


def _record(tmp_path, setter, *under):
    script = tmp_path / "probe.py"
    script.write_text(PROBE.format(setter=setter))
    out = tmp_path / "hits.json"
    cmd = [sys.executable, os.path.join(ROOT, "tools", "reach.py"),
           "--record", str(out)]
    for path in under:
        cmd += ["--under", path]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(cmd + ["--", str(script)], cwd=ROOT, env=env, check=True)
    doc = json.loads(out.read_text())
    assert doc["status"] == 0
    return doc["hits"].get(dist.__code__.co_filename, [])


def test_a_call_after_setprofile_none_is_recorded(tmp_path):
    code = dist.__code__
    hits = _record(tmp_path, "setprofile")
    assert [code.co_firstlineno, code.co_name] in hits


def test_a_line_after_settrace_none_is_recorded(tmp_path):
    code = dist.__code__
    body = {line for _, line in dis.findlinestarts(code)}
    body.discard(code.co_firstlineno)
    hits = _record(
        tmp_path, "settrace", os.path.dirname(code.co_filename) + os.sep
    )
    assert body & set(hits)
