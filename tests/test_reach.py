"""``tools/reach.py``: its recorder keeps recording when the code it
runs clears the profiler or the tracer, as a test that counts calls
with ``sys.setprofile`` does — else the census would silently stop
there — and a ``# reach:`` marker moves a function the product does
not reach to the "kept" column."""

import dis
import importlib.util
import json
import os
import subprocess
import sys
import textwrap

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


MARKED = textwrap.dedent('''\
    def used():
        pass

    # reach: one-line reason
    def marked_tested():
        pass

    # reach: a reason that runs on
    # over two lines, above a decorator
    @staticmethod
    def marked_unreached():
        pass

    # a plain comment
    def tested():
        pass

    # reach: a blank line between marker and def does not count

    def unreached():
        pass
''')


def test_reach_marker_moves_a_function_to_kept(tmp_path):
    spec = importlib.util.spec_from_file_location(
        "reach", os.path.join(ROOT, "tools", "reach.py")
    )
    reach = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reach)
    path = tmp_path / "mod.py"
    path.write_text(MARKED)
    key = {name: (line, name) for line, name in reach.universe(str(path), False)}
    every, prod, only, kept, none = reach.classify(
        str(path),
        False,
        {key["used"]},
        {key[name] for name in ("used", "marked_tested", "tested")},
    )
    assert len(every) == 5 and prod == {key["used"]}
    assert only == {key["tested"]}
    assert kept == {key["marked_tested"], key["marked_unreached"]}
    assert none == {key["unreached"]}
    # line level ignores the marker
    assert not reach.classify(str(path), True, set(), set())[3]
