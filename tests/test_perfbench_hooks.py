"""The benchmark's layer wrappers still find every name they patch."""

import importlib
import importlib.util
import os
import subprocess
import sys
from functools import reduce
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    return spans


def test_every_traced_target_resolves():
    for _, modname, qualname, _ in _spans().TARGETS:
        module = importlib.import_module(modname)
        target = reduce(getattr, qualname.split("."), module)
        assert callable(target), (modname, qualname)


def test_bare_import_registers_every_traced_module():
    # Tracer.install() does only `import qhv`, then looks each target's
    # module up in sys.modules
    modules = sorted({modname for _, modname, _, _ in _spans().TARGETS})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys, qhv\n"
         "print(' '.join(m for m in sys.argv[1:] if m not in sys.modules))",
         *modules],
        env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []
