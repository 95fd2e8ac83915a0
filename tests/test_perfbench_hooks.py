"""The benchmark's layer wrappers still find every name they patch."""

import importlib
import importlib.util
from functools import reduce
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for _, modname, qualname, _ in spans.TARGETS:
        module = importlib.import_module(modname)
        target = reduce(getattr, qualname.split("."), module)
        assert callable(target), (modname, qualname)
