"""Layer spans and counts for one qhv CLI invocation, recorded from outside the library.

Run as a script, this executes one ``qhv`` command with the wrappers
installed and writes its spans and counts as JSON when the command ends:

    PYTHONPATH=src python3 perfbench/spans.py TRACE.json INVOCATION_ID -- oa --n 2 --q 3

The exit code is the command's own.  Spans stay in memory until then.  Each
span is ``[invocation, id, name, start, end, parent]`` with ``perf_counter``
times; hot per-element calls only increment a counter.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# (metric prefix, module, qualified name, kind); spans give "<prefix>_s"
# (self time) and a call count, counts give "<prefix>" itself
TARGETS = (
    ("fields.context", "qhv.fields", "FieldCtx.__init__", "span"),
    ("geometry.params", "qhv.geometry", "validate_params", "span"),
    ("geometry.params", "qhv.geometry", "classical_params", "span"),
    ("geometry.params", "qhv.geometry", "family_params", "span"),
    ("geometry.params", "qhv.geometry", "scan_params", "span"),
    ("geometry.variety", "qhv.geometry", "bm_variety", "span"),
    ("geometry.spectrum", "qhv.geometry", "character_spectrum", "span"),
    ("collineations.build_R", "qhv.collineations", "build_R", "span"),
    ("intersecting_family.family", "qhv.intersecting_family", "family", "span"),
    ("intersecting_family.intersection", "qhv.intersecting_family",
     "intersection_count", "span"),
    ("oa.build", "qhv.oa", "build_oa", "span"),
    ("oa.verify_strength", "qhv.oa", "verify_strength", "span"),
    ("oa.verify_simple", "qhv.oa", "verify_simple", "span"),
    ("oa.export", "qhv.oa", "write_oa", "span"),
    ("oa.export", "qhv.oa", "oa_sidecar", "span"),
    ("codes.build", "qhv.codes", "build_code", "span"),
    ("codes.scale", "qhv.codes", "scale_to_fq", "span"),
    ("codes.extend", "qhv.codes", "doubly_extend", "span"),
    ("codes.min_distance", "qhv.codes", "min_distance", "span"),
    ("codes.rs_check", "qhv.codes", "rs_equivalence_check", "span"),
    ("codes.export", "qhv.codes", "write_code", "span"),
    ("oracles.zero_set", "qhv.oracles", "naive_zero_set", "span"),
    ("oracles.instance", "qhv.oracles", "run_instance", "span"),
    ("intersecting_family.evaluate_calls", "qhv.intersecting_family",
     "AffineForm.evaluate", "count"),
    ("oracles.form_value_calls", "qhv.oracles", "naive_form_value", "count"),
    ("linalg.span_rows", "qhv.linalg", "SpanBuilder.add", "count"),
)

ROOT_SPAN = "cli.main"


# work counts read off a wrapped call's arguments and result
TALLIES = {
    "geometry.variety": lambda args, res: {"geometry.points": len(res)},
    "geometry.spectrum": lambda args, res: {"geometry.hyperplanes": sum(res.values())},
    "collineations.build_R": lambda args, res: {"collineations.elements": len(res)},
    "oa.build": lambda args, res: {"oa.cells": res.runs * res.factors},
    "oa.verify_strength": lambda args, res: {"oa.column_pairs": res.subsets_checked},
    "codes.build": lambda args, res: {"codes.codewords": len(res.codewords)},
    # q^{2n} oracle evaluations per zero set, from the BMParams argument
    "oracles.zero_set": lambda args, res: {"oracles.evals": args[0].ctx.q2 ** args[0].n},
    "linalg.span_rows": lambda args, res: {"linalg.span_independent": int(res)},
}


class Tracer:
    """Span stack and counters for one invocation; patches and restores qhv."""

    def __init__(self, invocation: str = ""):
        self.invocation = invocation
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([self.invocation, sid, name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, prefix: str, fn):
        tally = TALLIES.get(prefix)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            # a layer calling itself (scan_params -> validate_params) stays one span
            if stack and self.spans[stack[-1]][2] == prefix:
                result = fn(*args, **kwargs)
            else:
                sid = self.open(prefix)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.close(sid)
            if tally is not None:
                self.counts.update(tally(args, result))
            return result
        return wrapper

    def _count_wrapper(self, prefix: str, fn):
        counts = self.counts
        tally = TALLIES.get(prefix)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[prefix] += 1
            result = fn(*args, **kwargs)
            if tally is not None:
                counts.update(tally(args, result))
            return result
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target at every ``qhv.*`` module binding that holds it."""
        import qhv  # noqa: F401  (loads every submodule)

        modules = [m for name, m in sys.modules.items()
                   if name == "qhv" or name.startswith("qhv.")]
        for prefix, modname, qualname, kind in TARGETS:
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            owner_name, _, attr = qualname.rpartition(".")
            if owner_name:
                owner = getattr(sys.modules[modname], owner_name)
                self._patch(owner, attr, make(prefix, vars(owner)[attr]))
                continue
            original = getattr(sys.modules[modname], attr)
            wrapped = make(prefix, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------

def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of the intervals, clipped to [start, end]."""
    total, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            total += e - s
            reach = e
    return total


def self_times(spans: list[list]) -> dict[str, float]:
    """Per span name: summed duration minus the part its child spans cover."""
    children: dict[tuple, list] = defaultdict(list)
    for inv, _, _, start, end, parent in spans:
        if parent is not None:
            children[(inv, parent)].append((start, end))
    out: dict[str, float] = defaultdict(float)
    for inv, sid, name, start, end, _ in spans:
        out[name] += (end - start) - _covered(children[(inv, sid)], start, end)
    return dict(out)


def span_calls(spans: list[list]) -> Counter:
    return Counter(s[2] for s in spans)


def main(argv: list[str]) -> int:
    trace_path, invocation, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: spans.py TRACE.json INVOCATION_ID -- QHV_ARGS...")
    import qhv.cli

    tracer = Tracer(invocation)
    tracer.install()
    main_start = time.monotonic()
    root = tracer.open(ROOT_SPAN)
    code = 0
    try:
        qhv.cli.main.main(args=args, prog_name="qhv")
    except SystemExit as exc:
        code = exc.code
    finally:
        tracer.close(root)
        tracer.uninstall()
        with open(trace_path, "w") as fh:
            json.dump({"main_start": main_start, "spans": tracer.spans,
                       "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
