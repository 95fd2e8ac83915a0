"""qhv benchmark: seeded CLI workloads timed end to end, with a traced per-layer run.

    python3 perfbench/run.py --workload codes --seed 0 --seconds 28 --trace 0

Run from anywhere; the program is the ``src/qhv`` next to this directory.
Every invocation runs in a fresh interpreter, one at a time (one client in a
closed loop), inside a scratch directory under ``.bench_build/``.  Each of
the workload's invocations runs at least once; cheap ones run again while
they fit into ``--seconds``.  A pass's time is the sum over invocations of
each one's median time.

Every timed spawn runs between two spawns of ``calibrate.py``, a fixed
computation of the benchmark's own, and its time is divided by the mean of
those two calibration times over ``CALIBRATION_REF_S``.  Reported times are
thus seconds on a machine where the calibration takes ``CALIBRATION_REF_S``:
the shared host's changes of speed, which last from seconds to minutes,
largely cancel, while a change of the program's own speed does not.  All
spawns run on one CPU.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics, from traced runs of each invocation next to untraced ones.  The
last line of stdout is the JSON result; the line before it holds the
provenance.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import workloads
from spans import ROOT_SPAN, TARGETS, self_times, span_calls

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
CALIBRATE = HERE / "calibrate.py"

# what calibrate.py takes, spawn to exit, on the reference machine: the
# reported times are seconds at that machine's speed
CALIBRATION_REF_S = 0.25

SETUP_REPEATS = 7
DEADLINE_S = 170.0     # the whole run, set-up included

# a fresh interpreter's fixed cost before any command: import the CLI and
# build every field context the workload needs
SETUP_PROBE = ("import sys, qhv.cli\n"
               "from qhv.fields import field_context\n"
               "for q in sys.argv[1:]:\n"
               "    field_context(int(q))\n"
               "print(qhv.cli.__file__)\n")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("odd_q_s", "s"),
              ("even_q_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER = (
    ("fields.context_s", "s"), ("fields.contexts", "count"),
    ("geometry.params_s", "s"), ("geometry.variety_s", "s"),
    ("geometry.spectrum_s", "s"), ("geometry.hyperplanes", "count"),
    ("geometry.points", "count"),
    ("collineations.build_R_s", "s"), ("collineations.elements", "count"),
    ("intersecting_family.family_s", "s"),
    ("intersecting_family.intersection_s", "s"),
    ("intersecting_family.intersection_calls", "count"),
    ("intersecting_family.evaluate_calls", "count"),
    ("oa.build_s", "s"), ("oa.cells", "count"),
    ("oa.verify_strength_s", "s"), ("oa.column_pairs", "count"),
    ("oa.verify_simple_s", "s"), ("oa.export_s", "s"),
    ("oa.verify_calls_per_array", "calls/array"),
    ("codes.build_s", "s"), ("codes.scale_s", "s"), ("codes.extend_s", "s"),
    ("codes.min_distance_s", "s"), ("codes.rs_check_s", "s"),
    ("codes.export_s", "s"), ("codes.codewords", "count"),
    ("linalg.span_rows", "count"), ("linalg.span_independent", "count"),
    ("linalg.span_useful_ratio", "ratio"),
    ("oracles.zero_set_s", "s"), ("oracles.instance_s", "s"),
    ("oracles.evals", "count"), ("oracles.evals_per_s", "1/s"),
    ("oracles.form_value_calls", "count"),
    ("cli.startup_s", "s"), ("cli.self_s", "s"), ("cli.cpu_s", "s"),
    ("cli.wall_s", "s"), ("cli.trace_overhead_s", "s"),
)


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


class Overrun(Exception):
    """The run passed its deadline."""


def _on_alarm(signum, frame):
    raise Overrun(f"run exceeded {DEADLINE_S:.0f} s")


@dataclass
class Exit:
    spawn: float      # time.monotonic() just before the spawn
    wall: float
    cpu: float
    rss_mb: float
    code: int


class Harness:
    """Spawns qhv processes one at a time and checks what they write."""

    def __init__(self, workdir: Path, deadline: float, digests: dict):
        self.workdir = workdir
        self.deadline = deadline
        self.digests = digests
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("QHV_BUDGET", None)
        self.first_digests: dict[str, dict] = {}

    def spawn(self, argv: list[str], cwd: Path, stderr_path: Path) -> Exit:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Overrun(f"run exceeded {DEADLINE_S:.0f} s")
        with open(stderr_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            signal.setitimer(signal.ITIMER_REAL, remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Exit(start, end - start, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024, proc.returncode)

    def check_checkout(self, qs: list[int]) -> None:
        """One untimed probe: imports the checkout's qhv and warms caches."""
        try:
            res = subprocess.run([sys.executable, "-c", SETUP_PROBE, *map(str, qs)],
                                 cwd=self.workdir, env=self.env, capture_output=True,
                                 text=True, timeout=120)
        except subprocess.TimeoutExpired as exc:
            raise SetupError(f"set-up probe timed out: {exc}") from exc
        if res.returncode != 0:
            raise SetupError(f"set-up probe failed:\n{res.stderr}")
        loaded = Path(res.stdout.strip()).resolve()
        if SRC.resolve() not in loaded.parents:
            raise SetupError(f"qhv.cli loaded from {loaded}, not from {SRC}")

    def calibrate(self) -> float:
        """Time one run of the reference computation, spawn to exit."""
        ex = self.spawn([sys.executable, str(CALIBRATE)], self.workdir,
                        self.workdir / "calibrate.stderr")
        if ex.code != 0:
            raise SetupError("calibration failed:\n"
                             + (self.workdir / "calibrate.stderr").read_text())
        return ex.wall

    def setup_times(self, qs: list[int]) -> list[dict]:
        """Set-up probes, each between two calibrations."""
        out, before = [], self.calibrate()
        for i in range(SETUP_REPEATS):
            ex = self.spawn([sys.executable, "-c", SETUP_PROBE, *map(str, qs)],
                            self.workdir, self.workdir / f"setup{i}.stderr")
            if ex.code != 0:
                raise SetupError("set-up probe failed")
            after = self.calibrate()
            out.append({"wall": ex.wall, "slowdown": slowdown(before, after)})
            before = after
        return out

    def run_invocation(self, inv, traced: bool, tag: str) -> dict:
        cwd = self.workdir / tag
        cwd.mkdir()
        trace_path = self.workdir / f"{tag}.trace.json"
        stderr_path = self.workdir / f"{tag}.stderr"
        if traced:
            argv = [sys.executable, str(HERE / "spans.py"), str(trace_path), tag,
                    "--", *inv.argv]
        else:
            argv = [sys.executable, "-m", "qhv.cli", *inv.argv]
        ex = self.spawn(argv, cwd, stderr_path)
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
        shutil.rmtree(cwd)
        digests = {name: workloads.sha256(data) for name, data in files.items()}
        problems, work = [], {}
        if ex.code != 0:
            tail = stderr_path.read_text(errors="replace").strip()[-400:]
            problems.append(f"exit {ex.code}: {tail}")
        else:
            problems, work = workloads.check_artifacts(inv, files)
        recorded = self.digests.get(inv.key)
        if recorded is not None and recorded != digests:
            problems.append("artifacts differ from the recorded sha256")
        first = self.first_digests.setdefault(inv.key, digests)
        if first != digests:
            problems.append("artifacts differ from an earlier sample"
                            + (" (traced vs untraced)" if traced else ""))
        trace = None
        if traced and trace_path.exists():
            trace = json.loads(trace_path.read_text())
        elif traced:
            problems.append("traced invocation wrote no trace")
        return {"key": inv.key, "parity": inv.parity, "wall": ex.wall,
                "cpu": ex.cpu, "rss_mb": ex.rss_mb, "spawn": ex.spawn,
                "exit": ex.code, "problems": problems, "work": work, "digests": digests,
                "recorded": recorded is not None, "trace": trace}

    def run_samples(self, invs, seconds: float, traced: bool) -> list[list[dict]]:
        """Samples of every invocation; each is an untraced record plus,
        when traced, a traced record of the same command line, and the
        slowdown the calibrations before and after them measured.

        Every invocation runs once.  Then the invocation with the fewest
        samples (the first in workload order on a tie) among those whose last
        sample fits in the time left runs again, until none fits.
        """
        samples: list[list[dict]] = [[] for _ in invs]
        before = self.calibrate()

        def sample(i: int) -> None:
            nonlocal before
            start, tag = time.monotonic(), f"{i}-{len(samples[i])}"
            s = {"untraced": self.run_invocation(invs[i], False, "u" + tag)}
            if traced:
                s["traced"] = self.run_invocation(invs[i], True, "t" + tag)
            after = self.calibrate()
            s["slowdown"] = slowdown(before, after)
            s["duration"] = time.monotonic() - start
            samples[i].append(s)
            before = after

        start = time.monotonic()
        for i in range(len(invs)):
            sample(i)
        while True:
            left = seconds - (time.monotonic() - start)
            fits = [i for i in range(len(invs)) if samples[i][-1]["duration"] <= left]
            if not fits:
                return samples
            sample(min(fits, key=lambda i: len(samples[i])))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def wall_metrics(samples: list[list[dict]], invs) -> dict[str, float]:
    """Per invocation the median untraced wall at reference speed, summed:
    one pass's wall."""
    walls = [statistics.median(s["untraced"]["wall"] / s["slowdown"]
                               for s in inv_samples)
             for inv_samples in samples]
    return {
        "wall_s": sum(walls),
        "odd_q_s": sum(w for w, inv in zip(walls, invs) if inv.parity == "odd"),
        "even_q_s": sum(w for w, inv in zip(walls, invs) if inv.parity == "even"),
    }


def slowdown(before: float, after: float) -> float:
    """How much slower than the reference machine this one ran between two
    calibrations."""
    return (before + after) / 2 / CALIBRATION_REF_S


def at_reference_speed(metrics: dict[str, float], units: dict[str, str],
                       slowdown: float) -> dict[str, float]:
    """Times divided, rates multiplied by the slowdown; other units kept."""
    scale = {"s": 1 / slowdown, "1/s": slowdown}
    return {name: value * scale.get(units[name], 1.0) for name, value in metrics.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def raw_layers(rec: dict) -> dict[str, float]:
    """Self times, span calls and counts of one traced invocation."""
    spans = rec["trace"]["spans"]
    selfs = self_times(spans)
    raw = {f"{prefix}_s": selfs.get(prefix, 0.0)
           for prefix, _, _, kind in TARGETS if kind == "span"}
    raw.update({f"calls:{name}": n for name, n in span_calls(spans).items()})
    raw.update(rec["trace"]["counts"])
    raw.update({
        "cli.startup_s": rec["trace"]["main_start"] - rec["spawn"],
        "cli.self_s": selfs.get(ROOT_SPAN, 0.0),
        "cli.cpu_s": rec["cpu"],
        "cli.wall_s": rec["wall"],
    })
    return raw


def layer_metrics(traced: list[list[dict]]) -> dict[str, float]:
    """Per-layer metrics of one pass: per invocation the median over its
    traced records, summed over invocations; ratios from the sums."""
    total: Counter = Counter()
    for records in traced:
        raws = [raw_layers(r) for r in records]
        for key in set().union(*raws):
            total[key] += statistics.median(r.get(key, 0) for r in raws)
    m = {name: total[name] for name, _ in PER_LAYER}
    m.update({
        "fields.contexts": total["calls:fields.context"],
        "intersecting_family.intersection_calls":
            total["calls:intersecting_family.intersection"],
        "oa.verify_calls_per_array": _ratio(total["calls:oa.verify_strength"],
                                            total["calls:oa.build"]),
        "linalg.span_useful_ratio": _ratio(total["linalg.span_independent"],
                                           total["linalg.span_rows"]),
        "oracles.evals_per_s": _ratio(total["oracles.evals"], total["oracles.zero_set_s"]),
    })
    return m


def print_layers(metrics: dict) -> None:
    """Totals, then the self-time breakdown of the traced wall, then counts."""
    totals = ("cli.wall_s", "cli.cpu_s", "cli.trace_overhead_s")
    wall = metrics["cli.wall_s"]
    for name in totals:
        print(f"  {name:40s} {metrics[name]:12.6f} s")
    parts = sorted((n for n, u in PER_LAYER if u == "s" and n not in totals),
                   key=lambda n: -metrics[n])
    for name in parts:
        print(f"  {name:40s} {metrics[name]:12.6f} s  {100 * metrics[name] / wall:5.1f}%")
    rest = wall - sum(metrics[n] for n in parts)
    print(f"  {'(process exit, not in any span)':40s} {rest:12.6f} s  {100 * rest / wall:5.1f}%")
    for name, unit in PER_LAYER:
        if unit != "s":
            print(f"  {name:40s} {metrics[name]:12.6g} {unit}")


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    """HEAD of the checkout's own .git, read directly; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def all_records(samples: list[list[dict]]) -> list[dict]:
    return [r for inv_samples in samples for s in inv_samples
            for r in (s["untraced"], s.get("traced")) if r is not None]


def provenance(args, invs, setup, samples, failed, attempted) -> dict:
    work: Counter = Counter()
    for inv_samples in samples:
        work.update(inv_samples[0]["untraced"]["work"])
    records = all_records(samples)
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_samples_s": [p["wall"] for p in setup],
        "setup_slowdowns": [p["slowdown"] for p in setup],
        "slowdowns": {inv.key: [s["slowdown"] for s in inv_samples]
                      for inv, inv_samples in zip(invs, samples)},
        "wall_samples_s": {inv.key: [s["untraced"]["wall"] for s in inv_samples]
                           for inv, inv_samples in zip(invs, samples)},
        "work_per_pass": dict(sorted(work.items())),
        "digests_recorded": sum(r["recorded"] for r in records),
        "failed_ratio": failed / attempted,
        "problems": sorted({f"{r['key']}: {p}" for r in records
                            for p in r["problems"]})[:20],
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def measure(args, harness: Harness) -> tuple[dict, dict]:
    invs = workloads.invocations(args.workload, args.seed)
    qs = sorted({q for inv in invs for q in inv.qs})
    harness.check_checkout(qs)
    setup = harness.setup_times(qs) if not args.trace else []

    samples = harness.run_samples(invs, args.seconds, bool(args.trace))
    records = all_records(samples)
    attempted = len(records)
    failed = sum(bool(r["problems"]) for r in records)

    run_slowdown = statistics.median(s["slowdown"] for inv_samples in samples
                                     for s in inv_samples)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print(f"  median slowdown {run_slowdown:.4f} against the reference machine; "
          "measured times (slowdown):")
    for inv, inv_samples in zip(invs, samples):
        times = ", ".join(f"{s['untraced']['wall']:.3f} ({s['slowdown']:.3f})"
                          for s in inv_samples)
        print(f"  qhv {inv.key}: {times} s")
    walls = wall_metrics(samples, invs)
    if args.trace:
        metrics = layer_metrics([[s["traced"] for s in inv_samples]
                                 for inv_samples in samples])
        metrics = at_reference_speed(metrics, dict(PER_LAYER), run_slowdown)
        metrics["cli.trace_overhead_s"] = metrics["cli.wall_s"] - walls["wall_s"]
        print("  at reference speed:")
        print_layers(metrics)
    else:
        metrics = {
            "setup_s": statistics.median(p["wall"] / p["slowdown"] for p in setup),
            **walls,
            "peak_rss_mb": max(s["untraced"]["rss_mb"]
                               for inv_samples in samples for s in inv_samples),
        }
        units = dict(END_TO_END)
        print("  at reference speed:")
        for name, _ in END_TO_END:
            print(f"  {name:12s} {metrics[name]:12.6f} {units[name]}")
    prov = provenance(args, invs, setup, samples, failed, attempted)
    print(f"  failed_ratio {prov['failed_ratio']:.6f} ({failed}/{attempted})")
    for problem in prov["problems"]:
        print(f"  FAILED {problem}")

    table = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }
    return prov, result


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=tuple(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qhv" / "cli.py").is_file():
        print(f"no qhv sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for the harness and everything it spawns: a process that moves
    # between CPUs, or starts a thread pool per CPU, times the scheduler
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    signal.signal(signal.SIGALRM, _on_alarm)
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        harness = Harness(workdir, time.monotonic() + DEADLINE_S,
                          json.loads(DIGESTS.read_text()))
        prov, result = measure(args, harness)
    except (SetupError, Overrun) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
