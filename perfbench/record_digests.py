"""Record the sha256 of every artifact of seeds 0..N-1 into digests.json.

    python3 perfbench/record_digests.py [--seeds 10]

``run.py`` fails an invocation whose artifacts differ from this table.  Run
this only when an artifact changes on purpose; every recorded invocation
must exit 0 and pass the artifact checks first.  The table is keyed by the
command line, so seeds that pick the same (a, b) share an entry.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    signal.signal(signal.SIGALRM, run._on_alarm)
    table: dict[str, dict] = {}
    run.WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK))
    try:
        for name in sorted(workloads.WORKLOADS):
            for seed in range(args.seeds):
                invs = [inv for inv in workloads.invocations(name, seed)
                        if inv.key not in table]
                # one deadline per seed: a pass is shorter than a run
                harness = run.Harness(workdir, time.monotonic() + run.DEADLINE_S, {})
                for i, inv in enumerate(invs):
                    rec = harness.run_invocation(inv, False, f"s{seed}-{i}")
                    if rec["problems"]:
                        print(f"not recorded, {inv.key}: {rec['problems']}",
                              file=sys.stderr)
                        return 1
                    table[inv.key] = rec["digests"]
                    print(f"{name} seed {seed}: {inv.key}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
