"""Growth curve of `scan`: enumerate_s for cbrt2 as a function of X.

Not gated and not part of the checks; it lets a change to the enumerator
report its gain as a curve in X rather than at one point.

    python3 bench/growth.py

Each X in `XMAX` is enumerated `REPEATS` times in this process through
`simra.cli.main`; the median wall time per X is printed and written to
`.bench_out/growth.json`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

XMAX = (2000, 20000, 200000)
REPEATS = 3


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from simra import cli

    work = os.path.join(OUT, "growth")
    rows = []
    for x in XMAX:
        times, entries = [], None
        for _ in range(REPEATS):
            shutil.rmtree(work, ignore_errors=True)
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["enumerate", "--preset", "cbrt2", "--xmax", str(x),
                               "--out", work])
            times.append(time.perf_counter() - t0)
            if rc != 0:
                print(f"enumerate failed at X = {x}", file=sys.stderr)
                return 1
            with open(os.path.join(work, "manifest.json"), encoding="utf-8") as f:
                entries = json.load(f)["entries"]
        rows.append({"xmax": x, "enumerate_s": statistics.median(times),
                     "samples": times, "entries": entries})
        print(f"cbrt2  X = {x:>9}  enumerate_s median {rows[-1]['enumerate_s']:.4f} s"
              f"  ({REPEATS} runs, {entries} minimal points)")
    shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(OUT, "growth.json"), "w", encoding="utf-8") as f:
        json.dump({"preset": "cbrt2", "rows": rows}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
