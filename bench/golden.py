"""Golden outputs: the sha256 and entry count of every artifact the
workloads write at the default seed, and the checks that compare a run
against them.

Outputs are gated on equality, never on time.  Artifacts that depend on the
seed (the `certify` sublattice run and the `schmidt-fuzz` report) are
hash-checked only at the default seed; at any other seed they are checked
by invariants instead (see `invariant_failures`).

Record the golden file again (only when an output is meant to change) with

    python3 bench/golden.py

from the root of the repository.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")


def entries(path: str, data: bytes) -> int:
    """Entry count of an artifact: data rows of a CSV, files listed in a
    manifest, top-level keys of other JSON, vertices of an SVG polyline."""
    name = os.path.basename(path)
    if name.endswith(".csv"):
        return max(0, data.count(b"\n") - 1)
    if name == "manifest.json":
        return len(json.loads(data)["files"])
    if name.endswith(".json"):
        return len(json.loads(data))
    if name.endswith(".svg"):
        text = data.decode("utf-8")
        start = text.find('<polyline points="')
        if start < 0:
            return 0
        start += len('<polyline points="')
        return len(text[start:text.index('"', start)].split())
    raise ValueError(f"no entry count defined for {name}")


def record(path: str) -> dict:
    with open(path, "rb") as f:
        data = f.read()
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "entries": entries(path, data)}


def load_golden(path: str = GOLDEN_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def check_outputs(label: str, outputs: dict, expected: dict) -> list[str]:
    """Mismatches between an operation's output records and `expected`
    (golden records or an earlier iteration's), keyed `<label>/<path>`."""
    problems = []
    for path, rec in sorted(outputs.items()):
        key = f"{label}/{path}"
        want = expected.get(key)
        if want is None:
            problems.append(f"{key}: no expected record")
        elif rec != want:
            problems.append(f"{key}: got {rec['entries']} entries sha256 "
                            f"{rec['sha256'][:12]}, expected {want['entries']} "
                            f"entries sha256 {want['sha256'][:12]}")
    return problems


def csv_points(path: str, n: int) -> list[tuple[int, ...]]:
    with open(path, "r", encoding="utf-8") as f:
        rows = f.read().splitlines()[1:]
    return [tuple(int(v) for v in row.split(",")[1:n + 2]) for row in rows]


def invariant_failures(label: str, workdir: str, seed: int, loaded: dict) -> list[str]:
    """Seed-independent checks of a seeded operation's outputs.

    schmidt-fuzz: the exact height-product ratio stays <= 4 and height
    duality holds exactly (acceptance criterion 09).  Sublattice enumerate:
    its points equal `brute_force_reference`, and the manifest hash is the
    CSV's.
    """
    from simra import minpoints

    from workloads import sublattice_config

    if label == "spectrum.schmidt-fuzz":
        with open(os.path.join(workdir, "schmidt.json"), encoding="utf-8") as f:
            doc = json.load(f)
        out = []
        if not Fraction(doc["maxRatioSq"]) <= 4:
            out.append(f"{label}: maxRatioSq {doc['maxRatioSq']} > 4")
        if doc["dualityExact"] is not True:
            out.append(f"{label}: height duality not exact")
        if doc["seed"] != seed or doc["count"] != 1000:
            out.append(f"{label}: report is for seed {doc['seed']}, "
                       f"count {doc['count']}")
        return out
    if label == "certify.sublattice":
        run = os.path.join(workdir, "sublattice")
        target, approx = loaded["sublattice"]
        ref = minpoints.brute_force_reference(target, approx, 400)
        out = []
        if csv_points(os.path.join(run, "minimal_points.csv"), target.n) != ref.points():
            out.append(f"{label}: points differ from brute_force_reference")
        with open(os.path.join(run, "manifest.json"), encoding="utf-8") as f:
            manifest = json.load(f)
        csv_hash = record(os.path.join(run, "minimal_points.csv"))["sha256"]
        if manifest["files"]["minimal_points.csv"] != "sha256:" + csv_hash:
            out.append(f"{label}: manifest hash is not the CSV's")
        if manifest["config"] != sublattice_config(seed):
            out.append(f"{label}: manifest config is not the generated one")
        return out
    return []


def main() -> int:
    """Run every workload once at the default seed, check the seeded outputs
    by invariants, and write their records as the golden file."""
    import run as bench_run
    from workloads import DEFAULT_SEED, NAMES

    golden = {"seed": DEFAULT_SEED, "artifacts": {}}
    for name in NAMES:
        result = bench_run.run_worker(name, DEFAULT_SEED, trace=False,
                                      invariants=True)
        for op in result["ops"]:
            if op["error"] or op["invariant_failures"]:
                print(f"{op['label']}: {op['error']} {op['invariant_failures']}",
                      file=sys.stderr)
                return 1
            for path, rec in op["outputs"].items():
                golden["artifacts"][f"{op['label']}/{path}"] = rec
    with open(GOLDEN_PATH, "w", encoding="utf-8") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"{len(golden['artifacts'])} golden records -> {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
