"""The four benchmark workloads and the inputs generated from a seed.

Each workload is a fixed list of operations run in order, one after the
other, as one user would run them.  An operation is either a `simra` command
line (run through `simra.cli.main`) or, where no command exists yet, a
library call.  Only two inputs depend on the seed: the sublattice basis of
`certify` and the `schmidt-fuzz` seed of `spectrum`; everything else is
fixed so that later changes can be compared on the same work.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

DEFAULT_SEED = 1

NAMES = ("scan", "certify", "analyze", "spectrum")

# Subcommands that take --run and so load (today: replay) a run directory.
RUN_SUBCOMMANDS = ("exponents", "construct", "transfer", "extremal", "plot")

# Sublattices of index 6 in Z^2 in Hermite normal form [[a, b], [0, d]],
# a*d = 6, 0 <= b < d, with every entry at most 3.  The first is the default.
SUBLATTICE_FAMILY = (
    [[2, 1], [0, 3]],
    [[2, 0], [0, 3]],
    [[2, 2], [0, 3]],
    [[3, 0], [0, 2]],
    [[3, 1], [0, 2]],
)

_SQRT2 = {"type": "algebraic", "minpoly": [-2, 0, 1], "interval": ["1", "2"]}

ORACLE_PRESETS = ("cbrt2", "liouville-sqrt2", "sqrt2", "sqrt2-even-x0")
ORACLE_XMAX = 2000


def sublattice_basis(seed: int) -> list[list[int]]:
    return SUBLATTICE_FAMILY[(seed - DEFAULT_SEED) % len(SUBLATTICE_FAMILY)]


def sublattice_config(seed: int) -> dict:
    return {
        "n": 1,
        "coords": [{"type": "rational", "value": "1"}, _SQRT2],
        "S": {"type": "sublattice", "basis": sublattice_basis(seed)},
    }


@dataclass
class Op:
    """One operation of a workload.

    `label` names the operation in golden records and reports.  `argv` is a
    command line, or None for the library oracle cross-check.  `outputs`
    are the files (relative to the work directory) the operation writes or
    rewrites, hashed after it ends.  `seeded` marks operations whose output
    depends on the seed, which are checked by hash only at the default seed.
    """

    label: str
    argv: list[str] | None
    outputs: list[str] = field(default_factory=list)
    seeded: bool = False

    @property
    def subcommand(self) -> str:
        return self.argv[0] if self.argv else "oracle"


@dataclass
class Workload:
    name: str
    seed: int
    ops: list[Op]
    # configuration document of every target the workload uses, by name;
    # loading them (root isolation included) is part of set-up
    targets: dict[str, dict]
    # files written into the work directory before the first operation
    files: dict[str, str] = field(default_factory=dict)


def _run_ops(run_dir: str, label: str, ops: list[tuple[str, list[str], str]]):
    out = []
    for tag, args, artifact in ops:
        out.append(Op(f"{label}.{tag}", [args[0], "--run", run_dir] + args[1:],
                      [os.path.join(run_dir, artifact),
                       os.path.join(run_dir, "manifest.json")]))
    return out


def _enumerate(label: str, source: list[str], xmax: str, out: str,
               seeded: bool = False) -> Op:
    return Op(label, ["enumerate"] + source + ["--xmax", xmax, "--out", out],
              [os.path.join(out, "minimal_points.csv"),
               os.path.join(out, "manifest.json")], seeded)


def _presets(*names: str) -> dict[str, dict]:
    from simra import presets  # the preset documents come from the program

    return {name: presets.preset_config(name) for name in names}


def build(name: str, seed: int) -> Workload:
    """The workload `name` with its inputs generated from `seed`."""
    if name == "scan":
        return Workload(name, seed, [
            _enumerate("scan.cbrt2", ["--preset", "cbrt2"], "200000", "cbrt2"),
            _enumerate("scan.sqrt2-even-x0", ["--preset", "sqrt2-even-x0"],
                       "1000000", "sqrt2-even-x0"),
        ], _presets("cbrt2", "sqrt2-even-x0"))
    if name == "certify":
        cfg = sublattice_config(seed)
        return Workload(name, seed, [
            _enumerate("certify.sublattice", ["--config", "sublattice.json"],
                       "400", "sublattice", seeded=True),
            Op("certify.oracle", None, ["oracle.json"]),
        ], {"sublattice": cfg, **_presets(*ORACLE_PRESETS)},
            {"sublattice.json": json.dumps(cfg, sort_keys=True) + "\n"})
    if name == "analyze":
        return Workload(name, seed, [
            _enumerate("analyze.enumerate", ["--preset", "cbrt2"], "100000", "run"),
        ] + _run_ops("run", "analyze", [
            ("exponents", ["exponents"], "exponents.json"),
            ("construct-0", ["construct", "--i0", "0"], "family_i0_0.json"),
            ("construct-1", ["construct", "--i0", "1"], "family_i0_1.json"),
            ("transfer", ["transfer", "--alpha", "2/5", "--beta", "3/5"],
             "transfer.json"),
            ("extremal", ["extremal", "--alpha", "1", "--beta", "1",
                          "--eps", "0", "--C", "1"], "extremal.json"),
            ("plot", ["plot", "--what", "envelope"], "envelope.svg"),
        ]), _presets("cbrt2"))
    if name == "spectrum":
        return Workload(name, seed, [
            Op("spectrum.lambda-n", ["lambda-n", "--n", "10", "--out", "lambda.csv"],
               ["lambda.csv"]),
            Op("spectrum.frontier-3", ["frontier", "--n", "3", "--grid", "401",
                                       "--out", "frontier3.csv"], ["frontier3.csv"]),
            Op("spectrum.frontier-5", ["frontier", "--n", "5", "--grid", "401",
                                       "--out", "frontier5.csv"], ["frontier5.csv"]),
            Op("spectrum.schmidt-fuzz", ["schmidt-fuzz", "--dim", "5", "--count",
                                         "1000", "--seed", str(seed),
                                         "--out", "schmidt.json"],
               ["schmidt.json"], seeded=True),
        ], {})
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
