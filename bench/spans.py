"""Outside-in tracing of `simra`: spans recorded around the public functions
of each module, installed from the benchmark by attribute assignment.

A span is (name, start, end, parent, op): `op` is the operation the span
belongs to.  Spans are kept in flat arrays while the run goes on and are
written out once, at the end.  Timed (untraced) runs never import this
module.

Each public function is wrapped once and the wrapper is bound wherever a
caller looks the name up: in its own module and in every module that
imported the name (`transference` and `spectra` bind `ivcalc` names at
import, `cli` binds `sha256_hex` and `json_canonical`).  A call made while
the same name is already open on the stack (recursion) runs unwrapped, so
it counts once.
"""

from __future__ import annotations

import gzip
import inspect
import json
from array import array
from time import perf_counter_ns

# Modules whose public functions are layers; `cli` is traced through the
# operation spans the benchmark opens around `simra.cli.main`.
LAYERS = ("minpoints", "model", "rigorous", "ivcalc", "transference",
          "construction", "subspaces", "spectra", "reporting")

OP_PREFIX = "cli."


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.current_op = -1
        self._stack = [-1]
        self._active: list[bool] = []
        self.counters: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(False)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.op.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: int) -> None:
        self.counters[key] = max(self.counters.get(key, value), value)

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording a span named `name`; `observe(tracer, args, kwargs,
        result)` runs after each outermost call."""
        nid = self._id(name)
        active = self._active

        def traced(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            active[nid] = True
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
                active[nid] = False
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of `package`."""
        modules = [m for m in vars(package).values() if inspect.ismodule(m)
                   and m.__name__.startswith(package.__name__ + ".")]
        modules.append(package)
        wrapped = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped[fn] = self.wrap(name, fn, OBSERVERS.get(name))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    # -- output ------------------------------------------------------------

    def spans(self) -> list[tuple[str, int, int, int, int]]:
        return [(self.names[n], s, e, p, o) for n, s, e, p, o in
                zip(self.name_id, self.start, self.end, self.parent, self.op)]

    def write(self, path: str, ops: list[str]) -> None:
        """All spans as gzipped JSON lines: a header, then one span per line."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write(json.dumps({"names": self.names, "ops": ops,
                                "fields": ["name", "start_ns", "end_ns",
                                           "parent", "op"]}) + "\n")
            for row in zip(self.name_id, self.start, self.end, self.parent, self.op):
                f.write("%d %d %d %d %d\n" % row)


def self_times(spans, within=None) -> list[int]:
    """Per span: its duration minus the part of it its children cover.

    `spans` are (name, start, end, parent, op) with parent an index or -1.
    `within(child_name)` selects which children count (default: all).
    Children are clipped to the parent interval and merged where they
    overlap, so each instant is subtracted at most once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for name, s, e, p, _ in spans:
        if p >= 0 and (within is None or within(name)):
            children.setdefault(p, []).append((s, e))
    out = []
    for i, (_, s, e, _, _) in enumerate(spans):
        covered = 0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, s), min(ce, e)
            if ce <= cs:
                continue
            if cur_e is not None and cs <= cur_e:
                cur_e = max(cur_e, ce)
                continue
            if cur_e is not None:
                covered += cur_e - cur_s
            cur_s, cur_e = cs, ce
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(e - s - covered)
    return out


def _observe_points(tracer, args, kwargs, result):
    tracer.count("minpoints.points", len(result.entries))


def _observe_checked(tracer, args, kwargs, result):
    tracer.count("minpoints.verify_checked", result)


def _observe_hashed(tracer, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    tracer.count("cli.bytes_hashed",
                 len(data.encode("utf-8") if isinstance(data, str) else data))


def _observe_bits(tracer, args, kwargs, result):
    tracer.maximum("rigorous.max_bits", args[1] if len(args) > 1 else kwargs["bits"])


OBSERVERS = {
    "minpoints.enumerate_minimal_points": _observe_points,
    "minpoints.verify_minimality": _observe_checked,
    "reporting.sha256_hex": _observe_hashed,
    "rigorous.enclosure": _observe_bits,
    "rigorous.refine": _observe_bits,
    "rigorous.dyadic_bounds": _observe_bits,
}

# Subcommands the workloads run; each gets a `cli.op_s.<subcommand>` metric.
CLI_SUBCOMMANDS = ("enumerate", "exponents", "construct", "transfer",
                   "extremal", "plot", "lambda-n", "frontier", "schmidt-fuzz")

# Metrics that sum the outermost spans of a group of names.
_GROUPS = {
    "minpoints.oracle_s": ("minpoints.exhaustive_scan",
                           "minpoints.brute_force_reference"),
    "minpoints.verify_s": ("minpoints.verify_properties",
                           "minpoints.verify_minimality",
                           "minpoints.verify_annulus"),
    "ivcalc.s": "ivcalc.",
    "construction.family_s": "construction.",
}

# Metrics that sum (or count) the spans of one name.  The re-entrancy guard
# means no span has an ancestor of its own name, so each sum counts once.
_SINGLE = {
    "minpoints.enumerate": "minpoints.enumerate_minimal_points",
    "minpoints.write_csv": "minpoints.write_csv",
    "model.l_value": "model.l_value",
    "model.load_target": "model.load_target",
    "rigorous.compare": "rigorous.compare",
    "rigorous.enclosure": "rigorous.enclosure",
    "rigorous.refine": "rigorous.refine",
    "transference.estimate_exponents": "transference.estimate_exponents",
    "transference.check_sandwich": "transference.check_sandwich",
    "transference.verify_extremal": "transference.verify_extremal_sequence",
    "transference.mm_lhs": "transference.mm_lhs",
    "subspaces.saturate": "subspaces.saturate",
    "subspaces.schmidt_fuzz": "subspaces.schmidt_fuzz",
    "spectra.frontier": "spectra.frontier",
    "spectra.lambda_n": "spectra.lambda_n",
    "reporting.hash": "reporting.sha256_hex",
    "reporting.json_canonical": "reporting.json_canonical",
}
_CALLS = ("minpoints.enumerate", "model.l_value", "rigorous.compare",
          "rigorous.enclosure", "rigorous.refine", "transference.mm_lhs",
          "subspaces.saturate", "spectra.frontier")


def _in_group(group, name: str) -> bool:
    return name.startswith(group) if isinstance(group, str) else name in group


def layer_metrics(spans, counters: dict, run_subcommands) -> dict:
    """Per-layer metrics of one traced run, from its spans and counters.

    Times are in seconds, counts are whole numbers.  Every metric is
    present; a layer the workload does not reach reads 0.
    """
    out: dict[str, float] = {}
    ns = 1e-9
    dur = [e - s for _, s, e, _, _ in spans]
    names = [sp[0] for sp in spans]

    for key, name in _SINGLE.items():
        picked = [d for n, d in zip(names, dur) if n == name]
        out[f"{key}_s"] = sum(picked) * ns
        if key in _CALLS:
            out[f"{key}_calls"] = len(picked)

    for key, group in _GROUPS.items():
        inside = [False] * len(spans)
        total = 0
        for i, (n, _, _, p, _) in enumerate(spans):
            mine = _in_group(group, n)
            above = p >= 0 and inside[p]
            inside[i] = mine or above
            if mine and not above:
                total += dur[i]
        out[key] = total * ns
    out["ivcalc.calls"] = sum(1 for n in names if n.startswith("ivcalc."))

    for sub in CLI_SUBCOMMANDS:
        out[f"cli.op_s.{sub}"] = sum(
            d for n, d in zip(names, dur) if n == OP_PREFIX + sub) * ns
    run_ops = {OP_PREFIX + s for s in run_subcommands}
    out["cli.replay_s"] = sum(
        d for (n, _, _, p, _), d in zip(spans, dur)
        if n == "minpoints.enumerate_minimal_points" and p >= 0
        and names[p] in run_ops) * ns
    own = self_times(spans)
    out["cli.self_s"] = sum(t for n, t in zip(names, own)
                            if n.startswith(OP_PREFIX)) * ns
    enum_own = self_times(spans, lambda n: n.startswith(("model.", "rigorous.")))
    out["minpoints.enumerate_self_s"] = sum(
        t for n, t in zip(names, enum_own)
        if n == "minpoints.enumerate_minimal_points") * ns

    for key in ("cli.bytes_hashed", "minpoints.points", "minpoints.verify_checked",
                "rigorous.max_bits"):
        out[key] = counters.get(key, 0)
    out["trace.spans"] = len(spans)
    return out
