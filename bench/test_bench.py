"""Tests of the benchmark's own code: the golden checker, self time, the
tracer, the speed probe and the percentile rule.  Run with `python3 -m pytest bench -q`."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import golden  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

CSV = ("i,x_0,x_1,normSq,X,L,log10X,neg_log10L\n"
       "0,1,1,2,1.41421356237310,0.414213562373095,0.150514997831991,0.382775685666351\n"
       "1,2,3,13,3.60555127546399,0.171572875253810,0.556971676153418,0.765551371332702\n")


def test_golden_checker_rejects_tampered_csv(tmp_path):
    path = tmp_path / "minimal_points.csv"
    path.write_text(CSV)
    expected = {"op/minimal_points.csv": golden.record(str(path))}
    assert expected["op/minimal_points.csv"]["entries"] == 2
    assert golden.check_outputs("op", {"minimal_points.csv": golden.record(str(path))},
                                expected) == []

    path.write_text(CSV.replace("2,3,13", "2,3,14"))  # one digit, same size
    problems = golden.check_outputs(
        "op", {"minimal_points.csv": golden.record(str(path))}, expected)
    assert len(problems) == 1 and "op/minimal_points.csv" in problems[0]

    path.write_text(CSV.rsplit("1,2,3", 1)[0])  # a row dropped
    problems = golden.check_outputs(
        "op", {"minimal_points.csv": golden.record(str(path))}, expected)
    assert "got 1 entries" in problems[0]


def test_golden_file_covers_every_artifact():
    import workloads

    recorded = golden.load_golden()["artifacts"]
    for name in workloads.NAMES:
        for op in workloads.build(name, workloads.DEFAULT_SEED).ops:
            for path in op.outputs:
                assert f"{op.label}/{path}" in recorded


def test_self_time_of_nested_spans():
    # root [0, 100] holds A [10, 40] (which holds G [15, 20]), B [30, 60]
    # overlapping A, and C [90, 120] running past the root's end
    sp = [("root", 0, 100, -1, 0),
          ("A", 10, 40, 0, 0),
          ("G", 15, 20, 1, 0),
          ("B", 30, 60, 0, 0),
          ("C", 90, 120, 0, 0)]
    assert spans.self_times(sp) == [100 - 50 - 10, 30 - 5, 5, 30, 30]
    only_b = spans.self_times(sp, within=lambda name: name == "B")
    assert only_b == [70, 30, 5, 30, 30]


def test_tracer_counts_recursion_once_and_links_parents():
    tr = spans.Tracer()

    def fact(k):
        return 1 if k <= 1 else k * wrapped_fact(k - 1)

    def outer():
        return wrapped_fact(5) + wrapped_fact(3)

    wrapped_fact = tr.wrap("m.fact", fact)
    wrapped_outer = tr.wrap("m.outer", outer)
    assert wrapped_outer() == 126
    got = [(name, parent) for name, _, _, parent, _ in tr.spans()]
    assert got == [("m.outer", -1), ("m.fact", 0), ("m.fact", 0)]
    assert all(e >= s for _, s, e, _, _ in tr.spans())


def test_layer_metrics_on_synthetic_spans():
    sp = [("cli.enumerate", 0, 100, -1, 0),
          ("minpoints.enumerate_minimal_points", 10, 90, 0, 0),
          ("model.l_value", 20, 30, 1, 0),
          ("cli.exponents", 100, 300, -1, 1),
          ("minpoints.enumerate_minimal_points", 110, 200, 3, 1),
          ("ivcalc.rig_interval", 210, 250, 3, 1),
          ("ivcalc.frac_interval", 220, 240, 5, 1),
          ("reporting.sha256_hex", 260, 270, 3, 1)]
    m = spans.layer_metrics(sp, {"cli.bytes_hashed": 7}, ("exponents",))
    ns = 1e-9
    assert m["cli.replay_s"] == 90 * ns  # only the enumeration under exponents
    assert m["minpoints.enumerate_s"] == 170 * ns
    assert m["minpoints.enumerate_calls"] == 2
    assert m["minpoints.enumerate_self_s"] == (80 - 10 + 90) * ns
    assert m["ivcalc.s"] == 40 * ns and m["ivcalc.calls"] == 2
    assert m["cli.self_s"] == (100 - 80 + 200 - 90 - 40 - 10) * ns
    assert m["cli.op_s.exponents"] == 200 * ns
    assert m["cli.bytes_hashed"] == 7 and m["minpoints.points"] == 0
    assert m["trace.spans"] == len(sp)


def test_install_wraps_names_where_callers_look_them_up():
    import simra
    from simra import cli, ivcalc, reporting, transference

    original = ivcalc.frac_enclosure
    tr = spans.Tracer()
    tr.install(simra)
    try:
        assert transference.frac_enclosure is ivcalc.frac_enclosure
        assert ivcalc.frac_enclosure.__wrapped__ is original
        assert cli.sha256_hex is reporting.sha256_hex
        assert cli.sha256_hex("abc") == reporting.sha256_hex.__wrapped__("abc")
        assert tr.counters["cli.bytes_hashed"] == 3
    finally:
        tr.uninstall()
    assert ivcalc.frac_enclosure is original
    assert transference.frac_enclosure is original


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(list(range(19))) is None
    assert run.tail_percentile(list(range(20))) == (50, 9)
    assert run.tail_percentile(list(range(40)))[0] == 75
    assert run.tail_percentile(list(range(1000)))[0] == 99


def test_speed_is_the_time_weighted_mean():
    ref = speed.REF_CHUNK_NS
    # half the samples at full speed, half at half speed: 3/4 of the work
    # the same time does at the reference speed
    assert speed.speed([ref, 2 * ref]) == 0.75


def test_probe_samples_and_takes_its_chunks_out():
    import time

    probe = speed.Probe()
    probe.start()
    try:
        t0 = time.perf_counter_ns()
        while len(probe.chunks) < 3:
            sum(range(1000))
        elapsed = time.perf_counter_ns() - t0
    finally:
        probe.stop()
    assert probe.own_ns(elapsed, 0) == elapsed - sum(probe.chunks)
    assert 0 < probe.own_ns(elapsed, 0) < elapsed
