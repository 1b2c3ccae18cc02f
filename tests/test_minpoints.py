"""Minimal-point enumeration, envelope queries, and the independent oracles."""

import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import time
from fractions import Fraction

import pytest

from simra import minpoints, model, presets, rigorous
from simra.errors import (
    BeyondCertifiedRange,
    DependentCoordinates,
    DomainError,
    EmptySet,
    PropertyViolated,
    TieUnresolved,
)
from simra.minpoints import (
    INFINITE,
    brute_force_reference,
    dirichlet_check,
    enumerate_minimal_points,
    envelope,
    envelope_at_norm_sq,
    exhaustive_scan,
    read_csv,
    verify_minimality,
    verify_properties,
    write_csv,
)
from simra.model import IntegerPoint
from simra.rigorous import rational, sqrt

SQRT2_POINTS_30 = [(0, 1), (1, 1), (2, 3), (5, 7), (12, 17)]


def test_sqrt2_sequence_to_30(sqrt2_seq_30):
    assert sqrt2_seq_30.points() == SQRT2_POINTS_30
    # the L values: 1, sqrt2-1, 3-2sqrt2, 5sqrt2-7, 17-12sqrt2
    expected = [1.0, 0.41421356, 0.17157288, 0.07106781, 0.02943725]
    for e, want in zip(sqrt2_seq_30.entries, expected):
        got = rigorous.refine(e.l_value, 60)
        assert float(got) == pytest.approx(want, abs=1e-8)


def test_even_x0_congruence_sequence():
    doc = dict(presets.preset_config("sqrt2"))
    doc["S"] = {"type": "congruence", "modulus": 2, "residues": {"0": [0]}}
    target, approx = model.load_target(doc)
    seq = enumerate_minimal_points(target, approx, 30)
    # odd-x_0 points are excluded; (2,2) sneaks in between the records
    assert seq.points() == [(0, 1), (2, 2), (2, 3), (10, 14), (12, 17)]
    assert all(p[0] % 2 == 0 for p in seq.points())
    ref = brute_force_reference(target, approx, 30)
    assert ref.points() == seq.points()


def test_rational_target_detected_as_dependent():
    target, approx = model.load_target(
        {"n": 1, "coords": [{"type": "rational", "value": "1"},
                            {"type": "rational", "value": "3/2"}]})
    with pytest.raises(DependentCoordinates):
        enumerate_minimal_points(target, approx, 30)


def test_x_max_validation(sqrt2):
    target, approx = sqrt2
    with pytest.raises(DomainError):
        enumerate_minimal_points(target, approx, Fraction(1, 2))


def test_empty_set():
    target, _ = presets.load_preset("sqrt2")
    approx = model.Sublattice([(40, 0), (0, 40)])
    with pytest.raises(EmptySet):
        enumerate_minimal_points(target, approx, 30)


def test_sublattice_enumeration():
    target, _ = presets.load_preset("sqrt2")
    approx = model.Sublattice([(2, 0), (0, 1)])  # x_0 even, as a lattice
    seq = enumerate_minimal_points(target, approx, 30)
    assert seq.points() == [(0, 1), (2, 2), (2, 3), (10, 14), (12, 17)]


def test_sqrt2_sequence_to_1e5(sqrt2_seq_1e5):
    assert len(sqrt2_seq_1e5) == 14
    assert sqrt2_seq_1e5.points()[-1] == (33461, 47321)
    verify_properties(sqrt2_seq_1e5)


def test_envelope_values(sqrt2_seq_30, sqrt2):
    target, _ = sqrt2
    # X = 10 -> record of (5,7): 5*sqrt2 - 7
    v = envelope(sqrt2_seq_30, 10)
    want = rigorous.refine(sqrt(2) * 5 - 7, 60)
    diff = rigorous.refine(v - want, 60)
    assert abs(diff.midpoint) <= diff.radius
    # below the first point: min over the empty set
    assert envelope(sqrt2_seq_30, Fraction(1, 2)) is INFINITE
    # boundary inclusion: min over norm <= X at exactly X = ||(2,3)||
    b = envelope_at_norm_sq(sqrt2_seq_30, 13)
    d2 = rigorous.refine(b - (3 - sqrt(2) * 2), 60)
    assert abs(d2.midpoint) <= d2.radius
    with pytest.raises(BeyondCertifiedRange):
        envelope(sqrt2_seq_30, 31)


def test_envelope_step_structure(sqrt2_seq_30):
    # constant on [X_i, X_{i+1}): query strictly inside the step
    inside = envelope_at_norm_sq(sqrt2_seq_30, 13 + 1)
    at = envelope_at_norm_sq(sqrt2_seq_30, 13)
    assert inside is at  # same entry object: same record


def test_dirichlet_check(sqrt2_seq_1e5):
    rep = dirichlet_check(sqrt2_seq_1e5)
    assert rep.n == 1
    # X_{i+1} L_i with X the full vector norm (not the bare denominator):
    # limit sqrt(3) (1+sqrt(2)) / (2 sqrt(2)) ~ 1.4784
    assert rep.sup_upper < 1.5
    assert rep.values[-1] == pytest.approx(1.4783978, abs=1e-6)
    assert rep.at_index is not None
    assert len(rep.values) == len(sqrt2_seq_1e5) - 1


def test_oracle_agreement_small(sqrt2):
    target, approx = sqrt2
    fast = enumerate_minimal_points(target, approx, 200)
    brute = brute_force_reference(target, approx, 200)
    windowed = exhaustive_scan(target, approx, 200)
    assert fast.points() == brute.points() == windowed.points()


def test_annulus_and_minimality(sqrt2_seq_30):
    # property (c) on every annulus (X_i, X_{i+1}) and past the last record
    assert verify_minimality(sqrt2_seq_30) > 0


def test_oracles_agree_on_random_congruence_sets(sqrt2, cubic):
    rng = random.Random(7)
    # cases with a record past squared norm 64, outside the start ball
    # (radius <= 4 for these sets), so found by the record-window scan
    past_start_ball = 0
    for _ in range(8):
        target, _ = rng.choice([sqrt2, cubic])
        x_max = 150 if target.n == 1 else 25
        m = rng.randint(2, 5)
        indices = rng.sample(range(target.n + 1), rng.randint(1, 2))
        approx = model.CongruenceSet(
            m, {i: rng.sample(range(m), rng.randint(1, m - 1)) for i in indices})
        fast = enumerate_minimal_points(target, approx, x_max)
        assert all(approx.member(p) for p in fast.points()), approx
        assert brute_force_reference(target, approx, x_max).points() == fast.points(), approx
        assert exhaustive_scan(target, approx, x_max).points() == fast.points(), approx
        verify_properties(fast)
        verify_minimality(fast)
        past_start_ball += fast.entries[-1].norm_sq > 64
    assert past_start_ball > 0


FAR_CONGRUENCE = model.CongruenceSet(1000, {0: [500], 1: [500]})


def test_far_congruence_set_is_listed_axis_by_axis(sqrt2, monkeypatch):
    # the set lists its members axis by axis, skipping every x_0 it does not
    # allow, instead of testing member on every point of the box
    target, _ = sqrt2
    calls = 0
    allowed, member = model.CongruenceSet.allowed, model.CongruenceSet.member

    def counted(method):
        def wrapper(*args):
            nonlocal calls
            calls += 1
            return method(*args)
        return wrapper

    monkeypatch.setattr(model.CongruenceSet, "allowed", counted(allowed))
    monkeypatch.setattr(model.CongruenceSet, "member", counted(member))
    assert enumerate_minimal_points(target, FAR_CONGRUENCE, 2000).points() == [(500, 500)]
    assert calls < 20_000


@pytest.mark.parametrize("entry", [
    enumerate_minimal_points, brute_force_reference, exhaustive_scan,
], ids=["enumerate", "brute_force", "exhaustive_scan"])
def test_empty_set_names_the_set_and_the_bound(sqrt2, entry):
    target, _ = sqrt2
    start = time.process_time()
    with pytest.raises(EmptySet) as err:
        entry(target, FAR_CONGRUENCE, 100)
    assert time.process_time() - start < 0.1
    assert repr(FAR_CONGRUENCE) in str(err.value) and "norm <= 100" in str(err.value)


def test_oracles_agree_on_random_sublattices(sqrt2):
    target, _ = sqrt2
    rng = random.Random(7)
    for _ in range(4):
        d = rng.randint(1, 4)
        approx = model.Sublattice([(rng.randint(1, 4), rng.randint(0, d - 1)), (0, d)])
        fast = enumerate_minimal_points(target, approx, 120)
        assert brute_force_reference(target, approx, 120).points() == fast.points(), approx
        assert exhaustive_scan(target, approx, 120).points() == fast.points(), approx


@pytest.mark.parametrize("basis", [
    [(1, 1, 1)],                    # rank 1: the record never pins later points
    [(1, 1, 1), (0, 1, 2)],         # rank 2, through (1, 1, 1)
    [(0, 1, 0), (0, 0, 1)],         # rank 2, x_0 = 0 only
    [(2, 1, 0), (0, 1, 1), (0, 0, 3)],
])
def test_oracles_agree_on_sublattices_of_z3(cubic, basis):
    target, _ = cubic
    approx = model.Sublattice(basis)
    fast = enumerate_minimal_points(target, approx, 25)
    assert all(approx.member(p) for p in fast.points())
    assert brute_force_reference(target, approx, 25).points() == fast.points()
    assert exhaustive_scan(target, approx, 25).points() == fast.points()
    verify_properties(fast)
    verify_minimality(fast)


def test_oracles_do_not_list_members_through_the_set(sqrt2, monkeypatch):
    # the enumerator's candidates come from box_members; the oracle and the
    # verifier filter points of Z^(n+1) by membership and never call it
    target, _ = sqrt2
    approx = model.Sublattice([(2, 1), (0, 3)])
    seq = enumerate_minimal_points(target, approx, 400)

    def no_box(self, x0, windows):
        raise AssertionError("an oracle reached the enumerator's candidate generator")

    monkeypatch.setattr(model.ApproxSet, "box_members", no_box)
    monkeypatch.setattr(model.Sublattice, "box_members", no_box)
    assert brute_force_reference(target, approx, 400).points() == seq.points()
    assert exhaustive_scan(target, approx, 400).points() == seq.points()
    assert verify_minimality(seq) > 0


@pytest.mark.parametrize("basis, want", [
    ([(0, 1, 0), (0, 0, 1)], [(0, 0, 1)]),  # x_0 = 0 only: L = |xi_0| max(|x_1|, |x_2|)
    ([(1, 0, 0), (0, 1, 0)], [(0, 1, 0)]),  # x_2 = 0: L >= xi_2 |x_0| > 1 for x_0 != 0
])
def test_rank_deficient_sublattices_at_large_x(cubic, basis, want):
    # the record never drops below |xi_0| / 2: the scan alone must stay cheap
    target, _ = cubic
    approx = model.Sublattice(basis)
    seq = enumerate_minimal_points(target, approx, 2000)
    assert seq.points() == want
    assert exhaustive_scan(target, approx, 2000).points() == want
    verify_minimality(seq)


@pytest.mark.parametrize("preset, v, x_max", [
    ("sqrt2", (1, 1000), 10 ** 5),
    ("cbrt2", (1, 30, 40), 10 ** 4),
])
def test_rank_one_sublattice_is_its_generator(preset, v, x_max):
    # L(k v) = k L(v), so no later multiple beats v
    target, _ = presets.load_preset(preset)
    assert enumerate_minimal_points(target, model.Sublattice([v]), x_max).points() == [v]


@pytest.mark.parametrize("approx", [
    model.CongruenceSet(2, {5: [0]}),
    model.CongruenceSet(2, {-1: [0]}),
    model.Sublattice([(1, 0, 0), (0, 1, 0)]),
], ids=repr)
@pytest.mark.parametrize("entry", [
    enumerate_minimal_points, brute_force_reference, exhaustive_scan,
    lambda target, approx, x_max: read_csv(target, approx, x_max, io.StringIO()),
], ids=["enumerate", "brute_force", "exhaustive_scan", "read_csv"])
def test_sets_outside_the_target_dimension_rejected(sqrt2, approx, entry):
    target, _ = sqrt2
    with pytest.raises(DomainError):
        entry(target, approx, 30)


def test_csv_export(sqrt2_seq_30):
    buf = io.StringIO()
    write_csv(sqrt2_seq_30, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "i,x_0,x_1,normSq,X,L,log10X,neg_log10L"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[:4] == ["0", "0", "1", "1"]
    # deterministic: a second export is byte-identical
    buf2 = io.StringIO()
    write_csv(sqrt2_seq_30, buf2)
    assert buf.getvalue() == buf2.getvalue()


def test_cubic_sequence_head(cubic_seq_1e4):
    pts = cubic_seq_1e4.points()
    assert pts[0] == (0, 0, 1)
    assert pts[1:4] == [(1, 1, 1), (1, 1, 2), (3, 4, 5)]
    assert len(pts) == 11
    verify_properties(cubic_seq_1e4)
    # spanning: the tail reaches full rank (needed by the index construction)
    tail = pts[-4:]
    from simra.subspaces import saturate
    assert saturate(tail, 3).dim == 3


def test_cubic_small_oracle(cubic):
    target, approx = cubic
    fast = enumerate_minimal_points(target, approx, 60)
    brute = brute_force_reference(target, approx, 60)
    assert fast.points() == brute.points()
    assert verify_minimality(fast) > 0


def test_decimal_targets_work_at_data_precision():
    # a 60-digit decimal has plenty of slack for X <= 2000
    target, approx = presets.load_preset("liouville-sqrt2")
    seq = enumerate_minimal_points(target, approx, 100)
    assert len(seq) >= 4
    verify_properties(seq)


def test_verify_minimality_rejects_truncated_sequences(sqrt2):
    target, approx = sqrt2
    seq = enumerate_minimal_points(target, approx, 1000)
    assert len(seq) == 9
    assert verify_minimality(seq) > 0
    for kept, culprit in ((seq.entries[:-1], "(408, 577)"), (seq.entries[1:], "(0, 1)")):
        cut = minpoints.MinimalPointSequence(target, approx, seq.x_max,
                                             kept, seq.norm_sq_max)
        verify_properties(cut)  # (a) and (b) still hold
        with pytest.raises(PropertyViolated, match=re.escape(culprit)):
            verify_minimality(cut)


def test_verify_minimality_checks_start_tie_break(cubic):
    # (0, 0, 1) and (0, 1, 0) tie in norm and in L = |xi_0|; the start point
    # is the lexicographically first
    target, approx = cubic
    seq = enumerate_minimal_points(target, approx, 30)
    assert seq.points()[0] == (0, 0, 1)
    keys = minpoints._Comparator(target).keys((0, 1, 0))
    swapped = minpoints.MinimalPointSequence(
        target, approx, seq.x_max,
        [minpoints._entry(target, 0, (0, 1, 0), 1, keys)] + seq.entries[1:],
        seq.norm_sq_max)
    verify_properties(swapped)
    with pytest.raises(PropertyViolated, match="precedes it lexicographically"):
        verify_minimality(swapped)


SUBLATTICE_DOC = {
    "n": 1,
    "coords": [{"type": "rational", "value": "1"},
               {"type": "algebraic", "minpoly": [-2, 0, 1], "interval": ["1", "2"]}],
    "S": {"type": "sublattice", "basis": [[2, 1], [0, 3]]},
}


@pytest.mark.parametrize("doc, x_max", [
    (presets.preset_config("sqrt2"), 10 ** 4),
    (presets.preset_config("sqrt2-even-x0"), 10 ** 4),
    (presets.preset_config("cbrt2"), 2000),
    (SUBLATTICE_DOC, 300),
])
def test_csv_round_trip(doc, x_max):
    target, approx = model.load_target(doc)
    seq = enumerate_minimal_points(target, approx, x_max)
    buf = io.StringIO()
    write_csv(seq, buf)
    buf.seek(0)
    back = read_csv(target, approx, x_max, buf)
    assert (back.x_max, back.norm_sq_max) == (seq.x_max, seq.norm_sq_max)
    assert len(back) == len(seq)
    comparator = minpoints._Comparator(target)
    for a, b in zip(back.entries, seq.entries):
        assert (a.index, a.point, a.norm_sq) == (b.index, b.point, b.norm_sq)
        assert a.branch_keys == b.branch_keys
        # equal branch keys certify equal L values
        assert comparator.compare(a.branch_keys, b.branch_keys) == 0
        assert rigorous.enclosure(a.l_value, 96) == rigorous.enclosure(b.l_value, 96)
        assert rigorous.enclosure(a.x_value, 80) == rigorous.enclosure(b.x_value, 80)
    again = io.StringIO()
    write_csv(back, again)
    assert again.getvalue() == buf.getvalue()


def test_comparator_ties_stop_at_the_precision_cap(monkeypatch):
    # two separate handles on sqrt(2): L(2, 3, 2) and L(2, 2, 3) are both
    # 2 sqrt(2) - 2, through different branch keys, so no precision decides
    r1 = rigorous.algebraic_root([-2, 0, 1], (1, 2))
    r2 = rigorous.algebraic_root([-2, 0, 1], (1, 2))
    target = model.TargetPoint([rational(1), r1, r2])
    a, b = (2, 3, 2), (2, 2, 3)
    monkeypatch.delenv("SIMRA_PRECISION_CAP", raising=False)
    for cap in (4096, 128):
        comparator = minpoints._Comparator(target)
        with pytest.raises(TieUnresolved,
                           match=f"at {cap} bits: raise SIMRA_PRECISION_CAP"):
            comparator.compare(comparator.keys(a), comparator.keys(b), a, b)
        monkeypatch.setenv("SIMRA_PRECISION_CAP", "128")


def _two_handle_target():
    # two separate handles on sqrt(2), so L(2, 3, 2) = L(2, 2, 3) through
    # different branch keys
    return model.TargetPoint([rational(1),
                              rigorous.algebraic_root([-2, 0, 1], (1, 2)),
                              rigorous.algebraic_root([-2, 0, 1], (1, 2))])


def test_sweep_tie_names_the_record(monkeypatch):
    monkeypatch.setenv("SIMRA_PRECISION_CAP", "128")
    target = _two_handle_target()
    comparator = minpoints._Comparator(target)
    record = (2, 3, 2)
    entries = [minpoints._entry(target, 0, record, 17, comparator.keys(record))]
    with pytest.raises(TieUnresolved, match=re.escape("(2, 2, 3) and (2, 3, 2)")):
        minpoints._sweep_below(target, [(17, (2, 2, 3))], math.inf, entries, comparator)


def test_comparator_escalation_snapshots_are_computed_once_per_bit_count(monkeypatch):
    # the 64-bit view is built with the comparator; a comparison that
    # escalates asks for 128 and 256 bits, each computed once and kept
    monkeypatch.setenv("SIMRA_PRECISION_CAP", "256")
    target = _two_handle_target()
    comparator = minpoints._Comparator(target)
    real, bits_asked = rigorous.dyadic_bounds, []
    monkeypatch.setattr(rigorous, "dyadic_bounds",
                        lambda x, bits: bits_asked.append(bits) or real(x, bits))
    a, b = (2, 3, 2), (2, 2, 3)
    with pytest.raises(TieUnresolved, match="at 256 bits"):
        comparator.compare(comparator.keys(a), comparator.keys(b), a, b)
    assert bits_asked == [128] * 3 + [256] * 3
    snap = comparator.snapshot(128)
    assert bits_asked == [128] * 3 + [256] * 3
    for (lo, hi), c in zip(snap, target.coords):
        c_lo, c_hi, _ = rigorous.enclosure(c, 256)
        assert Fraction(lo, 2 ** 128) <= c_lo <= c_hi <= Fraction(hi, 2 ** 128)


def test_comparator_exact_values():
    rat, _ = model.load_target({"n": 1, "coords": [{"type": "rational", "value": "2"},
                                                   {"type": "rational", "value": "3/7"}]})
    comparator = minpoints._Comparator(rat)
    assert comparator.exact == (Fraction(2), Fraction(3, 7))
    assert comparator.sat == (True, True)
    # both coordinates exact: the branch key is the value |2 x_1 - 3/7 x_0|
    assert comparator.keys((7, 2)) == (("q", Fraction(1)),)
    target, _ = presets.load_preset("sqrt2")
    assert minpoints._Comparator(target).exact == (Fraction(1), None)


LOWER_BOUND_TARGETS = pytest.mark.parametrize("target", [
    *(presets.load_preset(name)[0] for name in presets.preset_names()),
    model.TargetPoint([rational(Fraction(-7, 3)), rational(Fraction(3, 5)),
                       rational(Fraction(11, 13))]),
    model.TargetPoint([-sqrt(3), rational(1),
                       rigorous.algebraic_root([-2, 0, 0, 1], (1, 2))]),
    _two_handle_target(),
], ids=[*presets.preset_names(), "rational", "negative-irrational-xi0", "two-handle"])


def _seeded_points(target, rng):
    ratios = [float(target.coords[k]) / float(target.coords[0])
              for k in range(1, target.n + 1)]
    points = []
    while len(points) < 300:
        scale = 10 ** rng.randint(0, 6)
        x0 = rng.randint(-scale, scale)
        # half near the target ray, where lower(c) and L(c) are closest
        off = 3 if rng.random() < 0.5 else scale
        c = (x0,) + tuple(round(r * x0) + rng.randint(-off, off) for r in ratios)
        if any(c):
            points.append(c)
    return points


@LOWER_BOUND_TARGETS
def test_comparator_lower_bound_is_sound(target):
    # lower(c) bounds 2^64 L(c) from below, so a point whose lower bound is
    # above an entry's 64-bit upper bound is certifiably worse than the entry
    rng = random.Random(11)
    comparator = minpoints._Comparator(target)
    points = _seeded_points(target, rng)
    keys = [comparator.keys(c) for c in points]
    for c, k in zip(points, keys):
        assert comparator.lower(c) << 192 <= comparator.l_interval(k, 256)[1]
    decided = 0
    for (c, kc), (e, ke) in zip(zip(points, keys), rng.sample(list(zip(points, keys)), 300)):
        if comparator.lower(c) > comparator.upper(ke, e):
            decided += 1
            assert comparator.compare(kc, ke, c, e) == 1
    assert decided > 0


@pytest.mark.parametrize("preset", presets.preset_names())
def test_comparator_views_are_the_floor_and_ceiling(preset):
    # the scans and verify_minimality's windows are built from these 64-bit
    # views: the floor and ceiling of the value, however far its refinement
    # overshot 64 bits
    target, _ = presets.load_preset(preset)
    comparator = minpoints._Comparator(target)
    widths = [hi - lo for lo, hi in comparator.snap]
    assert widths == [0 if c.is_exact else 1 for c in target.coords]
    assert [hi - lo for lo, hi in comparator.ratio_snap] == [1] * target.n


@pytest.mark.parametrize("preset, want", [
    ("cbrt2", 30882), ("liouville-sqrt2", 1469), ("sqrt2", 5908), ("sqrt2-even-x0", 1223),
])
def test_minimality_check_count_at_2000(preset, want):
    # the count the benchmark's oracle.json records as minimalityChecked
    target, approx = presets.load_preset(preset)
    seq = enumerate_minimal_points(target, approx, 2000)
    assert verify_minimality(seq) == want


def test_oracle_json_golden_bytes():
    # oracle.json as the benchmark's certify workload writes it: the four
    # presets at X = 2000, enumerated, checked against exhaustive_scan and
    # verified; json.dump(sort_keys=True, indent=1) plus a newline
    golden = os.path.join(os.path.dirname(__file__), "..", "bench", "golden.json")
    with open(golden, encoding="utf-8") as f:
        want = json.load(f)["artifacts"]["certify.oracle/oracle.json"]
    doc = {}
    for name in ("cbrt2", "liouville-sqrt2", "sqrt2", "sqrt2-even-x0"):
        target, approx = presets.load_preset(name)
        fast = enumerate_minimal_points(target, approx, 2000)
        assert exhaustive_scan(target, approx, 2000).points() == fast.points()
        verify_properties(fast)
        doc[name] = {"points": [list(p) for p in fast.points()],
                     "minimalityChecked": verify_minimality(fast)}
    text = json.dumps(doc, sort_keys=True, indent=1) + "\n"
    assert len(doc) == want["entries"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want["sha256"]


@LOWER_BOUND_TARGETS
def test_axis_tables_agree_with_the_lower_bound(target):
    # the window scan's per-axis tables give every point's lower bound as
    # max(0, max_k d_k), the value _Comparator.lower computes point by point;
    # windows of 7 values around each coordinate, many of them across v = 0
    # where the tables swap the ends of xi_0's snapshot
    comparator = minpoints._Comparator(target)
    crossing = 0
    for c in _seeded_points(target, random.Random(13)):
        tables = []
        for k in range(1, len(c)):
            b_lo, b_hi = minpoints._scaled(c[0], *comparator.snap[k])
            tables.append(comparator.axis_table(b_lo, b_hi, c[k] - 3, c[k] + 3, math.inf))
            crossing += abs(c[k]) <= 3
        assert [[t[:2] for t in table] for table in tables] == \
            [[(v, v * v) for v in range(ck - 3, ck + 4)] for ck in c[1:]]
        at_c = [table[3][2] for table in tables]
        for k, table in enumerate(tables, 1):
            others = at_c[:k - 1] + at_c[k:]
            for v, _, d in table:
                point = c[:k] + (v,) + c[k + 1:]
                assert max(0, d, *others) == comparator.lower(point), point
    assert crossing >= 20


@pytest.mark.parametrize("n, x_max", [(1, 150), (2, 20)])
def test_pruned_window_scan_with_negative_xi0(n, x_max):
    # the window scan drops axis values by their lower-bound term before the
    # product; with xi_0 < 0 the enclosure ends swap, and the literal ball
    # scan must still agree
    coords = [-sqrt(3), rational(1), rigorous.algebraic_root([-2, 0, 0, 1], (1, 2))]
    target, approx = model.TargetPoint(coords[:n + 1]), model.FullLattice()
    brute = brute_force_reference(target, approx, x_max)
    assert len(brute) >= 4
    assert exhaustive_scan(target, approx, x_max).points() == brute.points()
    assert enumerate_minimal_points(target, approx, x_max).points() == brute.points()


def test_verify_minimality_rejects_a_dropped_middle_entry(cubic):
    # without entry j, its point beats entry j - 1 below the norm of entry
    # j + 1; the verifier must compare it, not pass it on its lower bound
    target, approx = cubic
    seq = enumerate_minimal_points(target, approx, 2000)
    assert len(seq) == 10
    for j in range(1, len(seq) - 1):
        cut = minpoints.MinimalPointSequence(
            target, approx, seq.x_max, seq.entries[:j] + seq.entries[j + 1:],
            seq.norm_sq_max)
        verify_properties(cut)  # (a) and (b) still hold
        dropped, before = seq.entries[j].point.coords, seq.entries[j - 1].point.coords
        with pytest.raises(PropertyViolated,
                           match=re.escape(f"point {dropped} violates minimality of {before}")):
            verify_minimality(cut)


@pytest.mark.parametrize("preset", ["sqrt2", "cbrt2"])
def test_window_pruning_drops_exactly_the_points_above_the_cutoff(preset):
    # exhaustive_scan's cutoff is the start's 64-bit upper bound; it must drop
    # the points whose lower bound exceeds it and keep all others, those at
    # the bound (such as the start point itself) included
    target, approx = presets.load_preset(preset)
    comparator = minpoints._Comparator(target)
    _, _, start_hi = minpoints._start_group(comparator, approx, 300, 300 ** 2)
    full = list(minpoints._window_points(comparator, approx, 300 ** 2, start_hi, False))
    pruned = list(minpoints._window_points(comparator, approx, 300 ** 2, start_hi, True))
    assert pruned == [p for p in full if p[2] <= start_hi]
    assert any(p[2] == start_hi for p in pruned) and len(pruned) < len(full) / 2


@pytest.mark.parametrize("doc", [presets.preset_config("sqrt2"),
                                 presets.preset_config("sqrt2-even-x0"),
                                 presets.preset_config("cbrt2"), SUBLATTICE_DOC],
                         ids=["sqrt2", "sqrt2-even-x0", "cbrt2", "sublattice"])
def test_oracle_stream_lists_the_group_then_each_other_point_once(doc):
    # the group holds every canonical member of S of its norm, so dropping
    # the window points of that norm drops exactly those already listed
    target, approx = model.load_target(doc)
    comparator = minpoints._Comparator(target)
    ns0, group, start_hi = minpoints._start_group(comparator, approx, 300, 300 ** 2)
    window = list(minpoints._window_points(comparator, approx, 300 ** 2, start_hi, False))
    stream = list(minpoints._oracle_points(comparator, approx, 300, 300 ** 2, False))
    assert stream == ([(ns0, c, comparator.lower(c)) for c in group]
                      + [p for p in window if p[0] != ns0 or p[1] not in group])
    coords = [c for _, c, _ in stream]
    assert len(set(coords)) == len(coords)


def test_verify_minimality_tables_take_an_int_cutoff(monkeypatch):
    # the unpruned tables keep every window value under an integer cutoff,
    # xi_0 < 0 included
    real, cutoffs = minpoints._Comparator.axis_table, []

    def spy(self, b_lo, b_hi, lo, hi, cutoff):
        cutoffs.append(cutoff)
        table = real(self, b_lo, b_hi, lo, hi, cutoff)
        assert len(table) == max(0, hi - lo + 1)
        return table

    sqrt2_seq = enumerate_minimal_points(*presets.load_preset("sqrt2"), 2000)
    negative = model.TargetPoint([-sqrt(3), rational(1),
                                  rigorous.algebraic_root([-2, 0, 0, 1], (1, 2))])
    negative_seq = enumerate_minimal_points(negative, model.FullLattice(), 20)
    monkeypatch.setattr(minpoints._Comparator, "axis_table", spy)
    assert verify_minimality(sqrt2_seq) == 5908
    assert verify_minimality(negative_seq) > 0
    assert cutoffs and all(type(c) is int for c in cutoffs)


def test_entries_are_built_without_enclosing(cubic, compute_calls):
    # X and L of read_csv's rows, and model.l_value, are enclosed only when read
    target, approx = cubic
    seq = enumerate_minimal_points(target, approx, 2000)
    buf = io.StringIO()
    write_csv(seq, buf)
    buf.seek(0)
    compute_calls.clear()
    back = read_csv(target, approx, 2000, buf)
    l_val = model.l_value(target, (3, 4, 5))
    assert len(back) == len(seq) and compute_calls == []
    assert l_val.lo > 0 and back.entries[-1].x_value.hi > 0
    assert compute_calls


# 1, -sqrt(2), cbrt(2), -cbrt(4): Q-linearly independent, two negative ratios
NEGATIVE_RATIO_COORDS = [rational(1), -sqrt(2),
                         rigorous.algebraic_root([-2, 0, 0, 1], (1, 2)),
                         -rigorous.algebraic_root([-4, 0, 0, 1], (1, 2))]
SUBLATTICE_BASES = {
    1: [(2, 1), (0, 3)],
    2: [(2, 1, 1), (0, 1, 0), (0, 0, 1)],
    3: [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1), (0, 0, 0, 2)],
}
SCAN_SETS = {
    "full": lambda n: model.FullLattice(),
    "congruence": lambda n: model.CongruenceSet(3, {0: [0, 1], 1: [2]}),
    "sublattice": lambda n: model.Sublattice(SUBLATTICE_BASES[n]),
}


@pytest.mark.parametrize("kind", sorted(SCAN_SETS))
@pytest.mark.parametrize("n, x_max", [(1, 150), (2, 25), (3, 9)])
def test_scan_with_negative_ratios_matches_the_ball_scan(n, x_max, kind):
    # xi_k/xi_0 < 0 makes the running window numerators step down: r_lo < 0
    target = model.TargetPoint(NEGATIVE_RATIO_COORDS[:n + 1])
    approx = SCAN_SETS[kind](n)
    brute = brute_force_reference(target, approx, x_max)
    assert len(brute) >= 3
    assert enumerate_minimal_points(target, approx, x_max).points() == brute.points()


def test_scan_matches_the_ball_scan_while_records_change_often():
    target, approx = presets.load_preset("liouville-sqrt2")
    brute = brute_force_reference(target, approx, 30)
    assert enumerate_minimal_points(target, approx, 30).points() == brute.points()


def test_sqrt2_to_1e6_follows_the_pell_recurrence(sqrt2):
    # the records of (1, sqrt 2) are (q, p) -> (q + p, 2q + p) from (0, 1)
    target, approx = sqrt2
    seq = enumerate_minimal_points(target, approx, 10 ** 6)
    want = [(0, 1)]
    while True:
        q, p = want[-1]
        q, p = q + p, 2 * q + p
        if q * q + p * p > 10 ** 12:
            break
        want.append((q, p))
    assert seq.points() == want and len(want) == 17


def test_scan_sweeps_per_record_not_per_x0(sqrt2, monkeypatch):
    # the heap sweep runs only when it holds a group below x_0^2, so its
    # calls grow with the points found, not with the x_0 <= 10^5 scanned
    target, approx = sqrt2
    calls = 0
    sweep_below = minpoints._sweep_below

    def counted(*args):
        nonlocal calls
        calls += 1
        return sweep_below(*args)

    monkeypatch.setattr(minpoints, "_sweep_below", counted)
    seq = enumerate_minimal_points(target, approx, 10 ** 5)
    assert len(seq) == 14 and calls <= 3 * len(seq)


def _scan_entries_per_x0(target, comparator, approx_set, norm_sq_max, entries, bound_sq):
    """The scan as it stood before the residue walk, kept as the reference:
    every x_0 from 0, a heap check at each, and the axis-1 window tested by
    shifting its two running numerators."""
    bits = minpoints._BASE_BITS
    (r_lo, r_hi), *rest = comparator.ratio_snap
    zero = (0,) * (comparator.n + 1)
    heap = []
    record = entries[-1]
    rec_hi = minpoints._record_bound(comparator, record.point.coords)
    neg_lo = hi = rec_hi
    for x0 in range(math.isqrt(norm_sq_max) + 1):
        if heap and heap[0][0] < x0 * x0:
            minpoints._sweep_below(target, heap, x0 * x0, entries, comparator)
            if entries[-1] is not record:
                record = entries[-1]
                rec_hi = minpoints._record_bound(comparator, record.point.coords)
                neg_lo, hi = rec_hi - r_lo * x0, r_hi * x0 + rec_hi
        if (hi >> bits) + (neg_lo >> bits) >= 0:
            windows = [(-(neg_lo >> bits), hi >> bits)]
            for rlo, rhi in rest:
                lo_k = -((rec_hi - rlo * x0) >> bits)
                hi_k = (rhi * x0 + rec_hi) >> bits
                if lo_k > hi_k:
                    break
                windows.append((lo_k, hi_k))
            else:
                for c in approx_set.box_members(x0, windows):
                    if c > zero and bound_sq < (ns := sum(v * v for v in c)) <= norm_sq_max:
                        minpoints.heapq.heappush(heap, (ns, c))
        neg_lo -= r_lo
        hi += r_hi
    minpoints._sweep_below(target, heap, math.inf, entries, comparator)


def test_residue_test_is_the_shift_test():
    # hi + neg_lo = w >= 0, so floor(hi / 2^64) + floor(neg_lo / 2^64) =
    # floor((w - h) / 2^64) with h = hi mod 2^64 < 2^64: >= 0 iff h <= w
    rng = random.Random(28)
    one = 1 << 64
    kinds = {"wide": 0, "negative neg_lo": 0, "empty": 0}
    for _ in range(20_000):
        rec_hi = rng.choice([rng.randrange(1 << 8), rng.randrange(1 << 40),
                             rng.randrange(one), rng.randrange(4 * one)])
        r_lo = rng.randrange(-4 * one, 4 * one)
        r_hi = r_lo + rng.choice([0, 1, 2, rng.randrange(1 << 20), rng.randrange(one)])
        x0 = rng.choice([rng.randrange(100), rng.randrange(10 ** 7), rng.randrange(10 ** 30)])
        neg_lo, hi = rec_hi - r_lo * x0, r_hi * x0 + rec_hi
        h, w = hi % one, 2 * rec_hi + (r_hi - r_lo) * x0
        shift = (hi >> 64) + (neg_lo >> 64) >= 0
        assert shift == (w >= one or h <= w) == (h <= w), (rec_hi, r_lo, r_hi, x0)
        assert h == hi & (one - 1)
        kinds["wide"] += w >= one
        kinds["negative neg_lo"] += neg_lo < 0
        kinds["empty"] += not shift
    assert all(kinds.values()), kinds


class _BoxRecorder:
    """S, recording the x_0 at which its members are asked for."""

    def __init__(self, approx):
        self.approx, self.x0s = approx, []

    def x0_progression(self):
        return self.approx.x0_progression()

    def box_members(self, x0, windows):
        self.x0s.append(x0)
        return self.approx.box_members(x0, windows)


def _scan_visits(scan, monkeypatch, target, approx, x_max):
    """The points of the enumeration with scan as its x_0 scan, and the x_0
    at which the scan asked S for members."""
    recorder = _BoxRecorder(approx)
    monkeypatch.setattr(minpoints, "_scan_entries",
                        lambda t, c, s, *rest: scan(t, c, recorder, *rest))
    points = enumerate_minimal_points(target, approx, x_max).points()
    return points, recorder.x0s


@pytest.mark.parametrize("name, x_max", [
    ("sqrt2", 5000), ("cbrt2", 2000), ("sqrt2-even-x0", 5000), ("sublattice", 5000),
])
def test_residue_walk_visits_the_x0_of_the_per_x0_scan(name, x_max, monkeypatch):
    # the walk asks S at exactly the x_0 of the reference that S admits, and
    # the reference's other x_0 hold no member
    if name == "sublattice":
        target, approx = presets.load_preset("sqrt2")[0], model.Sublattice([(2, 1), (0, 3)])
    else:
        target, approx = presets.load_preset(name)
    scan = minpoints._scan_entries
    want, before = _scan_visits(_scan_entries_per_x0, monkeypatch, target, approx, x_max)
    got, after = _scan_visits(scan, monkeypatch, target, approx, x_max)
    offset, step = approx.x0_progression()
    assert got == want and len(after) > 5
    assert after == [x0 for x0 in before if x0 % step == offset]
    assert not [c for x0 in before if x0 % step != offset
                for c in approx.box_members(x0, [(-10 ** 6, 10 ** 6)] * target.n)]
    assert (step > 1) == (len(after) < len(before))


def _bench_sublattice_family():
    """SUBLATTICE_FAMILY of bench/workloads.py, the certify workload's bases."""
    import importlib.util
    import sys

    path = os.path.join(os.path.dirname(__file__), "..", "bench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.SUBLATTICE_FAMILY


# (S, whether its x_0 classes form one progression, so the step is exact)
PROGRESSION_SETS = [
    (model.FullLattice(), True),
    (model.CongruenceSet(2, {0: [0]}), True),
    (model.CongruenceSet(3, {0: [2], 1: [1]}), True),
    (model.CongruenceSet(4, {0: [1, 3]}), True),
    (model.CongruenceSet(3, {0: [0, 1]}), False),
    (model.CongruenceSet(6, {0: [1, 5]}), False),
    (model.CongruenceSet(5, {1: [2]}), True),
    *[(model.Sublattice(b), True) for b in _bench_sublattice_family()],
    (model.Sublattice([(0, 5), (7, 0)]), True),
    (model.Sublattice([(0, 1, 2), (0, 0, 3)]), False),  # no pivot in column 0
]


@pytest.mark.parametrize("approx, exact", PROGRESSION_SETS, ids=repr)
def test_x0_progression_holds_every_member(approx, exact):
    offset, step = approx.x0_progression()
    assert 0 <= offset < step
    dim = approx.ambient if isinstance(approx, model.Sublattice) else 2
    box = range(-12, 13)
    rest = list(itertools.product(box, repeat=dim - 1))
    x0s = {x0 for x0 in box if any(approx.member((x0, *c)) for c in rest)}
    assert x0s and all(x0 % step == offset for x0 in x0s)
    assert (x0s == {x0 for x0 in box if x0 % step == offset}) == exact


NEGATIVE_XI0_CUBIC = model.TargetPoint([
    rational(-1), rigorous.algebraic_root([-2, 0, 0, 1], (1, 2)),
    rigorous.algebraic_root([-4, 0, 0, 1], (1, 2))])
SKIPPING_SETS = {
    "x0 = 2 mod 3": (model.CongruenceSet(3, {0: [2]}), 1),
    "x0 odd": (model.CongruenceSet(2, {0: [1]}), 1),
    "[[3,1],[0,2]]": (model.Sublattice([(3, 1), (0, 2)]), 1),
    "[[0,5],[7,0]]": (model.Sublattice([(0, 5), (7, 0)]), 1),
    "n = 2, xi_0 < 0": (model.CongruenceSet(3, {0: [1], 2: [0, 2]}), 2),
}


@pytest.mark.parametrize("name", sorted(SKIPPING_SETS))
def test_skipping_scan_matches_both_oracles(name, sqrt2):
    approx, n = SKIPPING_SETS[name]
    offset, step = approx.x0_progression()
    assert offset != 0 or step >= 3
    target = sqrt2[0] if n == 1 else NEGATIVE_XI0_CUBIC
    small = 60 if n == 1 else 25
    fast = enumerate_minimal_points(target, approx, small)
    assert brute_force_reference(target, approx, small).points() == fast.points()
    assert exhaustive_scan(target, approx, small).points() == fast.points()
    for x_max in (300, 2000):
        fast = enumerate_minimal_points(target, approx, x_max)
        assert len(fast) >= 3
        assert exhaustive_scan(target, approx, x_max).points() == fast.points()
        verify_properties(fast)
