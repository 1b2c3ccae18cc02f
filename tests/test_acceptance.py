"""The acceptance gate: ten checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
check is also a hard assertion at its stated tolerance.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from simra import minpoints, presets, rigorous, spectra, subspaces
from simra.construction import (
    build_subspace_family,
    select_indices,
    theorem31_ratio,
    verify_family_identities,
)
from simra.errors import DomainError, InsufficientData
from simra.ivcalc import midpoint_float
from simra.transference import (
    TransferenceProfile,
    epsilon_delta,
    estimate_exponents,
    growth_conditions,
    mm_lhs,
    phi_functions,
    verify_extremal_sequence,
)


def report(num, ok, detail):
    line = f"criterion {num:02d} [{'PASS' if ok else 'FAIL'}] {detail}"
    print(line)
    assert ok, line


def sqrt2_convergents(q_max):
    """(q, p) for the continued-fraction convergents of sqrt(2), q <= q_max."""
    p0, q0, p1, q1 = 1, 1, 3, 2
    out = [(q0, p0)]
    while q1 <= q_max:
        out.append((q1, p1))
        p0, q0, p1, q1 = p1, q1, 2 * p1 + p0, 2 * q1 + q0
    return out


def test_criterion_01_convergent_oracle():
    target, approx = presets.load_preset("sqrt2")
    t0 = time.time()
    seq = minpoints.enumerate_minimal_points(target, approx, 10 ** 5)
    elapsed = time.time() - t0
    got = seq.points()[1:]
    want = [cv for cv in sqrt2_convergents(10 ** 5)
            if cv[0] ** 2 + cv[1] ** 2 <= 10 ** 10]
    ok = got == want and elapsed < 10
    report(1, ok, f"{len(got)} convergents match exactly, {elapsed:.2f}s")


def test_criterion_02_lambda2_golden():
    root = spectra.lambda_n(2)
    golden = (rigorous.sqrt(5) - 1) / 2
    dev_root = abs(float(root - golden))
    dev_mm = abs(float(mm_lhs(root, 1, 2)) - 1)
    ok = dev_root < 1e-12 and dev_mm < 1e-10
    report(2, ok, f"|lambda_2 - (sqrt5-1)/2| = {dev_root:.2e}, "
                  f"|mm - 1| = {dev_mm:.2e}")


def test_criterion_03_equality_case():
    # eps decreases in alpha and vanishes at lambda_n, so it changes sign
    # across the rational ends of lambda_n's enclosure
    worst_mm = worst_eps = 0.0
    brackets = True
    for n in range(2, 7):
        root = spectra.lambda_n(n)
        beta = Fraction(1, n - 1)
        worst_mm = max(worst_mm, abs(float(mm_lhs(root, beta, n)) - 1))
        lo, hi, _ = rigorous.enclosure(root, 64)
        eps_lo = epsilon_delta(1, 1, lo, beta, n)["eps"]
        eps_hi = epsilon_delta(1, 1, hi, beta, n)["eps"]
        brackets = brackets and eps_lo >= 0 >= eps_hi
        worst_eps = max(worst_eps, abs(float(eps_lo)), abs(float(eps_hi)))
    ok = worst_mm < 1e-10 and worst_eps < 1e-10 and brackets
    report(3, ok, f"n=2..6 worst |mm - 1| = {worst_mm:.2e}, "
                  f"worst |eps| = {worst_eps:.2e}")


@pytest.fixture(scope="module")
def cubic_run():
    target, approx = presets.load_preset("cbrt2")
    t0 = time.time()
    seq = minpoints.enumerate_minimal_points(target, approx, 10 ** 4)
    return seq, time.time() - t0


def test_criterion_04_family_identities_exact(cubic_run):
    seq, enum_time = cubic_run
    t0 = time.time()
    admissible = []
    for i0 in range(21):
        try:
            idx = select_indices(seq, i0)
            fam = build_subspace_family(seq, idx)
        except (InsufficientData, DomainError):
            # tail too short for this start, or i0 past the sequence end
            continue
        rep = verify_family_identities(fam)
        assert rep["allPass"], (i0, [c for c in rep["checks"] if not c["pass"]])
        for t in range(fam.n):
            row = [fam.s[(t, k)] for k in range(1, t + 2)]
            assert all(a > b for a, b in zip(row, row[1:])), (i0, t, row)
        admissible.append(i0)
    elapsed = enum_time + (time.time() - t0)
    ok = len(admissible) >= 1 and elapsed < 60
    report(4, ok, f"identities exact for i0 in {admissible}, "
                  f"{elapsed:.2f}s total")


def test_criterion_05_ratio_boundedness(cubic_run):
    seq, _ = cubic_run
    ratios = []
    for i0 in range(21):
        try:
            ratios.append(float(theorem31_ratio(seq, i0)["ratio"]))
        except (InsufficientData, DomainError):
            break
    half = (len(ratios) + 1) // 2
    first, second = ratios[:half], ratios[half:]
    ok = bool(second) and max(second) <= 4 * max(first)
    report(5, ok, f"max(second half) = {max(second):.4f} <= "
                  f"4 * max(first half) = {4 * max(first):.4f}")


def test_criterion_06_closed_form_identity():
    rng = random.Random(31415)
    worst = 0.0
    for _ in range(20):
        n = rng.randint(2, 4)
        alpha = Fraction(rng.randint(1, 9), 10)
        beta = alpha + Fraction(rng.randint(0, 9), 10)
        a = Fraction(rng.randint(1, 50), rng.randint(1, 11))
        b = Fraction(rng.randint(1, 50), rng.randint(1, 11))
        prof = TransferenceProfile(n, a, b, alpha, beta)
        k = rng.randint(0, n - 1)
        for j in range(100):
            x = Fraction(2) + Fraction(j * 997, 10)
            out = phi_functions(prof, k, x)
            it = midpoint_float(out["PhiK"])
            cl = midpoint_float(out["PhiKClosed"])
            worst = max(worst, abs(it - cl) / cl)
    ok = worst < 1e-10
    report(6, ok, f"20 profiles x 100 points, worst relative gap {worst:.2e}")


def test_criterion_07_mm_at_desk_scale():
    # exponents are tail quantities: the window needs entries past the
    # pre-asymptotic shoulder, which for this target means X ~ 2 * 10^6
    target, approx = presets.load_preset("cbrt2")
    seq = minpoints.enumerate_minimal_points(target, approx, 2 * 10 ** 6)
    est = estimate_exponents(seq)
    mm = float(mm_lhs(est.lambda_hat_est, est.lambda_est, 2))
    ok = mm <= 1.05 and abs(est.lambda_est - 0.5) <= 0.1
    report(7, ok, f"mm(lambda-hat, lambda, 2) = {mm:.4f} <= 1.05, "
                  f"lambda = {est.lambda_est:.4f} within 0.5 +- 0.1")


def test_criterion_08_oracle_equivalence():
    checked = []
    for name in presets.preset_names():
        target, approx = presets.load_preset(name)
        fast = minpoints.enumerate_minimal_points(target, approx, 2000)
        slow = minpoints.exhaustive_scan(target, approx, 2000)
        assert fast.points() == slow.points(), name
        minpoints.verify_properties(fast)
        assert minpoints.verify_minimality(fast) > 0
        checked.append(f"{name}:{len(fast)}")
    report(8, True, "fast == exhaustive and (a)-(c) re-verified for "
                    + ", ".join(checked))


def test_criterion_09_schmidt_fuzz(tmp_path):
    rep = subspaces.schmidt_fuzz(max_ambient=5, count=1000, seed=1)
    artifact = tmp_path / "schmidt_fuzz.json"
    artifact.write_text(json.dumps(rep, indent=2))
    max_ratio = Fraction(rep["maxRatioSq"])
    ok = max_ratio <= 1 and rep["dualityExact"]
    report(9, ok, f"1000 pairs: max ratioSq = {rep['maxRatioSq']} <= 1, "
                  f"duality exact, artifact {artifact.name}")


def test_criterion_10_extremal_fixtures():
    # exact power law: normSq_i = 2^(6 2^i), L_i = 2^(-4 2^i)
    pairs = [(2 ** (6 * 2 ** i), Fraction(1, 2 ** (4 * 2 ** i)))
             for i in range(6)]
    rows = growth_conditions(pairs, Fraction(2, 3), Fraction(4, 3), 0, 0, 2)
    exact_ok = all(r.get("growth", "pass") == "pass" and r["decay"] == "pass"
                   for r in rows)

    target, approx = presets.load_preset("cbrt2")
    degenerate = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)]
    seq = minpoints.enumerate_minimal_points(target, approx, 3)
    rep = verify_extremal_sequence(degenerate, seq, alpha=Fraction(1, 2), beta=1,
                                   eps=0, big_c=10)
    dets = [d["det"] for d in rep["determinants"]]
    degenerate_ok = dets == [0, 0] and not rep["allPass"]
    ok = exact_ok and degenerate_ok
    report(10, ok, f"exact fixture passes (i)-(ii) with C=0, eps=0; "
                   f"degenerate dets {dets} fail (iii)")
