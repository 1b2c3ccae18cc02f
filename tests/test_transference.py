"""Exponent estimation, profile products, sandwich and extremal verifiers."""

import math
import random
from fractions import Fraction

import pytest

from simra import minpoints, model, presets, rigorous, spectra, transference
from simra.errors import (
    BeyondCertifiedRange,
    DomainError,
    DomainTooShort,
    InsufficientData,
    SandwichViolated,
    TooFewPoints,
)
from simra.construction import jump_indices, select_indices
from simra.ivcalc import (Interval, frac_enclosure, iv_pow, lower,
                          midpoint_float, rig_interval, upper)
from simra.transference import (
    TransferenceProfile,
    check_sandwich,
    eps_threshold,
    epsilon_delta,
    estimate_exponents,
    estimate_exponents_from_pairs,
    growth_conditions,
    lemma41_check,
    mm_lhs,
    mm_lhs_exceeds_one,
    phi_functions,
    verify_extremal_sequence,
)

GOLDEN = (5 ** 0.5 - 1) / 2


# -- the spectrum-side scalar functions --------------------------------------

def test_mm_lhs_golden_identity():
    assert mm_lhs(GOLDEN, 1, 2) == pytest.approx(1.0, abs=1e-10)


def test_mm_lhs_infinite_lambda():
    for lh in (0.0, 0.3, 1.0):
        assert mm_lhs(lh, math.inf, 5) == lh


def test_mm_lhs_takes_a_lambda_past_the_double_range():
    # the order check used to convert lam to a float first: OverflowError
    lam = Fraction(10 ** 400, 3)
    assert mm_lhs(Fraction(1, 2), lam, 3) == Fraction(1, 2) + Fraction(3, 4 * 10 ** 400) \
        + Fraction(9, 8 * 10 ** 800)
    with pytest.raises(DomainError):
        mm_lhs(Fraction(10 ** 400), Fraction(10 ** 399), 3)
    with pytest.raises(DomainError):
        mm_lhs(Fraction(1, 2), -math.inf, 3)


def test_mm_lhs_equality_case():
    assert mm_lhs(Fraction(1, 2), Fraction(1, 2), 2) == Fraction(1)
    # 1/n along the Dirichlet corner for every n
    for n in range(1, 8):
        assert mm_lhs(Fraction(1, n), Fraction(1, n), n) == 1


def test_mm_lhs_exact_for_rationals():
    v = mm_lhs(Fraction(1, 3), Fraction(1, 2), 3)
    assert isinstance(v, Fraction)
    assert v == Fraction(1, 3) + Fraction(1, 9) * 2 + Fraction(1, 27) * 4


def test_mm_lhs_domain_errors():
    with pytest.raises(DomainError):
        mm_lhs(-0.1, 1, 2)
    with pytest.raises(DomainError):
        mm_lhs(0.9, 0.5, 2)  # lambda below lambda-hat


def test_mm_lhs_monotone_in_lambda():
    lh = 0.7
    vals = [mm_lhs(lh, lam, 3) for lam in (0.7, 1.0, 2.0, 10.0, 1e6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] == pytest.approx(lh, abs=1e-5)


def _exceeds(lambda_hat: Fraction, x: Fraction, n: int, scale: int = 1) -> bool:
    return mm_lhs_exceeds_one(lambda_hat.numerator, lambda_hat.denominator,
                              x.numerator * scale, x.denominator * scale, n)


def test_mm_lhs_exceeds_one_at_a_tie_and_on_either_side():
    # lambda_hat = 1 / (1 + r + ... + r^(n-1)) and x = lambda_hat / r put
    # mm_lhs(lambda_hat, x, n) at exactly 1: the test must say "not above"
    # there, "above" just below x, and agree with mm_lhs everywhere.
    rng = random.Random(2024)
    for _ in range(200):
        n = rng.randint(1, 8)
        den = rng.randint(1, 10 ** rng.randint(1, 12))
        r = Fraction(rng.randint(1, den), den)
        lam_hat = 1 / sum(r ** k for k in range(n))
        x = lam_hat / r
        assert mm_lhs(lam_hat, x, n) == 1
        scale = rng.randint(1, 10 ** 6)  # num/den need not be reduced
        assert not _exceeds(lam_hat, x, n)
        assert not _exceeds(lam_hat, x, n, scale)
        for _ in range(5):
            gap = Fraction(rng.randint(1, 10 ** 6), 10 ** rng.randint(6, 30))
            sides = [x + gap * x]
            if x > lam_hat:
                sides.append(x - gap * (x - lam_hat) / (1 + gap))
            for y in sides:
                want = mm_lhs(lam_hat, y, n) > 1
                assert want == (n > 1 and y < x)
                assert _exceeds(lam_hat, y, n) == want
                assert _exceeds(lam_hat, y, n, scale) == want


def test_eps_threshold():
    assert eps_threshold(Fraction(1, 2), 1, 2) == Fraction(1, 64)
    assert eps_threshold(Fraction(2, 3), Fraction(2, 3), 4) == 0
    with pytest.raises(DomainError):
        eps_threshold(2, 1, 2)
    with pytest.raises(DomainError):
        eps_threshold(0, 1, 2)


def test_epsilon_delta_worked_values():
    flat = epsilon_delta(1, 1, Fraction(1, 2), Fraction(1, 2), 2)
    assert flat["eps"] == 0

    ed = epsilon_delta(1, 1, Fraction(1, 2), 1, 2)
    assert ed["eps"] == Fraction(1, 4)
    assert ed["delta"] == Fraction(1, 2)
    assert ed["epsK"] == [Fraction(1, 2), Fraction(1, 4)]
    assert len(ed["cK"]) == 2
    # a = b = 1: every constant is exactly 1
    for ck in ed["cK"]:
        assert lower(ck) <= 1 <= upper(ck)

    with pytest.raises(DomainError):
        epsilon_delta(0, 1, 1, 1, 2)


def test_epsilon_matches_mm_identity_random():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 5)
        alpha = Fraction(rng.randint(1, 20), rng.randint(20, 40))
        beta = alpha + Fraction(rng.randint(0, 10), 17)
        ed = epsilon_delta(1, 1, alpha, beta, n)
        assert ed["eps"] == 1 - mm_lhs(alpha, beta, n)
        for k, e_k in enumerate(ed["epsK"]):
            assert e_k == 1 - mm_lhs(alpha, beta, k + 1)


def test_epsilon_delta_refuses_algebraic_exponents():
    # the exponents are rationals; an algebraic one is bracketed by rationals
    # instead (acceptance criterion 03)
    with pytest.raises(DomainError, match="alpha must be rational"):
        epsilon_delta(1, 1, spectra.lambda_n(3), Fraction(1, 2), 3)


# -- profiles and products ----------------------------------------------------

def test_profile_validation():
    with pytest.raises(DomainError):
        TransferenceProfile(2, 1, 1, 1, Fraction(1, 2))  # alpha > beta
    with pytest.raises(DomainError):
        TransferenceProfile(0, 1, 1, 1, 1)
    with pytest.raises(DomainError):
        TransferenceProfile(2, -1, 1, 1, 1)
    for start in (-1, 0):
        with pytest.raises(DomainError, match="domain_start must be positive"):
            TransferenceProfile(1, 2, Fraction(1, 4), 1, 1, domain_start=start)


# every entry point that takes the dimension n refuses a non-int (a bool
# included) with DomainError, and keeps its own message for n < 1
N_ENTRY_POINTS = [
    ("profile", lambda n: TransferenceProfile(n, 1, 1, Fraction(1, 2), 1),
     "profile needs n >= 1"),
    ("epsilon_delta", lambda n: epsilon_delta(1, 1, Fraction(1, 2), 1, n),
     "n must be >= 1"),
    ("eps_threshold", lambda n: eps_threshold(Fraction(1, 2), 1, n),
     "n must be >= 1"),
    ("mm_lhs", lambda n: mm_lhs(Fraction(1, 2), 1, n), "n must be >= 1"),
]


@pytest.mark.parametrize("build, below", [e[1:] for e in N_ENTRY_POINTS],
                         ids=[e[0] for e in N_ENTRY_POINTS])
def test_n_must_be_an_int_at_least_one(build, below):
    build(1)
    for bad in (2.5, Fraction(2), True, False, "2"):
        with pytest.raises(DomainError, match="n must be an int"):
            build(bad)
    for bad in (0, -3):
        with pytest.raises(DomainError) as err:
            build(bad)
        assert str(err.value) == below


def test_profile_functions_refuse_x_at_or_below_zero():
    p = TransferenceProfile(2, 1, 1, Fraction(1, 3), Fraction(1, 2))
    for f in (p.phi, p.psi, p.theta):
        # an enclosure reaching down to 0 is refused too
        for x in (0, -5, Fraction(-1, 3), Interval(Fraction(-1), Fraction(1)), Interval(Fraction(0), Fraction(1))):
            with pytest.raises(DomainError, match="need X > 0"):
                f(x)
        assert lower(f(Fraction(1, 10 ** 9))) > 0


def test_phi_psi_theta_power():
    p = TransferenceProfile(2, 1, 1, Fraction(1, 2), 1)
    assert midpoint_float(p.phi(4)) == pytest.approx(0.5, abs=1e-14)
    assert midpoint_float(p.psi(4)) == pytest.approx(0.25, abs=1e-14)
    # phi = psi o theta certified at sample points
    for x in (Fraction(3), Fraction(10), Fraction(1000)):
        lhs = p.psi(p.theta(x))
        rhs = p.phi(x)
        assert lower(lhs) <= upper(rhs) and lower(rhs) <= upper(lhs)
    # built directly from ints, the exponent alpha/beta = 1/3 stays exact,
    # so the enclosure of theta(8) = 2 holds 2
    q = TransferenceProfile(n=1, a=1, b=1, alpha=1, beta=3)
    assert q == TransferenceProfile(1, 1, 1, 1, 3)
    theta = q.theta(8)
    assert theta.lo <= 2 <= theta.hi


def test_phi_functions_worked_values():
    p = TransferenceProfile(2, 1, 1, Fraction(1, 2), 1)
    out0 = phi_functions(p, 0, 4)
    assert midpoint_float(out0["PhiK"]) == pytest.approx(2.0, abs=1e-13)
    out1 = phi_functions(p, 1, 16)
    # X phi(theta X) phi(X) = 16 * 16^(-1/4) * 16^(-1/2) = 2
    assert midpoint_float(out1["PhiK"]) == 2.0
    assert midpoint_float(out1["PhiKClosed"]) == 2.0
    with pytest.raises(DomainError):
        phi_functions(p, 2, 16)
    with pytest.raises(DomainError):
        phi_functions(p, 0, 1)  # below domain start


def test_identity_theta_powers_phi():
    # a = b = 1, alpha = beta: theta = id, so phi_k = phi^(k+1)
    p = TransferenceProfile(3, 1, 1, Fraction(2, 3), Fraction(2, 3))
    for k in range(3):
        for x in (2, 5, 40):
            got = midpoint_float(phi_functions(p, k, x)["phiK"])
            assert got == pytest.approx(float(x) ** (-2 / 3 * (k + 1)),
                                        rel=1e-12)


def test_iterated_vs_closed_random_profiles():
    rng = random.Random(2024)
    for _ in range(20):
        n = rng.randint(2, 4)
        alpha = Fraction(rng.randint(1, 9), 10)
        beta = alpha + Fraction(rng.randint(0, 9), 10)
        a = Fraction(rng.randint(1, 40), rng.randint(1, 13))
        b = Fraction(rng.randint(1, 40), rng.randint(1, 13))
        p = TransferenceProfile(n, a, b, alpha, beta)
        k = rng.randint(0, n - 1)
        for x in (Fraction(3), Fraction(17, 2), Fraction(1200)):
            out = phi_functions(p, k, x)  # raises on certified disagreement
            it, cl = midpoint_float(out["PhiK"]), midpoint_float(out["PhiKClosed"])
            assert it == pytest.approx(cl, rel=1e-10)


# -- exponent estimation -------------------------------------------------------

def synthetic_pairs(count=14):
    # X_i = 2^(2^i), L_i = X_i^-2: lambda = 2 and lambda-hat = 1 exactly
    return [(2 ** (2 ** (i + 1)), Fraction(1, 2 ** (2 ** (i + 1))))
            for i in range(count)]


def test_exponents_synthetic_exact():
    est = estimate_exponents_from_pairs(synthetic_pairs(), 1)
    assert est.lambda_est == pytest.approx(2.0, abs=1e-12)
    assert est.lambda_hat_est == pytest.approx(1.0, abs=1e-12)
    assert est.window_size >= 10
    assert est.lambda_hat_est <= est.lambda_est


def test_exponents_too_few_points():
    with pytest.raises(TooFewPoints):
        estimate_exponents_from_pairs(synthetic_pairs(9), 1)
    with pytest.raises(DomainError):
        estimate_exponents_from_pairs(synthetic_pairs(), 1, tail_fraction=0)


def test_exponents_sqrt2(sqrt2_seq_1e5):
    est = estimate_exponents(sqrt2_seq_1e5)
    # finite-size values: both crawl toward 1 like 1 + O(1/log X)
    assert est.lambda_est == pytest.approx(1.1615, abs=0.002)
    assert est.lambda_hat_est == pytest.approx(0.9002, abs=0.002)
    assert est.lambda_hat_est <= est.lambda_est
    assert 0 <= est.lambda_hat_est <= 1 + 1e-9
    assert len(est.ordinary_series) == est.window_size


# -- sandwich and product-chain checks ----------------------------------------

def sqrt2_profile():
    return TransferenceProfile(1, 2, Fraction(1, 4), 1, 1)


def test_check_sandwich_sqrt2(sqrt2_seq_1e5):
    rep = check_sandwich(sqrt2_seq_1e5, sqrt2_profile())
    assert rep["gridCount"] >= 60
    assert rep["eps"] == 0 and rep["epsNonnegative"]
    assert rep["consequencesHold"]
    assert rep["empiricalC"] > 0
    for row in rep["grid"]:
        assert row["psi"] <= row["envelope"] * (1 + 1e-9)
        assert row["envelope"] <= row["phi"] * (1 + 1e-9)


@pytest.mark.parametrize("grid_count", [1, 0, -3])
def test_check_sandwich_rejects_a_short_grid(sqrt2_seq_30, grid_count):
    with pytest.raises(DomainError, match="grid_count must be >= 2"):
        check_sandwich(sqrt2_seq_30, sqrt2_profile(), grid_count=grid_count)


def test_check_sandwich_violation(sqrt2_seq_1e5):
    # a = 1 pinches phi below the envelope near X ~ 3
    bad = TransferenceProfile(1, 1, Fraction(1, 4), 1, 1)
    with pytest.raises(SandwichViolated) as exc:
        check_sandwich(sqrt2_seq_1e5, bad)
    assert exc.value.witness is not None


def test_check_sandwich_catches_violation_between_grid_points(sqrt2_seq_1e5):
    # L_1 = sqrt2 - 1 holds on [sqrt2, sqrt13); with a just below
    # (sqrt2 - 1) sqrt13, phi = a / X drops under it on
    # (sqrt13 (1 - 10^-6), sqrt13), which no grid point of [2, 10^5] meets;
    # the step starts below the domain start 2
    a = rigorous.refine((rigorous.sqrt(2) - 1) * rigorous.sqrt(13)
                        * (1 - Fraction(1, 10 ** 6)), 64).midpoint
    p = TransferenceProfile(1, a, Fraction(1, 4), 1, 1)
    with pytest.raises(SandwichViolated, match="L_1 is certifiably above phi") as exc:
        check_sandwich(sqrt2_seq_1e5, p)
    assert exc.value.witness is sqrt2_seq_1e5.entries[2].x_value
    # below psi at the domain start: b = 1 gives psi(2) = 1/2 > L_1
    p = TransferenceProfile(1, 2, 1, 1, 1)
    with pytest.raises(SandwichViolated, match="L_1 is certifiably below psi") as exc:
        check_sandwich(sqrt2_seq_1e5, p)
    assert exc.value.witness == 2


def test_profile_dimension_must_match_the_target(sqrt2_seq_1e5, cubic_seq_1e4):
    with pytest.raises(DomainError, match="profile for n=3 on a target with n=1"):
        check_sandwich(sqrt2_seq_1e5, TransferenceProfile(3, 2, Fraction(1, 4), 1, 1))
    p = TransferenceProfile(3, 3, Fraction(1, 8), Fraction(2, 5), Fraction(3, 5))
    with pytest.raises(DomainError, match="profile for n=3 on a target with n=2"):
        lemma41_check(cubic_seq_1e4, [0, 1, 2], p)


def test_check_sandwich_domain_too_short(sqrt2_seq_30):
    p = TransferenceProfile(1, 2, Fraction(1, 4), 1, 1, domain_start=20)
    with pytest.raises(DomainTooShort):
        check_sandwich(sqrt2_seq_30, p)


def cubic_profile(seq):
    est = estimate_exponents(seq)
    alpha = Fraction(est.lambda_hat_est).limit_denominator(100) - Fraction(1, 20)
    beta = Fraction(est.lambda_est).limit_denominator(100) + Fraction(1, 20)
    # fit a and b with slack so the sandwich has room at the measured points
    a_hi = max(float(e.l_value) * float(e2.x_value) ** float(alpha)
               for e, e2 in zip(seq.entries, seq.entries[1:]))
    b_lo = min(float(e.l_value) * float(e.x_value) ** float(beta)
               for e in seq.entries if e.norm_sq > 1)
    return TransferenceProfile(
        2, Fraction(a_hi).limit_denominator(10 ** 6) * Fraction(11, 10),
        Fraction(b_lo).limit_denominator(10 ** 6) * Fraction(9, 10),
        alpha, beta)


def test_check_sandwich_cubic(cubic_seq_1e4):
    p = cubic_profile(cubic_seq_1e4)
    rep = check_sandwich(cubic_seq_1e4, p)
    assert rep["epsNonnegative"]
    assert rep["consequencesHold"]
    directions = {m["k"]: m["direction"] for m in rep["monotonicity"]}
    assert directions[0] == "increasing"  # Phi_0 = X phi(X), alpha < 1


def test_lemma41_chain_cubic(cubic_seq_1e4):
    from simra.construction import select_indices

    p = cubic_profile(cubic_seq_1e4)
    idx = select_indices(cubic_seq_1e4, 0)
    out = lemma41_check(cubic_seq_1e4, idx, p)
    assert out["certifiedPass"] and not out["certifiedFail"]
    assert out["lhs"] <= out["rhs"]
    with pytest.raises(DomainError):
        lemma41_check(cubic_seq_1e4, [0], p)


def reference_phi_functions_at_sq(profile, k, x_sq):
    """The square-root chain lemma41_check used before it shared _phi_chain:
    Phi_k evaluated at sqrt(x_sq) without leaving certified arithmetic."""
    xi = iv_pow(frac_enclosure(x_sq), Fraction(1, 2))
    phik = profile.phi(xi)
    t = xi
    for _ in range(k):
        t = profile.theta(t)
        phik = phik * profile.phi(t)
    return xi * phik


def reference_lemma41_check(seq, indices, profile):
    """lemma41_check's products as they were written before _phi_chain."""
    entries = seq.entries
    idx = jump_indices(indices, len(entries))
    lhs = None
    for i in idx:
        z = rig_interval(entries[i + 1].x_value)
        term = z * profile.phi(z)
        lhs = term if lhs is None else lhs * term
    rhs = None
    for i in idx[1:]:
        y = rig_interval(entries[i].x_value)
        rhs = y if rhs is None else rhs * y
    top = reference_phi_functions_at_sq(profile, profile.n - 1,
                                        Fraction(entries[idx[-1] + 1].norm_sq))
    rhs = top if rhs is None else rhs * top
    return {"indices": idx, "lhs": midpoint_float(lhs), "rhs": midpoint_float(rhs),
            "certifiedPass": upper(lhs) <= lower(rhs),
            "certifiedFail": lower(lhs) > upper(rhs)}


def random_power_profiles(rng, n, count):
    """Loose power profiles: a large, b small, alpha below 1/2 < beta."""
    return [TransferenceProfile(
        n, Fraction(rng.randint(20, 400), 10), Fraction(1, rng.randint(20, 40)),
        Fraction(rng.randint(1, 9), 20), Fraction(rng.randint(6, 12), 10),
        domain_start=rng.choice((1, 2, Fraction(5, 2), 20)))
        for _ in range(count)]


def test_phi_chain_matches_the_reference_square_root_chain(cubic_seq_1e4):
    rng = random.Random(15)
    profiles = [cubic_profile(cubic_seq_1e4)]
    for n in (2, 3, 4):
        profiles += random_power_profiles(rng, n, 4)
    for p in profiles:
        for k in range(p.n):
            for x_sq in (Fraction(5), Fraction(289, 4), 10 ** 6 + 1, 35058282):
                xi = iv_pow(frac_enclosure(x_sq), Fraction(1, 2))
                got = xi * transference._phi_chain(p, xi, k)[k]
                assert got == reference_phi_functions_at_sq(p, k, x_sq)
    for p in profiles[:1] + [q for q in profiles if q.n == 2]:
        for i0 in (0, 1):
            idx = select_indices(cubic_seq_1e4, i0)
            assert (lemma41_check(cubic_seq_1e4, idx, p)
                    == reference_lemma41_check(cubic_seq_1e4, idx, p))


def reference_consequences(seq, profile):
    """The separate consequences loop check_sandwich ran after the step
    check, before the step walk collected the consequences itself."""
    a0 = profile.domain_start
    consequences = []
    for e, nxt in zip(seq.entries, seq.entries[1:]):
        if Fraction(e.norm_sq) < a0 * a0:
            continue
        x_next = rig_interval(nxt.x_value)
        li = rig_interval(e.l_value)
        phi_next = profile.phi(x_next)
        theta_next = profile.theta(x_next)
        x_cur = rig_interval(e.x_value)
        consequences.append({
            "i": e.index,
            "errorBelowPhiNext": not lower(li) > upper(phi_next),
            "normAboveThetaNext": not upper(x_cur) < lower(theta_next),
        })
    return consequences


def test_check_sandwich_consequences_match_the_reference_loop(cubic_seq_1e4):
    profiles = ([cubic_profile(cubic_seq_1e4)]
                + random_power_profiles(random.Random(16), 2, 10))
    for p in profiles:
        got = check_sandwich(cubic_seq_1e4, p, grid_count=8)["consequences"]
        assert got == reference_consequences(cubic_seq_1e4, p)


def test_check_sandwich_computes_the_closed_form_once(monkeypatch, cubic_seq_1e4):
    calls = []
    real = transference.epsilon_delta

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(transference, "epsilon_delta", counted)
    check_sandwich(cubic_seq_1e4, cubic_profile(cubic_seq_1e4))
    assert len(calls) == 1


def test_check_sandwich_still_checks_the_closed_form(monkeypatch, cubic_seq_1e4):
    real = transference.epsilon_delta

    def corrupted(*args):
        ed = real(*args)
        ed["cK"] = [c * 2 for c in ed["cK"]]
        return ed

    monkeypatch.setattr(transference, "epsilon_delta", corrupted)
    with pytest.raises(DomainError, match="certifiably disjoint .* implementation bug"):
        check_sandwich(cubic_seq_1e4, cubic_profile(cubic_seq_1e4))


@pytest.mark.parametrize("k", [0, 1])
def test_check_sandwich_checks_the_closed_form_at_every_k(monkeypatch, cubic_seq_1e4, k):
    real = transference.epsilon_delta

    def corrupted(*args):
        ed = real(*args)
        ed["cK"] = [c * 2 if j == k else c for j, c in enumerate(ed["cK"])]
        return ed

    monkeypatch.setattr(transference, "epsilon_delta", corrupted)
    with pytest.raises(DomainError, match=f"disjoint at X=.*, k={k}: implementation bug"):
        check_sandwich(cubic_seq_1e4, cubic_profile(cubic_seq_1e4))


def test_check_sandwich_builds_one_phi_chain_per_sample_point(monkeypatch, cubic_seq_1e4):
    # phi_0 ... phi_{n-1} at each sample point come from one chain, not one
    # chain per k
    depths = []
    real = transference._phi_chain

    def counted(profile, xi, k):
        depths.append(k)
        return real(profile, xi, k)

    monkeypatch.setattr(transference, "_phi_chain", counted)
    check_sandwich(cubic_seq_1e4, cubic_profile(cubic_seq_1e4))
    assert depths == [1] * 16


def test_lemma41_validates_the_jump_indices(cubic_seq_1e4):
    p = TransferenceProfile(2, 1, 1, "1/2", 1)
    assert len(cubic_seq_1e4) == 11
    with pytest.raises(InsufficientData, match="needs entry 12, sequence has 11"):
        lemma41_check(cubic_seq_1e4, [10, 11], p)
    for idx in ([-3, -2], [2, 0]):
        with pytest.raises(DomainError, match="0 <= i_0 < i_1"):
            lemma41_check(cubic_seq_1e4, idx, p)


# -- growth conditions and the extremal verifier -------------------------------

def exact_power_fixture(count=6):
    # normSq_i = 2^(6 2^i), L_i = 2^(-4 2^i): alpha = 2/3, beta = 4/3 exactly
    return [(2 ** (6 * 2 ** i), Fraction(1, 2 ** (4 * 2 ** i)))
            for i in range(count)]


def test_growth_conditions_exact_fixture():
    rows = growth_conditions(exact_power_fixture(), Fraction(2, 3),
                             Fraction(4, 3), 0, 0, 2)
    for r in rows:
        assert r.get("growth", "pass") == "pass"
        assert r["decay"] == "pass"


def test_growth_conditions_exact_fixture_perturbed():
    pairs = exact_power_fixture()
    pairs[3] = (pairs[3][0] * 4, pairs[3][1])  # break the norm ladder
    rows = growth_conditions(pairs, Fraction(2, 3), Fraction(4, 3), 0, 0, 2)
    assert any(r.get("growth") == "fail" for r in rows)
    pairs2 = exact_power_fixture()
    pairs2[2] = (pairs2[2][0], pairs2[2][1] * 2)  # break the decay law
    rows2 = growth_conditions(pairs2, Fraction(2, 3), Fraction(4, 3), 0, 0, 2)
    assert any(r["decay"] == "fail" for r in rows2)


def test_growth_conditions_interval_path():
    rows = growth_conditions(exact_power_fixture(), Fraction(2, 3),
                             Fraction(4, 3), Fraction(1, 100), 1, 2)
    for r in rows:
        assert r.get("growth", "pass") == "pass"
        assert r["decay"] == "pass"


def test_verify_extremal_sqrt2(sqrt2_seq_1e5):
    rep = verify_extremal_sequence(sqrt2_seq_1e5.points(), sqrt2_seq_1e5,
                                   alpha=1, beta=1, eps=0, big_c=1)
    assert rep["allPass"], rep
    assert rep["thresholdOK"]  # eps = 0 <= threshold 0 at alpha = beta
    dets = [d["det"] for d in rep["determinants"]]
    assert all(abs(d) == 1 for d in dets)  # consecutive convergents


def test_verify_extremal_rank_degenerate(cubic_seq_1e4):
    pts = [(1, 0, 0), (0, 1, 0), (1, 1, 0), (2, 1, 0)]
    rep = verify_extremal_sequence(pts, cubic_seq_1e4,
                                   alpha=Fraction(1, 2), beta=1,
                                   eps=0, big_c=10)
    assert [d["det"] for d in rep["determinants"]] == [0, 0]
    assert not rep["allPass"]


def test_verify_extremal_envelope_violation(sqrt2_seq_1e5):
    pts = sqrt2_seq_1e5.points()[:10] + [(40, 57)]  # (40,57) is not minimal
    rep = verify_extremal_sequence(pts, sqrt2_seq_1e5, alpha=1, beta=1,
                                   eps=0, big_c=1)
    assert rep["envelopeAgreement"][-1]["pass"] is False
    assert not rep["allPass"]


def test_verify_extremal_too_few(cubic_seq_1e4):
    with pytest.raises(TooFewPoints):
        verify_extremal_sequence([(0, 0, 1), (1, 1, 1)], cubic_seq_1e4,
                                 alpha=Fraction(1, 2), beta=1, eps=0, big_c=1)


def test_verify_extremal_refuses_points_beyond_the_sequence(sqrt2_seq_30):
    # envelope agreement is decided against the sequence's entries, which
    # say nothing past its x_max
    pts = sqrt2_seq_30.points() + [(29, 41)]
    with pytest.raises(BeyondCertifiedRange, match=r"\(29, 41\) lies beyond"):
        verify_extremal_sequence(pts, sqrt2_seq_30, alpha=1, beta=1, eps=0, big_c=1)
