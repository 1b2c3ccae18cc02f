"""The exponent spectrum: corner roots, the frontier curve, preset reports."""

import hashlib
import io
import math
import random
from fractions import Fraction

import pytest

from simra import rigorous, spectra
from simra.errors import DomainError, SchemaError
from simra.minpoints import INFINITE
from simra.spectra import (
    frontier,
    frontier_rows,
    lambda_n,
    lambda_rows,
    liouville_preset,
    write_frontier_csv,
    write_lambda_csv,
)
from simra.transference import mm_lhs


def test_lambda_2_is_golden():
    root = lambda_n(2)
    golden = (rigorous.sqrt(5) - 1) / 2
    diff = rigorous.refine(root - golden, 80)
    assert abs(float(diff)) < 1e-12
    assert abs(diff.midpoint) <= diff.radius  # same real number


def test_lambda_3_value():
    assert float(lambda_n(3)) == pytest.approx(0.4052678569, abs=1e-9)


def test_lambda_n_defining_identity():
    for n in range(2, 9):
        root = lambda_n(n)
        v = mm_lhs(root, Fraction(1, n - 1), n)
        assert abs(float(v) - 1) < 1e-10


def test_lambda_n_decreasing():
    vals = [float(r) for _, r in lambda_rows(10)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert 0 < vals[-1] < vals[0] < 1


def test_lambda_n_domain():
    with pytest.raises(DomainError):
        lambda_n(1)


def test_frontier_endpoints():
    assert frontier(1, 3) is INFINITE
    assert frontier(Fraction(1, 3), 3) == Fraction(1, 3)
    with pytest.raises(DomainError):
        frontier(Fraction(1, 4), 3)  # below the Dirichlet corner
    with pytest.raises(DomainError):
        frontier(Fraction(11, 10), 3)
    with pytest.raises(DomainError):
        frontier(Fraction(1, 2), 1)


def test_frontier_n2_closed_form():
    assert frontier(Fraction(3, 5), 2) == Fraction(9, 10)
    assert frontier(Fraction(1, 2), 2) == Fraction(1, 2)
    g = lambda_n(2)
    # the corner root maps to lambda = 1 on the n = 2 frontier
    lam = frontier(Fraction(float(g)).limit_denominator(10 ** 12), 2)
    assert float(lam) == pytest.approx(1.0, abs=1e-10)


def test_frontier_n3_value():
    lam = frontier(Fraction(1, 2), 3)
    assert float(lam) == pytest.approx((1 + 5 ** 0.5) / 4, abs=1e-12)


def test_frontier_rows_satisfy_identity():
    for n in (2, 3, 4, 5):
        for lh, lam in frontier_rows(n, grid_count=17):
            if isinstance(lam, float) and math.isinf(lam):
                assert lh == 1
                continue
            assert float(mm_lhs(lh, lam, n)) == pytest.approx(1.0, abs=1e-10)
            assert lam >= lh


def _fraction_bracket(lam_hat, n):
    """The bracket frontier's bisection starts from, found on mm_lhs."""
    hi = max(Fraction(1), 2 * lam_hat)
    while mm_lhs(lam_hat, hi, n) > 1:
        hi *= 2
    return lam_hat, hi


def _fraction_bisection(lam_hat, n):
    """The reference: frontier's bisection run on exact mm_lhs values."""
    lo, hi = _fraction_bracket(lam_hat, n)
    while hi - lo > Fraction(1, 10 ** 14):
        mid = (lo + hi) / 2
        if mm_lhs(lam_hat, mid, n) > 1:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


@pytest.mark.parametrize("n", range(3, 8))
def test_frontier_equals_fraction_bisection_on_grid(n):
    rows = frontier_rows(n, 401)
    for lh, lam in rows[1:-1]:  # the two ends are closed-form cases
        assert lam == _fraction_bisection(lh, n), (n, lh)


def test_frontier_equals_fraction_bisection_on_random_pairs():
    rng = random.Random(14)
    for _ in range(150):
        n = rng.randint(3, 9)
        den = rng.randint(2, 10 ** rng.randint(1, 15))
        lh = Fraction(1, n) + (1 - Fraction(1, n)) * Fraction(rng.randint(1, den - 1), den)
        assert frontier(lh, n) == _fraction_bisection(lh, n), (n, lh)


NEAR_END_EXPONENTS = (1, 5, 15, 30, 80, 200, 320)


def _near_ends(n, exponents=NEAR_END_EXPONENTS):
    """lambda_hat = 1 - 10^-k and 1/n + 10^-k: the frontier near infinity
    and near the Dirichlet corner."""
    for k in exponents:
        yield 1 - Fraction(1, 10 ** k)
        yield Fraction(1, n) + Fraction(1, 10 ** k)


# sha256 of the frontier values at _near_ends(n), as "num/den" joined by
# commas, recorded from the full bisection of [lambda_hat, hi]
NEAR_END_SHA256 = {
    3: "54cfd6711f96fc5a272f44b1e5d3ccc16a534567ed3d6aa36b83dc8e4e7e39c5",
    4: "44131028f3f4515cf184de460373de9031d78a49103883dec1ae5e326545580c",
    7: "9e524b60584ba246270d89b501648cf59d34b44c258f4a18da4a9be5cf2b116a",
    12: "a69ee804a715d035fd0f6c8fe8abb0ea66d280526dc1eb7344792df49eb1aa52",
}


@pytest.mark.parametrize("n", sorted(NEAR_END_SHA256))
def test_frontier_near_the_ends_is_pinned(n):
    values = ",".join(f"{v.numerator}/{v.denominator}"
                      for v in (frontier(lh, n) for lh in _near_ends(n)))
    assert hashlib.sha256(values.encode()).hexdigest() == NEAR_END_SHA256[n]


@pytest.mark.parametrize("n", sorted(NEAR_END_SHA256))
def test_frontier_near_the_ends_equals_fraction_bisection(n):
    # the Fraction reference takes seconds past 10^-30
    for lh in _near_ends(n, (1, 5, 15, 30)):
        assert frontier(lh, n) == _fraction_bisection(lh, n), (n, lh)


def _grid_cell(lam_hat, n, value):
    """The cell [value - half, value + half] of frontier's grid, its hi
    certified by two mm_lhs values instead of found by doubling."""
    start = max(Fraction(1), 2 * lam_hat)
    j = 0
    while start * 2 ** j < value:
        j += 1
    hi = start * 2 ** j
    assert mm_lhs(lam_hat, hi, n) <= 1
    assert j == 0 or mm_lhs(lam_hat, hi / 2, n) > 1
    width = hi - lam_hat
    cells = 1
    while width * 10 ** 14 > cells:
        cells *= 2
    half = width / cells / 2
    index = (value - half - lam_hat) / width * cells
    assert index.denominator == 1 and 0 <= index < cells
    return value - half, value + half


@pytest.mark.parametrize("n", sorted(NEAR_END_SHA256))
def test_frontier_near_the_ends_is_certified(n):
    for lh in _near_ends(n):
        value = frontier(lh, n)
        left, right = _grid_cell(lh, n, value)
        assert mm_lhs(lh, left, n) > 1 >= mm_lhs(lh, right, n), (n, lh)


WRONG_GUESS_CASES = [(Fraction(1, 2), 3), (Fraction(97, 100), 5),
                     (1 - Fraction(1, 10 ** 30), 7),
                     (Fraction(1, 12) + Fraction(1, 10 ** 15), 12)]


@pytest.mark.parametrize("lam_hat, n", WRONG_GUESS_CASES)
def test_a_wrong_guess_costs_time_never_the_result(monkeypatch, lam_hat, n):
    want = frontier(lam_hat, n)
    left, right = _grid_cell(lam_hat, n, want)
    cell = float(right - left)
    guesses = [0.0, -1.0, 1e-300, 2.0 ** 1000, math.nan, math.inf, -math.inf,
               float(lam_hat), float(want) + 1e6 * cell, float(want) - 1e6 * cell,
               Fraction(10 ** 400)]
    for guess in guesses:
        monkeypatch.setattr(spectra, "_frontier_guess", lambda p, q, n, g=guess: g)
        assert frontier(lam_hat, n) == want, guess


def test_a_good_guess_needs_few_sign_tests(monkeypatch):
    calls = []
    sign_test = spectra.transference.mm_lhs_exceeds_one
    monkeypatch.setattr(spectra.transference, "mm_lhs_exceeds_one",
                        lambda *args: calls.append(args) or sign_test(*args))
    for n in (3, 5):
        calls.clear()
        rows = frontier_rows(n, 401)
        assert len(calls) <= 8 * (len(rows) - 2), n
    # outside the closed form lambda < 2^26, so a float guess leaves at most
    # about 21 bits of the cell index to bisect
    for n in (3, 4, 7, 12):
        for k in range(1, 40):
            calls.clear()
            frontier(1 - Fraction(1, 10 ** k), n)
            assert len(calls) <= 40, (n, k, len(calls))


# sha256 of the 401-point frontier CSVs, as recorded in bench/golden.json
FRONTIER_CSV_SHA256 = {
    3: "cbd71ce0cc76933a8d76cd626775260c952b9f9c0e1052129fefcb9143668545",
    5: "7ec128bfb7640f0864710775f75f0cccbe67d85f0bc1ac5f6fd0c1c6ebc78f68",
}


@pytest.mark.parametrize("n", sorted(FRONTIER_CSV_SHA256))
def test_frontier_csv_bytes_pinned(n):
    buf = io.StringIO()
    write_frontier_csv(buf, n, 401)
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == FRONTIER_CSV_SHA256[n]


def test_lambda_csv():
    buf = io.StringIO()
    write_lambda_csv(buf, 5)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,lambda_n"
    assert len(lines) == 5
    assert lines[1].startswith("2,0.618033988749")


def test_frontier_csv():
    buf = io.StringIO()
    write_frontier_csv(buf, 3, grid_count=11)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "lambda_hat,lambda"
    assert len(lines) == 12
    assert lines[-1].endswith(",inf")


def test_liouville_preset_quadratic():
    theta = {"type": "algebraic", "minpoly": [-2, 0, 1], "interval": ["1", "2"]}
    extra = {"type": "decimal",
             "value": "1.73205080756887729352744634150587236694280525381038"
                      "062805581"}
    rep = liouville_preset(theta, extra, 10 ** 4)
    assert rep["n"] == 2 and rep["thetaDegree"] == 2
    assert rep["entries"] == 11
    assert rep["scaledInfAt"] == 0
    assert rep["scaledInf"] == pytest.approx(1.0, abs=1e-12)
    assert rep["lambdaHatEst"] == pytest.approx(0.348, abs=0.01)
    assert rep["lambdaN"] == pytest.approx(0.6180339887, abs=1e-9)
    assert rep["marginBelowCorner"] > 0.25


def test_liouville_preset_short_run_has_no_estimate():
    # too few entries for an exponent estimate: reported as None, not raised
    theta = {"type": "algebraic", "minpoly": [-2, 0, 1], "interval": ["1", "2"]}
    extra = {"type": "decimal", "value": "1.7320508075688772935"}
    rep = liouville_preset(theta, extra, 100)
    assert rep["entries"] == 7
    assert rep["lambdaHatEst"] is None
    assert rep["lambdaEst"] is None and rep["marginBelowCorner"] is None


def test_liouville_preset_validation():
    with pytest.raises(SchemaError):
        liouville_preset({"type": "rational", "value": "2"}, None, 100)
    with pytest.raises(DomainError):
        liouville_preset({"type": "algebraic", "minpoly": [-2, 1],
                          "interval": ["1", "3"]}, None, 100)
