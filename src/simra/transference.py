"""Exponent estimation and the transference function machinery.

Around a minimal-point sequence live two exponents: the supremum lambda of
the decay rates the envelope attains infinitely often, and the uniform
exponent lambda-hat it attains eventually.  Their finite-X analogues are
step-envelope ratios (-log L_i / log X_i and -log L_i / log X_{i+1}).

A profile packages a decreasing pair (psi, phi) sandwiching the envelope
together with the increasing transfer map theta satisfying phi = psi o theta.
Every profile is a power profile, (psi, phi, theta)(X) = (b X^-beta,
a X^-alpha, (a/b)^(-1/beta) X^(alpha/beta)), so the iterated products

    phi_k(X) = phi(theta^k(X)) ... phi(theta(X)) phi(X),
    Phi_k(X) = X phi_k(X) = c_k X^(eps_k),

have exact rational exponents eps_k = 1 - alpha - alpha^2/beta - ... -
alpha^(k+1)/beta^k; the module evaluates both the iterated and the closed
form with certified enclosures and measures the empirical constants that the
transference statements leave ineffective.  Values enter interval arithmetic
through ivcalc: a rational through frac_enclosure, a RigorousReal through
rig_interval, and a value of either kind through enclose; the products come
from one chain.  Each analysis takes the log of an enclosure once: a profile
keeps the logs of the points it has evaluated at, so psi, phi and theta at
one X, the closed forms, and theta's constant (a/b)^(-1/beta) share them,
and the exponent estimates and growth conditions keep the logs of their
norms and errors in a memo of the call.

The extremal-sequence verifier checks the four structural conditions a
near-equality profile forces on a subsequence of minimal points: two growth
conditions on (norm, error) pairs (with an all-integer exact path when C = 0
and eps = 0), nonvanishing consecutive determinants, and agreement with the
envelope at each norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Sequence

from . import minpoints, model
from .construction import jump_indices
from .errors import (BeyondCertifiedRange, DomainError, DomainTooShort,
                     SandwichViolated, TooFewPoints)
from .ivcalc import (Interval, enclose, frac_enclosure, iv_log, iv_pow, lower,
                     midpoint_float, rig_interval, upper)
from .rigorous import RigorousReal
from .subspaces import _int_det


def _frac(v, name: str) -> Fraction:
    try:
        return Fraction(v)
    except (ValueError, TypeError, ZeroDivisionError) as e:
        raise DomainError(f"{name} must be rational: {e}") from None


def _check_n(n, below: str = "n must be >= 1") -> None:
    """Refuse an n that is not an int >= 1, bools included."""
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"n must be an int, got {n!r}")
    if n < 1:
        raise DomainError(below)


# ---------------------------------------------------------------------------
# the Marnat-Moshchevitin left-hand side and its exact epsilon counterpart

def mm_lhs(lambda_hat, lam, n: int):
    """lambda_hat + lambda_hat^2/lam + ... + lambda_hat^n / lam^(n-1).

    lam may be the infinity marker, in which case the value is lambda_hat
    (every higher term carries a vanishing ratio).  Exact for rational
    inputs, enclosure arithmetic for RigorousReal inputs.
    """
    _check_n(n)
    numeric = (int, float, Fraction)
    if isinstance(lambda_hat, numeric) and lambda_hat < 0:
        raise DomainError("lambda_hat must be >= 0")
    if isinstance(lam, float) and lam == math.inf:
        return lambda_hat
    if isinstance(lam, numeric) and isinstance(lambda_hat, numeric):
        if lam < lambda_hat:
            raise DomainError("lam must be >= lambda_hat (or infinite)")
    if isinstance(lambda_hat, numeric) and lambda_hat == 0:
        return Fraction(0) if isinstance(lambda_hat, (int, Fraction)) else 0.0
    # lambda_hat^k / lam^(k-1) = lambda_hat * r^(k-1) with r = lambda_hat/lam
    r = lambda_hat / lam
    acc = r * 0 + 1
    for _ in range(n - 1):
        acc = 1 + r * acc
    return lambda_hat * acc


def mm_lhs_exceeds_one(p: int, q: int, num: int, den: int, n: int) -> bool:
    """Whether mm_lhs(p/q, num/den, n) > 1, decided in integers.

    All four integers must be positive; num/den need not be in lowest
    terms.  Multiplying both sides by q (q num)^(n-1) turns the comparison
    into

        p * sum_{i<n} (p den)^i (q num)^(n-1-i)  >  q * (q num)^(n-1),

    one Horner loop with no gcd.  Equality (mm_lhs exactly 1) is "not
    above".  Nothing is validated, mm_lhs's num/den >= p/q included: the
    caller (spectra.frontier's bisection) passes values it has checked.
    """
    a, b = p * den, q * num
    acc = b_pow = 1
    for _ in range(n - 1):
        b_pow *= b
        acc = acc * a + b_pow
    return p * acc > q * b_pow


def eps_threshold(alpha, beta, n: int) -> Fraction:
    """The smallness bound on eps under which the extremal structure appears:
    (1/4n) (alpha/beta)^n min(alpha, beta - alpha)."""
    alpha, beta = _frac(alpha, "alpha"), _frac(beta, "beta")
    if not 0 < alpha <= beta:
        raise DomainError("need 0 < alpha <= beta")
    _check_n(n)
    return Fraction(1, 4 * n) * (alpha / beta) ** n * min(alpha, beta - alpha)


def epsilon_delta(a, b, alpha, beta, n: int, log=iv_log) -> dict:
    """Exact exponents and certified constants of the power-profile products.

    Returns eps = 1 - sum alpha^(k+1)/beta^k (exact), the full eps_k ladder,
    delta = the exponent of a/b in the top constant, and enclosures of the
    constants c_k = a^(k+1) (a/b)^(delta_k), with log a/b from `log` (a
    profile passes its memo).  Every parameter is a positive rational.
    """
    a, b = _frac(a, "a"), _frac(b, "b")
    alpha, beta = _frac(alpha, "alpha"), _frac(beta, "beta")
    if min(a, b, alpha, beta) <= 0:
        raise DomainError("a, b, alpha, beta must all be positive")
    _check_n(n)
    r = alpha / beta
    eps_k: list = []
    delta_k: list = []
    acc = Fraction(0)        # alpha + alpha^2/beta + ... up to current k
    delta_acc = Fraction(0)  # sum_{j<=k} sum_{i<=j} r^i
    inner = Fraction(0)      # sum_{i<=j} r^i for the current j
    term, rk = alpha, Fraction(1)
    for k in range(n):
        acc = acc + term
        term = term * r
        eps_k.append(1 - acc)
        if k >= 1:
            rk = rk * r
            inner = inner + rk
            delta_acc = delta_acc + inner
        delta_k.append(delta_acc)
    return {
        "eps": eps_k[-1],
        "delta": delta_k[-1],
        "epsK": eps_k,
        "deltaK": delta_k,
        "cK": [iv_pow(frac_enclosure(a), k + 1) * iv_pow(frac_enclosure(a / b), d, log)
               for k, d in enumerate(delta_k)],
    }


# ---------------------------------------------------------------------------
# profiles

class _Logs(dict):
    """iv_log of each enclosure, taken once per pair of ends."""

    def __call__(self, x: Interval) -> Interval:
        key = (x.lo, x.hi)
        t = self.get(key)
        if t is None:
            t = self[key] = iv_log(x)
        return t


def _positive(x):
    """The enclosure of x, refused unless it lies above 0."""
    xi = enclose(x)
    if not xi.lo > 0:
        raise DomainError(f"profile functions need X > 0, got {x}")
    return xi


@dataclass(frozen=True)
class TransferenceProfile:
    """A power sandwich profile for an n-dimensional target:
    phi(X) = a X^-alpha, psi(X) = b X^-beta, and the transfer map theta in
    closed form.  The parameters are stored as Fractions, so every exponent
    stays exact."""

    n: int
    a: Fraction
    b: Fraction
    alpha: Fraction
    beta: Fraction
    domain_start: Fraction = Fraction(2)

    def __post_init__(self):
        _check_n(self.n, "profile needs n >= 1")
        for name in ("a", "b", "alpha", "beta", "domain_start"):
            value = _frac(getattr(self, name), name)
            if value <= 0:
                raise DomainError(f"profile parameter {name} must be positive")
            object.__setattr__(self, name, value)
        if self.alpha > self.beta:
            raise DomainError("profile needs alpha <= beta")

    @cached_property
    def closed_form(self) -> dict:
        """epsilon_delta of the profile's parameters, computed once per
        profile: Phi_k(X) = c_k X^(eps_k) for every k."""
        return epsilon_delta(self.a, self.b, self.alpha, self.beta, self.n,
                             self._log)

    @cached_property
    def _log(self) -> _Logs:
        """The profile's logs, kept as long as the profile: psi, phi and
        theta at one X, the iterates of theta and the closed forms take each
        log once."""
        return _Logs()

    def _pow(self, x, e) -> Interval:
        return iv_pow(x, e, self._log)

    @cached_property
    def _theta_scale(self) -> Interval:
        return self._pow(frac_enclosure(self.a / self.b), -1 / self.beta)

    # -- pointwise evaluation, certified, for X > 0 ----------------------

    def phi(self, x):
        return frac_enclosure(self.a) * self._pow(_positive(x), -self.alpha)

    def psi(self, x):
        return frac_enclosure(self.b) * self._pow(_positive(x), -self.beta)

    def theta(self, x):
        """The transfer map: the unique solution of psi(theta) = phi(X)."""
        return self._theta_scale * self._pow(_positive(x), self.alpha / self.beta)


def _phi_chain(profile: TransferenceProfile, xi, k: int) -> list:
    """phi_0 ... phi_k at the enclosure xi, each the previous one times phi
    at the next iterate of theta."""
    chain = [profile.phi(xi)]
    t = xi
    for _ in range(k):
        t = profile.theta(t)
        chain.append(chain[-1] * profile.phi(t))
    return chain


def phi_functions(profile: TransferenceProfile, k: int, x) -> dict:
    """phi_k and Phi_k at x, via iterated composition and through the
    closed form c_k x^(eps_k), with an agreement check.
    """
    if not 0 <= k <= profile.n - 1:
        raise DomainError(f"k={k} outside 0..{profile.n - 1}")
    return _phi_products(profile, x, k)[k]


def _phi_products(profile: TransferenceProfile, x, k: int) -> list[dict]:
    """phi_functions(profile, j, x) for j = 0 ... k, from one _phi_chain."""
    x = Fraction(x)
    if x < profile.domain_start:
        raise DomainError(
            f"X={x} below the profile domain start {profile.domain_start}"
        )
    xi = frac_enclosure(x)
    ed = profile.closed_form
    out = []
    for j, phij in enumerate(_phi_chain(profile, xi, k)):
        big_phij = xi * phij
        closed = ed["cK"][j] * profile._pow(xi, ed["epsK"][j])
        if upper(big_phij) < lower(closed) or upper(closed) < lower(big_phij):
            raise DomainError(
                "iterated and closed-form evaluations are certifiably "
                f"disjoint at X={x}, k={j}: implementation bug"
            )
        out.append({"phiK": phij, "PhiK": big_phij, "PhiKClosed": closed})
    return out


# ---------------------------------------------------------------------------
# exponent estimation

@dataclass
class ExponentEstimate:
    n: int
    lambda_est: float
    lambda_hat_est: float
    lambda_enclosure: tuple[float, float]
    lambda_hat_enclosure: tuple[float, float]
    window_start: int
    window_size: int
    ordinary_series: list[float]
    uniform_series: list[float]


def _half_logs(log: _Logs):
    """norm_sq -> log X = (log norm_sq) / 2, each taken once through log."""
    return cache(lambda norm_sq: log(frac_enclosure(Fraction(norm_sq))) / 2)


def estimate_exponents_from_pairs(pairs: Sequence[tuple], n: int,
                                  tail_fraction=Fraction(1, 2)
                                  ) -> ExponentEstimate:
    """Step-envelope exponent estimates from (squared norm, error) pairs.

    lambda_est is the max over the tail of -log L_i / log X_i, the uniform
    estimate the min of -log L_i / log X_{i+1}.  The tail window is the last
    tail_fraction of the entries, widened to 10 when the fraction gives
    fewer; sequences shorter than 10 raise TooFewPoints.
    """
    f = Fraction(tail_fraction)
    if not 0 < f <= 1:
        raise DomainError("tail_fraction must be in (0, 1]")
    m = len(pairs)
    usable = [i for i in range(m) if Fraction(pairs[i][0]) > 1]
    if len(usable) < 10:
        raise TooFewPoints(
            f"exponent estimation needs >= 10 usable entries, got {len(usable)}"
        )
    want = max(10, math.ceil(m * f))
    window = usable[-min(want, len(usable)):]

    log = _Logs()
    half_log = _half_logs(log)
    ords: list = []
    unis: list = []
    for i in window:
        norm_sq, l_val = pairs[i][0], pairs[i][1]
        neg_log_l = -log(enclose(l_val))
        ords.append(neg_log_l / half_log(norm_sq))
        if i + 1 < m:
            unis.append(neg_log_l / half_log(pairs[i + 1][0]))
    if not unis:
        raise TooFewPoints("the tail window has no successor entries")

    lam = Interval(max(v.lo for v in ords), max(v.hi for v in ords))
    hat = Interval(min(v.lo for v in unis), min(v.hi for v in unis))
    return ExponentEstimate(
        n=n,
        lambda_est=midpoint_float(lam),
        lambda_hat_est=midpoint_float(hat),
        lambda_enclosure=(lower(lam), upper(lam)),
        lambda_hat_enclosure=(lower(hat), upper(hat)),
        window_start=window[0],
        window_size=len(window),
        ordinary_series=[midpoint_float(v) for v in ords],
        uniform_series=[midpoint_float(v) for v in unis],
    )


def estimate_exponents(seq: minpoints.MinimalPointSequence,
                       tail_fraction=Fraction(1, 2)) -> ExponentEstimate:
    pairs = [(e.norm_sq, e.l_value) for e in seq.entries]
    return estimate_exponents_from_pairs(pairs, seq.target.n, tail_fraction)


# ---------------------------------------------------------------------------
# sandwich verification

def _geometric_grid(a: Fraction, b: Fraction, count: int) -> list[Fraction]:
    """A deterministic, roughly geometric rational grid from a to b, for
    count >= 2 and 0 < a < b."""
    la, lb = math.log(float(a)), math.log(float(b))
    xs = [a]
    for j in range(1, count - 1):
        x = Fraction(math.exp(la + (lb - la) * j / (count - 1)))
        x = x.limit_denominator(10 ** 9)
        if xs[-1] < x < b:
            xs.append(x)
    xs.append(b)
    return xs


def _check_steps(seq: minpoints.MinimalPointSequence,
                 profile: TransferenceProfile) -> list[dict]:
    """Certify psi <= envelope <= phi on all of [A, X_max], A the domain start,
    and return the tail consequences on consecutive entries.

    The envelope is L_i on [X_i, X_{i+1}) and psi, phi decrease, so the
    sandwich holds exactly when psi(max(A, X_i)) <= L_i and
    L_i <= phi(min(X_{i+1}, X_max)) on every step meeting [A, X_max].
    Raises SandwichViolated at the first certified failure.  Each entry of
    norm >= A with a successor then gets its consequences: error below phi
    at the next norm (the step check just certified it) and norm above
    theta of the next norm (reported, not asserted).
    """
    a0 = profile.domain_start
    ents = seq.entries
    if not ents or ents[0].norm_sq > a0 * a0:
        raise SandwichViolated(f"no approximant of norm <= {float(a0):.6g}: envelope "
                               "is infinite inside the profile domain", witness=a0)
    consequences = []
    for i, e in enumerate(ents):
        nxt = ents[i + 1] if i + 1 < len(ents) else None
        if nxt is not None and nxt.norm_sq <= a0 * a0:
            continue  # the step ends before the domain starts
        li = rig_interval(e.l_value)
        inside = e.norm_sq >= a0 * a0
        at = e.x_value if inside else a0
        x_cur = enclose(at)
        if upper(li) < lower(profile.psi(x_cur)):
            raise SandwichViolated(
                f"envelope L_{i} is certifiably below psi at X={float(at):.6g}",
                witness=at)
        # every entry has norm <= X_max, so min(X_{i+1}, X_max) is X_{i+1}
        at = Fraction(seq.x_max) if nxt is None else nxt.x_value
        x_next = enclose(at)
        if lower(li) > upper(profile.phi(x_next)):
            raise SandwichViolated(
                f"envelope L_{i} is certifiably above phi up to X={float(at):.6g}",
                witness=at)
        if inside and nxt is not None:
            consequences.append({
                "i": e.index,
                "errorBelowPhiNext": True,
                "normAboveThetaNext": not upper(x_cur) < lower(profile.theta(x_next)),
            })
    return consequences


def check_sandwich(seq: minpoints.MinimalPointSequence,
                   profile: TransferenceProfile, grid_count: int = 64) -> dict:
    """Certified psi <= envelope <= phi on all of [A, X_max] (_check_steps),
    the monotonicity of every product Phi_k = c_k X^(eps_k), read off the
    sign of eps_k, the grid minimum of the top product, and the two tail
    consequences the sandwich forces on consecutive entries (error below
    phi at the next norm, norm above theta of the next norm).

    A certified violation of the sandwich raises SandwichViolated with the
    witness X; everything else is reported, not asserted.  The geometric
    grid of [A, X_max] only reports psi, envelope and phi.
    """
    if grid_count < 2:
        raise DomainError("grid_count must be >= 2")
    _check_dimension(seq, profile)
    a0 = profile.domain_start
    if seq.x_max <= a0 * 2:
        raise DomainTooShort(
            f"certified range ends at {seq.x_max}, needs to pass {a0 * 2} "
            f"(domain starts at {a0})"
        )
    n = profile.n
    consequences = _check_steps(seq, profile)
    grid = _geometric_grid(a0, Fraction(seq.x_max), grid_count)
    grid_report = [{
        "X": float(x),
        "psi": midpoint_float(profile.psi(x)),
        "envelope": midpoint_float(rig_interval(minpoints.envelope(seq, x))),
        "phi": midpoint_float(profile.phi(x)),
    } for x in grid]

    ed = profile.closed_form
    mono = [{"k": k,
             "direction": ("increasing" if e_k > 0 else
                           "decreasing" if e_k < 0 else "constant"),
             "heuristic": False,
             "requiredIncreasingPasses": e_k >= 0 if k <= n - 2 else None}
            for k, e_k in enumerate(ed["epsK"])]
    sample = grid[:: max(1, len(grid) // 16)]
    products = [_phi_products(profile, x, n - 1) for x in sample]
    phi_minima = {}
    for k in range(n):
        vals = [midpoint_float(p[k]["PhiK"]) for p in products]
        phi_minima[k] = {"min": min(vals),
                         "atX": float(sample[vals.index(min(vals))])}

    return {
        "profile": describe_profile(profile),
        "grid": grid_report,
        "gridCount": len(grid),
        "monotonicity": mono,
        "phiProductMinima": phi_minima,
        "empiricalC": phi_minima[n - 1]["min"],
        "consequencesHold": all(c["errorBelowPhiNext"] and
                                c["normAboveThetaNext"]
                                for c in consequences),
        "consequences": consequences,
        "eps": ed["eps"],
        "epsNonnegative": ed["eps"] >= 0,
        "delta": ed["delta"],
    }


def _check_dimension(seq: minpoints.MinimalPointSequence,
                     profile: TransferenceProfile) -> None:
    if profile.n != seq.target.n:
        raise DomainError(f"profile for n={profile.n} on a target with "
                          f"n={seq.target.n}")


def describe_profile(profile: TransferenceProfile) -> dict:
    return {
        "n": profile.n,
        "family": "power",
        "a": str(profile.a),
        "b": str(profile.b),
        "alpha": str(profile.alpha),
        "beta": str(profile.beta),
        "domainStart": str(profile.domain_start),
    }


# ---------------------------------------------------------------------------
# the Lemma 4.1-style product chain on built families

def lemma41_check(seq: minpoints.MinimalPointSequence, indices: Sequence[int],
                  profile: TransferenceProfile) -> dict:
    """Certified check of the product chain at full depth: the product of
    Phi_0 over the successors of the jump indices stays below the norm
    product times the top Phi at the last successor."""
    _check_dimension(seq, profile)
    n = profile.n
    entries = seq.entries
    if len(indices) != n:
        raise DomainError(f"{len(indices)} indices for a profile with n={n}")
    idx = jump_indices(indices, len(entries))
    succ = [rig_interval(entries[i + 1].x_value) for i in idx]
    lhs = math.prod(z * profile.phi(z) for z in succ)
    # the top Phi at the last successor, from the square root of its norm_sq
    xi = iv_pow(frac_enclosure(entries[idx[-1] + 1].norm_sq), Fraction(1, 2))
    rhs = math.prod([rig_interval(entries[i].x_value) for i in idx[1:]]
                    + [xi * _phi_chain(profile, xi, n - 1)[n - 1]])
    return {
        "indices": idx,
        "lhs": midpoint_float(lhs),
        "rhs": midpoint_float(rhs),
        "certifiedPass": upper(lhs) <= lower(rhs),
        "certifiedFail": lower(lhs) > upper(rhs),
    }


# ---------------------------------------------------------------------------
# extremal-sequence verification

def growth_conditions(pairs: Sequence[tuple], alpha, beta, eps, big_c,
                      n: int) -> list[dict]:
    """Per-index verdicts for the two growth conditions on (normSq, L) pairs.

    Condition one compares alpha log Y_{i+1} against beta log Y_i, condition
    two compares log L_i against -beta log Y_i; both allow C plus a slack
    proportional to eps.  With C = 0, eps = 0, and rational alpha, beta the
    checks reduce to exact integer power identities; otherwise certified
    enclosures decide, with an "undecided" verdict when they overlap.
    """
    alpha, beta = _frac(alpha, "alpha"), _frac(beta, "beta")
    eps, big_c = _frac(eps, "eps"), _frac(big_c, "C")
    if min(alpha, beta) <= 0 or eps < 0 or big_c < 0:
        raise DomainError("need alpha, beta > 0 and eps, C >= 0")
    exact_mode = eps == 0 and big_c == 0
    slack1 = 4 * eps * (beta / alpha) ** n
    slack2 = 4 * eps * (beta / alpha) ** 2
    log = _Logs()  # shared by norms and errors: both may be 1
    half_log = _half_logs(log)

    def _verdict(dev, bound) -> str:
        if upper(dev) <= lower(bound):
            return "pass"
        if lower(dev) > upper(bound):
            return "fail"
        return "undecided"

    out = []
    for i in range(len(pairs)):
        row: dict = {"i": i}
        y_sq = Fraction(pairs[i][0])
        l_val = pairs[i][1]
        l_rat = l_val if isinstance(l_val, (int, Fraction)) else None
        if l_rat is None and isinstance(l_val, RigorousReal) and l_val.is_exact:
            l_rat = l_val.lo
        if i + 1 < len(pairs):
            y_next_sq = Fraction(pairs[i + 1][0])
            if exact_mode:
                pa, qa = alpha.numerator, alpha.denominator
                pb, qb = beta.numerator, beta.denominator
                row["growth"] = ("pass" if y_next_sq ** (pa * qb)
                                 == y_sq ** (pb * qa) else "fail")
            else:
                dev = abs(frac_enclosure(alpha) * half_log(y_next_sq)
                          - frac_enclosure(beta) * half_log(y_sq))
                bound = (frac_enclosure(big_c)
                         + frac_enclosure(slack1) * half_log(y_next_sq))
                row["growth"] = _verdict(dev, bound)
        if exact_mode and l_rat is not None:
            pb, qb = beta.numerator, beta.denominator
            row["decay"] = ("pass" if Fraction(l_rat) ** (2 * qb)
                            * y_sq ** pb == 1 else "fail")
        else:
            dev = abs(log(enclose(l_val))
                      + frac_enclosure(beta) * half_log(y_sq))
            bound = (frac_enclosure(big_c)
                     + frac_enclosure(slack2) * half_log(y_sq))
            row["decay"] = _verdict(dev, bound)
        out.append(row)
    return out


def verify_extremal_sequence(points: Sequence, seq: minpoints.MinimalPointSequence,
                             alpha, beta, eps, big_c) -> dict:
    """The four structural conditions on a candidate extremal sequence of
    seq's target and set S.

    Growth and decay come from growth_conditions on the measured (norm,
    error) pairs; independence is the exact nonvanishing of each consecutive
    (n+1)-point determinant; envelope agreement asks that no smaller point
    beats each candidate, decided against seq's minimal points, which must
    cover the norm of every candidate (BeyondCertifiedRange otherwise).
    """
    target, approx_set = seq.target, seq.approx_set
    n = target.n
    pts = [model.IntegerPoint.canonical(p if not isinstance(p, model.IntegerPoint)
                                        else p.coords) for p in points]
    if len(pts) < n + 1:
        raise TooFewPoints(
            f"need at least n+1 = {n + 1} points, got {len(pts)}"
        )
    beyond = [p.coords for p in pts if p.norm_sq > seq.norm_sq_max]
    if beyond:
        raise BeyondCertifiedRange(
            f"candidate {beyond[0]} lies beyond the sequence's x_max = {seq.x_max}")
    alpha, beta = _frac(alpha, "alpha"), _frac(beta, "beta")
    eps, big_c = _frac(eps, "eps"), _frac(big_c, "C")
    threshold = eps_threshold(alpha, beta, n)

    pairs = [(p.norm_sq, model.l_value(target, p)) for p in pts]
    growth = growth_conditions(pairs, alpha, beta, eps, big_c, n)

    dets = []
    for i in range(len(pts) - n):
        d = _int_det([list(pts[i + j].coords) for j in range(n + 1)])
        dets.append({"i": i, "det": d, "pass": d != 0})

    comparator = minpoints._Comparator(target)
    envelope_rows = []
    for idx, p in enumerate(pts):
        row = {"i": idx, "inSet": bool(approx_set.member(p.coords))}
        best = None
        for e in seq.entries:
            if e.norm_sq <= p.norm_sq:
                best = e
            else:
                break
        if best is None:
            row["pass"] = row["inSet"]  # nothing smaller exists at all
        else:
            cmp_ = comparator.compare(comparator.keys(p.coords),
                                      best.branch_keys, p.coords,
                                      best.point.coords)
            row["pass"] = row["inSet"] and cmp_ <= 0
        envelope_rows.append(row)

    all_pass = (all(r.get("growth", "pass") == "pass"
                    and r.get("decay", "pass") == "pass" for r in growth)
                and all(d["pass"] for d in dets)
                and all(r["pass"] for r in envelope_rows))
    return {
        "n": n,
        "alpha": str(alpha),
        "beta": str(beta),
        "eps": str(eps),
        "C": str(big_c),
        "epsThreshold": str(threshold),
        "thresholdOK": eps <= threshold,
        "growth": growth,
        "determinants": dets,
        "envelopeAgreement": envelope_rows,
        "allPass": all_pass,
    }
