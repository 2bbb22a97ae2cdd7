"""Phase exponents and Kloosterman-type sums over invertible residues.

The 24th-root-of-unity-like factor attached to each fraction h/k of the
dissection is exp(i pi L(h,k)) with L a rational combination of Dedekind
sums.  Everything here is exact: phases are Fractions in half turns (held
as int numerators over one denominator per modulus until a caller needs
one), the complete exponential sums are cyclotomic integers, and the
congruence checkers work on cleared integers.

Two independent routes to the phase exist on purpose: lambda_exponent goes
through Dedekind sums, phi_root through the double sawtooth sums over the
residue classes, each summed as one cleared integer along its residue
progressions and divided once.  phi_root reads nothing of the Dedekind
route, so the two must agree (the test suite insists on it), which guards
each against transcription slips in the other.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from mpmath import mp

from .arith import (
    CyclotomicSum,
    HPReal,
    _check_choice,
    _check_int,
    _precision,
    cyclo_from_phases,
)
from .context import (PrimeContext, _check_ctx, _csc_product, make_context,
                      norm_mod, power_class)
from .dedekind import _chi_table, _dedekind_s_12k, _phi, _s_chi_cleared

__all__ = [
    "lambda_exponent",
    "phi_root",
    "lambda_k",
    "kloosterman_L",
    "kloosterman_L_plus",
    "kloosterman_L_nmd",
    "kloosterman_dagger",
    "tau_count",
    "check_congruence_mod16",
    "check_congruence_modThK",
    "verify_tau_table",
]

VARIANTS = ("plain", "dagger")

TAU_PAIRS = ("er", "es", "or", "os")


# One row per (prime, modulus k), read by both signs and every exact sum.
@lru_cache(maxsize=2048)
def _lambda_parts(p: int, k: int) -> tuple:
    """The phases (plain, dagger) of every h mod k, by the formulas in
    lambda_exponent, as (den, row): row[h] holds the two int numerators
    over the one denominator den = 24 phi k^2, or None where h is not a
    unit.  gcd(0, 1) = 1, so the k=1 row is the single spoke h=0.

    Each s_chi is its numerator 4 k phi k s_chi, computed once per pair
    a, k - a of arguments mod k, as it is odd in a (so 0 at a = k/2), and
    s(2h,k) - s(2hp,k) is 12 k times itself, by reciprocity.  Every part
    is odd in h, so only h <= k/2 is computed and row[k-h] = -row[h].  The
    numerators are not reduced: lambda_exponent makes the one Fraction a
    caller sees, and the twisted sums reduce theirs.

    The chi table is built uncached, through _chi_table.__wrapped__: this
    row reads it once and is itself memoised, so a cached copy would never
    be read again.  _chi_table's memo serves dedekind_s_chi and
    dedekind_t_chi, which read one table for every h.
    """
    phi = _phi(p, k)
    table = _chi_table.__wrapped__(make_context(p).chi, k)
    s_chi = {}
    row = [None] * k
    for h in range(k // 2 + 1):
        if math.gcd(h, k) != 1:
            continue
        for a in (h, 2 * h % k):
            if a not in s_chi:
                s_chi[a] = _s_chi_cleared(table, a)
                s_chi[k - a] = -s_chi[a]
        twisted = 6 * s_chi[h] - 3 * s_chi[2 * h % k]
        tail = phi * k * (_dedekind_s_12k(2 * h, k)
                          - _dedekind_s_12k(2 * h * p, k))
        # row[-h] is row[k-h], and h = -h (mod k) at k = 1, 2
        row[-h] = (-twisted - tail, twisted - tail)
        row[h] = (twisted + tail, tail - twisted)
    return 24 * phi * k * k, tuple(row)


def lambda_exponent(ctx: PrimeContext, h: int, k: int,
                    variant: str = "plain") -> Fraction:
    """Exact phase exponent of the multiplier attached to h/k, in half turns:
    the attached root of unity is exp(i pi L), L the returned Fraction.

    plain:  s_chi(h,k) - s_chi(2h,k)/2 + {s(2h,k) - s(2hp,k)}/2
    dagger: s_chi(2h,k)/2 - s_chi(h,k) + {s(2h,k) - s(2hp,k)}/2
    """
    _check_ctx(ctx)
    _check_choice("variant", variant, VARIANTS)
    _check_int("h", h)
    _check_int("k", k, 1)
    if math.gcd(h, k) != 1:
        raise ValueError("h and k must be coprime")
    den, row = _lambda_parts(ctx.p, k)
    return Fraction(row[h % k][VARIANTS.index(variant)], den)


def _sawtooth_pair_sum(ctx: PrimeContext, members, h: int, k: int) -> Fraction:
    """sum over a in members and mu mod lcm(k,p) with mu = +-a (mod p) of
    ((h mu / k)) ((mu / lcm(k,p))).  The double-sum route.

    With L = lcm(k,p) and r = h mu mod k, each term is (2r - k)(2mu - L) /
    (4kL), or 0 when r = 0 (mu = 0 never occurs: members lie in
    1..(p-1)/2, so neither +a nor -a is 0 mod p).  mu runs along the two
    progressions mod p, and the numerators are summed as one int.
    """
    p = ctx.p
    L = math.lcm(k, p)
    total = 0
    for a in members:
        for t in (a % p, -a % p):
            for mu in range(t, L, p):
                r = h * mu % k
                if r:
                    total += (2 * r - k) * (2 * mu - L)
    return Fraction(total, 4 * k * L)


def phi_root(ctx: PrimeContext, h: int, k: int, variant: str = "plain") -> Fraction:
    """Phase of the sawtooth-product multiplier, in half turns reduced mod 2.

    Built from the product definition over the residue-class families, so it
    is an independent evaluation of the same root of unity as
    lambda_exponent; the two agree exactly.  Unlike lambda_exponent this
    accepts non-coprime pairs, where the scaling law phase(qh,qk) =
    phase(h,k) applies.
    """
    _check_ctx(ctx)
    _check_choice("variant", variant, VARIANTS)
    _check_int("h", h)
    _check_int("k", k, 1)
    er_h = _sawtooth_pair_sum(ctx, ctx.r_set, h, k)
    es_h = _sawtooth_pair_sum(ctx, ctx.s_set, h, k)
    if variant == "plain":
        total = er_h + _sawtooth_pair_sum(ctx, ctx.s_set, 2 * h, k) - es_h
    else:
        total = _sawtooth_pair_sum(ctx, ctx.r_set, 2 * h, k) - er_h + es_h
    return total % 2


def lambda_k(ctx: PrimeContext, k: int, variant: str = "plain",
             precision: int | None = None) -> HPReal:
    """Numeric cosecant-product weight attached to each k in the series.

    Multiples of p get weight 1.  Otherwise the quadratic-class members give
    a cosecant product, and even k pick up a ratio over the other class;
    the dagger variant swaps the roles of the two classes.
    """
    _check_ctx(ctx)
    _check_choice("variant", variant, VARIANTS)
    _check_int("k", k, 1)
    prec = _precision(precision)
    p = ctx.p
    if k % p == 0:
        with mp.workprec(prec):
            return HPReal(mp.mpf(1), prec)
    kbar = pow(k, -1, p)
    if variant == "plain":
        main, other = ctx.r_set, ctx.s_set
    else:
        main, other = ctx.s_set, ctx.r_set
    with mp.workprec(prec):
        value = _csc_product(p, [norm_mod(kbar * a, p) for a in main])
        if k % 2 == 0:
            for a in other:
                value *= (mp.sinpi(mp.mpf(norm_mod(kbar * a, p)) / p) /
                          mp.sinpi(mp.mpf(norm_mod(2 * kbar * a, p)) / p))
        return HPReal(+value, prec)


def _chi_class(ctx: PrimeContext, variant: str) -> tuple:
    """Residues a mod p of the class a variant's sum runs over at odd
    multiples of p: chi(a) = +1 for plain (L+), -1 for dagger (L-dagger)."""
    sign = 1 if variant == "plain" else -1
    return tuple(a for a in range(1, ctx.p) if ctx.chi[a] == sign)


def _twisted_phases(p: int, variant: str, k: int, m: int,
                    residues: tuple | None) -> tuple:
    """The n-free part of a twisted sum, as (den, pairs): pairs lists (h,
    num) over the units h mod k with h mod p in residues (every unit when
    residues is None, so the k=1 spoke is h=0), where num/den =
    lambda(h,k) - 2(m inv mod k)/k reduced mod 2, 0 <= num < 2 den, over
    the row's denominator den = 24 phi k^2 of _lambda_parts.

    inv is h^{-1} mod k for even k and (2h)^{-1} mod k for odd k.  It is not
    formed when m = 0 (mod k), which also covers the k=1 spoke h=0.  The
    twist 2/k is 48 phi k over den, so the phases stay ints.  The exact sums
    here and the fixed-point ones of the series both read it.
    """
    at = VARIANTS.index(variant)
    den, row = _lambda_parts(p, k)
    step = 2 * den // k
    m %= k
    pairs = []
    for h, parts in enumerate(row):
        if parts is None or residues is not None and h % p not in residues:
            continue
        num = parts[at]
        if m:
            num -= step * (m * pow(h if k % 2 == 0 else 2 * h, -1, k) % k)
        pairs.append((h, num % (2 * den)))
    return den, pairs


def _twisted_sum(ctx: PrimeContext, variant: str, k: int, n: int, m: int,
                 residues: tuple | None) -> CyclotomicSum:
    """Exact sum over the (h, num) of _twisted_phases of
    exp(i pi (num/den - 2(n h mod k)/k)).  It is built afresh on each call.
    Every Kloosterman entry point checks its k and passes its n and m
    through here."""
    _check_int("n", n)
    _check_int("m", m)
    den, pairs = _twisted_phases(ctx.p, variant, k, m, residues)
    step = 2 * den // k
    return cyclo_from_phases([Fraction(num - step * (n * h % k), den)
                              for h, num in pairs])


def kloosterman_L(ctx: PrimeContext, k: int, n: int,
                  variant: str = "plain") -> CyclotomicSum:
    """Complete sum over invertible h mod k of the phase multiplier times
    exp(-2 pi i n h / k), as an exact cyclotomic integer.  Needs p coprime
    to k; the h=0 term makes the k=1 sum exactly 1."""
    _check_ctx(ctx)
    _check_choice("variant", variant, VARIANTS)
    _check_int("k", k, 1)
    if k % ctx.p == 0:
        raise ValueError("k must be coprime to the context prime")
    return _twisted_sum(ctx, variant, k, n, 0, None)


def _require_odd_multiple(ctx: PrimeContext, K: int) -> None:
    _check_int("K", K, 1)
    if K % ctx.p != 0 or K % 2 == 0:
        raise ValueError(f"K must be an odd positive multiple of {ctx.p}")


def _require_unit(ctx: PrimeContext, h: int, K: int) -> None:
    """K an odd positive multiple of p, and h an int invertible mod K."""
    _require_odd_multiple(ctx, K)
    _check_int("h", h)
    if math.gcd(h, K) != 1:
        raise ValueError(f"h must be an int invertible mod K, got {h!r}")


def kloosterman_L_plus(ctx: PrimeContext, K: int, n: int,
                       m: int) -> CyclotomicSum:
    """Restriction of the complete sum to h in the quadratic class, with the
    extra inverse twist exp(-2 pi i m (2h)^{-1} / K).  K odd, p | K."""
    _check_ctx(ctx)
    _require_odd_multiple(ctx, K)
    return _twisted_sum(ctx, "plain", K, n, m, _chi_class(ctx, "plain"))


def kloosterman_L_nmd(ctx: PrimeContext, k: int, n: int, m: int, d: int,
                      variant: str = "plain") -> CyclotomicSum:
    """Class sum over h = d (mod p): the inverse twist is m h^{-1} when
    2p | k and m (2h)^{-1} when k is an odd multiple of p."""
    _check_ctx(ctx)
    _check_choice("variant", variant, VARIANTS)
    _check_int("k", k, 1)
    if k % ctx.p != 0:
        raise ValueError("k must be a positive multiple of the context prime")
    _check_int("d", d)
    if math.gcd(d, ctx.p) != 1:
        raise ValueError(f"d must be an int invertible mod p, got {d!r}")
    return _twisted_sum(ctx, variant, k, n, m, (d % ctx.p,))


def kloosterman_dagger(ctx: PrimeContext, K: int, n: int,
                       m: int) -> CyclotomicSum:
    """Dagger-phase sum restricted to h in the nonquadratic class, with the
    extra inverse twist exp(-2 pi i m (2h)^{-1} / K).  K odd, p | K.  For
    p coprime to k the complete dagger sum is kloosterman_L(ctx, k, n,
    variant="dagger")."""
    _check_ctx(ctx)
    _require_odd_multiple(ctx, K)
    return _twisted_sum(ctx, "dagger", K, n, m, _chi_class(ctx, "dagger"))


def tau_count(ctx: PrimeContext, h: int, K: int, pair: str) -> int:
    """The number of 0 < mu < K with p coprime to mu, mu of the named
    parity and quadratic class, and h mu reduced mod K odd.  K itself must
    be an odd multiple of p, and h invertible mod K."""
    _check_ctx(ctx)
    _check_choice("pair", pair, TAU_PAIRS)
    _require_unit(ctx, h, K)
    want_class = 1 if pair[1] == "r" else -1
    count = 0
    for mu in range(2 if pair[0] == "e" else 1, K, 2):
        # chi(mu) = 0 when p | mu, so the class test also skips those mu
        if ctx.chi[mu % ctx.p] == want_class and h * mu % K % 2:
            count += 1
    return count


def _cleared_exponent(ctx: PrimeContext, h: int, K: int, variant: str) -> int:
    value = 24 * K * lambda_exponent(ctx, h, K, variant)
    if value.denominator != 1:
        raise ArithmeticError(
            f"24*K*exponent should be integral at ({h},{K}); got {value}")
    return value.numerator


def check_congruence_mod16(ctx: PrimeContext, h: int, K: int,
                           variant: str = "plain") -> bool:
    """Does the cleared phase match its parity-counter form modulo 16?

    The cleared exponent is congruent to 4(chi_h - 1) + (4h-1)(p-1) plus 8
    times the even/odd counter at 2h (nonquadratic class for plain,
    quadratic for dagger).  Note the (4h-1)(p-1) middle term: the source
    formula's 2(2h-1)(p-1) only matches when 16 divides p-1; the extra
    (p-1) is needed for the other primes and is invisible at p=17.
    """
    _check_ctx(ctx)
    _check_choice("variant", variant, VARIANTS)
    _require_unit(ctx, h, K)
    p = ctx.p
    cleared = _cleared_exponent(ctx, h, K, variant)
    pair = "es" if variant == "plain" else "er"
    tau = tau_count(ctx, 2 * h, K, pair)
    rhs = 4 * (ctx.chi[h % p] - 1) + (4 * h - 1) * (p - 1) + 8 * tau
    return (cleared - rhs) % 16 == 0


def check_congruence_modThK(ctx: PrimeContext, h: int, K: int,
                            variant: str = "plain") -> bool:
    """Does the cleared phase match its inverse form modulo (3,K)*K?

    cleared = +-3 chi_h (4 - chi_2) B2 h^{-1} - (p-1)(2h + (2h)^{-1}),
    with + for plain and - for dagger, inverses taken mod (3,K)*K.  When 3
    does not divide K the cleared exponent must also vanish mod 3; both
    parts must hold for a True result.
    """
    _check_ctx(ctx)
    _check_choice("variant", variant, VARIANTS)
    _require_unit(ctx, h, K)
    p = ctx.p
    cleared = _cleared_exponent(ctx, h, K, variant)
    theta = math.gcd(3, K)
    modulus = theta * K
    hbar = pow(h, -1, modulus)
    inv2h = pow(2 * h, -1, modulus)
    coefficient = 3 * ctx.chi[h % p] * (4 - ctx.chi[2 % p])
    if variant == "dagger":
        coefficient = -coefficient
    scaled = Fraction(coefficient) * ctx.b2
    if scaled.denominator != 1:
        raise ArithmeticError(f"coefficient times B2 should clear: {scaled}")
    rhs = int(scaled) * hbar - (p - 1) * (2 * h + inv2h)
    ok = (cleared - rhs) % modulus == 0
    if K % 3 != 0:
        ok = ok and cleared % 3 == 0
    return ok


def _tau_expect_table(ctx: PrimeContext) -> dict:
    """Expected parity of each counter, by power class j of h and pair."""
    t = ((ctx.p - 1) // 4) % 2
    e = ctx.epsilon
    return {
        (0, "er"): 0, (0, "es"): 0,
        (0, "or"): t, (0, "os"): t,
        (1, "er"): (1 + e) % 2, (1, "es"): e % 2,
        (1, "or"): (1 + e + t) % 2, (1, "os"): (e + t) % 2,
        (2, "er"): 1, (2, "es"): 1,
        (2, "or"): (1 + t) % 2, (2, "os"): (1 + t) % 2,
        (3, "er"): e % 2, (3, "es"): (1 + e) % 2,
        (3, "or"): (e + t) % 2, (3, "os"): (1 + e + t) % 2,
    }


def verify_tau_table(ctx: PrimeContext, K_max: int) -> dict:
    """Check every parity-counter entry for every odd multiple of p up to
    K_max and every invertible h.  Returns a report dict with the check
    count, a witness list of failures, and an overall ok flag.  K_max must
    be an int of at least p, so that at least K = p is checked."""
    _check_ctx(ctx)
    _check_int("K_max", K_max, ctx.p)
    expected = _tau_expect_table(ctx)
    checks = 0
    failures = []
    for K in range(ctx.p, K_max + 1, 2 * ctx.p):
        for h in range(1, K):
            if math.gcd(h, K) != 1:
                continue
            j = power_class(ctx, h)
            for pair in TAU_PAIRS:
                got = tau_count(ctx, h, K, pair) % 2
                want = expected[(j, pair)]
                checks += 1
                if got != want:
                    failures.append(
                        {"h": h, "K": K, "pair": pair, "got": got, "want": want})
    return {"checks": checks, "failures": failures, "ok": not failures}
