"""Phase exponents and Kloosterman-type sums over invertible residues.

The 24th-root-of-unity-like factor attached to each fraction h/k of the
dissection is exp(i pi L(h,k)) with L a rational combination of Dedekind
sums.  Everything here is exact: phases are Fractions in half turns, the
complete exponential sums are cyclotomic integers, and the congruence
checkers work on cleared integers.

Two independent routes to the phase exist on purpose: lambda_exponent goes
through Dedekind sums, phi_root through the double sawtooth sums over the
residue classes, each summed as one cleared integer along its residue
progressions and divided once.  phi_root reads nothing of the Dedekind
route, so the two must agree (the test suite insists on it), which guards
each against transcription slips in the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    cyclo_is_zero,
)
from .context import (PrimeContext, _csc_product, make_context, norm_mod,
                      power_class)
from .dedekind import dedekind_s, dedekind_s_chi

__all__ = [
    "PhaseExponent",
    "KloostermanSum",
    "TauCount",
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


@dataclass(frozen=True)
class PhaseExponent:
    """A phase in half turns: the attached root of unity is exp(i pi value)."""

    value: Fraction
    variant: str


@dataclass(frozen=True)
class KloostermanSum:
    """An exact complete exponential sum, stored as a cyclotomic integer.

    kind is one of L, L_plus, L_dagger, L_dagger_minus, L_nmd; params echoes
    the defining arguments as a tuple of (name, value) pairs.
    """

    sum: CyclotomicSum
    kind: str
    params: tuple

    def is_zero(self) -> bool:
        return cyclo_is_zero(self.sum)


@dataclass(frozen=True)
class TauCount:
    count: int
    class_pair: str


# One row per (prime, modulus k), shared by both signs: 267 for one series at
# p = 17 and k_max = 222, 181 after the series_deep benchmark, 384 after the
# whole test suite in one process, so 2048, the size of series._phase_vector,
# never evicts there.  The exact sums are not cached, so each one reads its
# phases from here again.
@lru_cache(maxsize=2048)
def _lambda_parts(p: int, k: int) -> tuple:
    """The finished phases (plain, dagger) of every h mod k, by the formulas
    in lambda_exponent, with None where h is not a unit.  gcd(0, 1) = 1, so
    the k=1 row is the single spoke h=0."""
    ctx = make_context(p)
    half = Fraction(1, 2)
    row = []
    for h in range(k):
        if math.gcd(h, k) != 1:
            row.append(None)
            continue
        s1 = dedekind_s_chi(ctx, h, k)
        s2 = dedekind_s_chi(ctx, 2 * h, k)
        tail = dedekind_s(2 * h, k) - dedekind_s(2 * h * p, k)
        row.append((s1 - half * s2 + half * tail, half * s2 - s1 + half * tail))
    return tuple(row)


def lambda_exponent(ctx: PrimeContext, h: int, k: int,
                    variant: str = "plain") -> PhaseExponent:
    """Exact phase exponent of the multiplier attached to h/k, in half turns.

    plain:  s_chi(h,k) - s_chi(2h,k)/2 + {s(2h,k) - s(2hp,k)}/2
    dagger: s_chi(2h,k)/2 - s_chi(h,k) + {s(2h,k) - s(2hp,k)}/2
    """
    _check_choice("variant", variant, VARIANTS)
    _check_int("h", h)
    _check_int("k", k, 1)
    if math.gcd(h, k) != 1:
        raise ValueError("h and k must be coprime")
    parts = _lambda_parts(ctx.p, k)[h % k]
    return PhaseExponent(parts[VARIANTS.index(variant)], variant)


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


def _chi_class(ctx: PrimeContext, sign: int) -> tuple:
    """Residues a mod p with chi(a) = sign."""
    return tuple(a for a in range(1, ctx.p) if ctx.chi[a] == sign)


def _twisted_phases(p: int, variant: str, k: int, m: int,
                    residues: tuple | None):
    """The n-free part of a twisted sum: (h, phase) over the units h mod k
    with h mod p in residues (every unit when residues is None, so the k=1
    spoke is h=0), where phase = lambda(h,k) - 2(m inv mod k)/k reduced
    mod 2.

    inv is h^{-1} mod k for even k and (2h)^{-1} mod k for odd k.  It is not
    formed when m = 0 (mod k), which also covers the k=1 spoke h=0.  The
    exact sums here and the fixed-point ones of the series both read it.
    """
    at = VARIANTS.index(variant)
    m %= k
    for h, parts in enumerate(_lambda_parts(p, k)):
        if parts is None or residues is not None and h % p not in residues:
            continue
        phase = parts[at]
        if m:
            inv = pow(h if k % 2 == 0 else 2 * h, -1, k)
            phase -= Fraction(2 * (m * inv % k), k)
        yield h, phase % 2


def _twisted_sum(ctx: PrimeContext, variant: str, k: int, n: int, m: int,
                 residues: tuple | None) -> CyclotomicSum:
    """Exact sum over the (h, phase) of _twisted_phases of
    exp(i pi (phase - 2(n h mod k)/k)).  It is built afresh on each call.
    Every Kloosterman entry point checks its k and passes its n and m
    through here."""
    _check_int("n", n)
    _check_int("m", m)
    return cyclo_from_phases(
        [phase - Fraction(2 * (n * h % k), k)
         for h, phase in _twisted_phases(ctx.p, variant, k, m, residues)])


def kloosterman_L(ctx: PrimeContext, k: int, n: int,
                  variant: str = "plain") -> KloostermanSum:
    """Complete sum over invertible h mod k of the phase multiplier times
    exp(-2 pi i n h / k), as an exact cyclotomic integer.  Needs p coprime
    to k; the h=0 term makes the k=1 sum exactly 1."""
    _check_choice("variant", variant, VARIANTS)
    _check_int("k", k, 1)
    if k % ctx.p == 0:
        raise ValueError("k must be coprime to the context prime")
    kind = "L" if variant == "plain" else "L_dagger"
    return KloostermanSum(_twisted_sum(ctx, variant, k, n, 0, None),
                          kind, (("k", k), ("n", n)))


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
                       m: int) -> KloostermanSum:
    """Restriction of the complete sum to h in the quadratic class, with the
    extra inverse twist exp(-2 pi i m (2h)^{-1} / K).  K odd, p | K."""
    _require_odd_multiple(ctx, K)
    total = _twisted_sum(ctx, "plain", K, n, m, _chi_class(ctx, 1))
    return KloostermanSum(total, "L_plus", (("K", K), ("n", n), ("m", m)))


def kloosterman_L_nmd(ctx: PrimeContext, k: int, n: int, m: int, d: int,
                      variant: str = "plain") -> KloostermanSum:
    """Class sum over h = d (mod p): the inverse twist is m h^{-1} when
    2p | k and m (2h)^{-1} when k is an odd multiple of p."""
    _check_choice("variant", variant, VARIANTS)
    _check_int("k", k, 1)
    if k % ctx.p != 0:
        raise ValueError("k must be a positive multiple of the context prime")
    _check_int("d", d)
    if math.gcd(d, ctx.p) != 1:
        raise ValueError(f"d must be an int invertible mod p, got {d!r}")
    total = _twisted_sum(ctx, variant, k, n, m, (d % ctx.p,))
    return KloostermanSum(total, "L_nmd",
                          (("k", k), ("n", n), ("m", m), ("d", d)))


def kloosterman_dagger(ctx: PrimeContext, k: int, n: int,
                       m: int | None = None) -> KloostermanSum:
    """Dagger-phase sums, two entry points distinguished by k.

    p coprime to k: the complete dagger sum (m must be omitted).
    k an odd multiple of p: restriction to the nonquadratic class with the
    inverse twist, so m is required.
    """
    _check_int("k", k, 1)
    if k % ctx.p != 0:
        if m is not None:
            raise ValueError("m only applies when p divides k")
        return kloosterman_L(ctx, k, n, variant="dagger")
    if m is None:
        raise ValueError("m is required when p divides k")
    _require_odd_multiple(ctx, k)
    total = _twisted_sum(ctx, "dagger", k, n, m, _chi_class(ctx, -1))
    return KloostermanSum(total, "L_dagger_minus",
                          (("K", k), ("n", n), ("m", m)))


def tau_count(ctx: PrimeContext, h: int, K: int, pair: str) -> TauCount:
    """Count 0 < mu < K with p coprime to mu, mu of the named parity and
    quadratic class, and h mu reduced mod K odd.  K itself must be an odd
    multiple of p, and h invertible mod K."""
    _check_choice("pair", pair, TAU_PAIRS)
    _require_unit(ctx, h, K)
    p = ctx.p
    want_parity = 0 if pair[0] == "e" else 1
    want_class = 1 if pair[1] == "r" else -1
    count = 0
    for mu in range(1, K):
        if mu % 2 != want_parity or mu % p == 0:
            continue
        if ctx.chi[mu % p] != want_class:
            continue
        if (h * mu) % K % 2 == 1:
            count += 1
    return TauCount(count, pair)


def _cleared_exponent(ctx: PrimeContext, h: int, K: int, variant: str) -> int:
    value = 24 * K * lambda_exponent(ctx, h, K, variant).value
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
    _check_choice("variant", variant, VARIANTS)
    _require_unit(ctx, h, K)
    p = ctx.p
    cleared = _cleared_exponent(ctx, h, K, variant)
    pair = "es" if variant == "plain" else "er"
    tau = tau_count(ctx, 2 * h, K, pair).count
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
                got = tau_count(ctx, h, K, pair).count % 2
                want = expected[(j, pair)]
                checks += 1
                if got != want:
                    failures.append(
                        {"h": h, "K": K, "pair": pair, "got": got, "want": want})
    return {"checks": checks, "failures": failures, "ok": not failures}
