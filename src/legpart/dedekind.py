"""Dedekind sums, their Legendre-character twists, and reciprocity laws.

Every sum here runs literally over its defining range, except s_chi: it
regroups its defining sum by mu mod k against one weight table per modulus
(see _s_chi_weights), so each call costs O(k) instead of O(pk).  The sawtooth
and character factors are cleared to a common denominator first, so the
inner loops are pure integer arithmetic and the results are exact Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .arith import _check_int
from .context import PrimeContext

__all__ = [
    "dedekind_s",
    "dedekind_t",
    "dedekind_s_chi",
    "dedekind_t_chi",
    "dedekind_s_tilde",
    "lattice_floor_sum",
    "verify_reciprocity_classical",
    "verify_reciprocity_chi",
]


def dedekind_s(h: int, k: int) -> Fraction:
    """Classical Dedekind sum s(h,k) = sum_{mu mod k} ((h mu / k))((mu / k)).

    For mu in 1..k-1 the sawtooths are (2a-k)/(2k) with a = h mu mod k (or 0
    when a = 0), so 4 k^2 s(h,k) is the integer accumulated below.
    """
    _check_int("h", h)
    _check_int("k", k, 1)
    total = 0
    for mu in range(1, k):
        a = (h * mu) % k
        if a:
            total += (2 * a - k) * (2 * mu - k)
    return Fraction(total, 4 * k * k)


def dedekind_t(h: int, k: int) -> int:
    """The companion lattice sum t(h,k) = sum_{mu mod k} mu * floor(h mu / k)."""
    _check_int("h", h)
    _check_int("k", k, 1)
    return sum(mu * ((h * mu) // k) for mu in range(k))


def _phi(p: int, k: int) -> int:
    # period stretch: the twisted sums run over mu mod (p/(k,p)) * k
    return 1 if k % p == 0 else p


# One entry per (prime, k).  The series at k_max sums over the moduli k and 2k
# for odd k <= k_max, so it reaches 2k <= 442 at k_max = 222, though only 267
# distinct moduli at p = 17; the verify suites reach k <= 20p for the primes
# 5, 13 and 17.  The whole test suite, run in one process, holds 497 keys:
# 1024 never evicts there, and still bounds an arbitrary caller.
@lru_cache(maxsize=1024)
def _s_chi_weights(chi: tuple, k: int) -> tuple:
    """W_k[r] = sum chi(mu) (2 mu - phi k) over 0 < mu < phi k, mu = r (mod k).

    chi is the character table of p (so p = len(chi)) and phi = _phi(p, k).
    The sawtooth ((h mu / k)) of s_chi depends on mu only through mu mod k,
    so grouping the terms of s_chi by r = mu mod k gives
    4 k phi k s_chi(h,k) = sum_{r=1}^{k-1} (2a - k) W_k[r], a = h r mod k
    (terms with a = 0 vanish), for every integer h.
    """
    p = len(chi)
    L = _phi(p, k) * k
    w = [0] * k
    for mu in range(1, L):
        c = chi[mu % p]
        if c:
            w[mu % k] += c * (2 * mu - L)
    return tuple(w)


def dedekind_s_chi(ctx: PrimeContext, h: int, k: int) -> Fraction:
    """Character twist sum_{mu mod phi k} chi(mu) ((h mu / k))((mu / phi k)),
    where phi = p unless p | k (then phi = 1)."""
    _check_int("h", h)
    _check_int("k", k, 1)
    w = _s_chi_weights(ctx.chi, k)
    total = 0
    for r in range(1, k):
        a = (h * r) % k
        if a:
            total += (2 * a - k) * w[r]
    return Fraction(total, 4 * k * _phi(ctx.p, k) * k)


def dedekind_t_chi(ctx: PrimeContext, h: int, k: int) -> Fraction:
    """Twisted lattice sum (1/phi) sum_{mu mod phi k} mu chi(mu) floor(h mu / k)."""
    _check_int("h", h)
    _check_int("k", k, 1)
    p = ctx.p
    chi = ctx.chi
    phi = _phi(p, k)
    total = 0
    for mu in range(phi * k):
        c = chi[mu % p]
        if c:
            t = mu * ((h * mu) // k)
            total += t if c > 0 else -t
    return Fraction(total, phi)


def dedekind_s_tilde(ctx: PrimeContext, a: int, b: int) -> Fraction:
    """The twisted-weight companion sum_{mu mod bp} ((mu / bp)) B1_chi(a mu / b).

    Needs b > 1 and gcd(a,b) = 1.  B1_chi values are half-integers, looked up
    in O(1) from the cumulative character table, so the loop stays integral:
    the accumulated total is 4bp times the result.
    """
    _check_int("a", a)
    _check_int("b", b, 2)
    if math.gcd(a, b) != 1:
        raise ValueError("a and b must be coprime")
    p = ctx.p
    chi = ctx.chi
    cum = ctx.chi_cumsum
    bp = b * p
    total = 0
    for mu in range(1, bp):
        v = (a * mu) % bp
        fl, rem = divmod(v, b)
        w = -2 * cum[fl]            # 2 * B1_chi is the integer w
        if rem == 0:
            w += chi[fl]
        if w:
            total += (2 * mu - bp) * w
    return Fraction(total, 4 * bp)


def lattice_floor_sum(ctx: PrimeContext, a: int, y) -> int:
    """Double sum S(y) = sum_{mu, nu mod p} mu chi(nu) floor((a mu + a y + nu)/p).

    Since 0 <= frac(a y) < 1 and the rest of the numerator is an integer,
    floor((a mu + nu + a y)/p) = floor((a mu + nu + floor(a y))/p), so the
    whole computation is integer arithmetic.
    """
    _check_int("a", a)
    ay = Fraction(a) * Fraction(y)
    e = ay.numerator // ay.denominator
    p = ctx.p
    chi = ctx.chi
    total = 0
    for mu in range(1, p):
        base = a * mu + e
        acc = 0
        for nu in range(1, p):
            c = chi[nu]
            f = (base + nu) // p
            acc += f if c > 0 else -f
        total += mu * acc
    return total


def verify_reciprocity_classical(h: int, k: int) -> bool:
    """Check both classical reciprocity laws exactly for coprime h, k >= 1:

        s(h,k) + s(k,h) = -1/4 + (h/k + k/h + 1/(hk)) / 12
        h t(h,k) + k t(k,h) = (h-1)(k-1)(8hk - h - k - 1) / 12
    """
    _check_int("h", h, 1)
    _check_int("k", k, 1)
    if math.gcd(h, k) != 1:
        raise ValueError("h and k must be coprime")
    lhs_s = dedekind_s(h, k) + dedekind_s(k, h)
    rhs_s = Fraction(-1, 4) + (Fraction(h, k) + Fraction(k, h)
                               + Fraction(1, h * k)) / 12
    lhs_t = h * dedekind_t(h, k) + k * dedekind_t(k, h)
    rhs_t = Fraction((h - 1) * (k - 1) * (8 * h * k - h - k - 1), 12)
    return lhs_s == rhs_s and lhs_t == rhs_t


def verify_reciprocity_chi(ctx: PrimeContext, h: int, k: int) -> bool:
    """Check the character reciprocity law exactly; h > 1 coprime to k.

    Two shapes depending on the modulus: for p !| k,

        s_chi(h,k) + s_tilde(k,h) = (h / 2k) B2_chi,

    while for K = k divisible by p, with K Khat = 1 (mod h),

        s_chi(h,K) + chi(h) s_chi(Khat, h) = ((h^2 + chi(h)) / (2 h K)) B2_chi.
    """
    _check_int("h", h, 2)
    _check_int("k", k, 1)
    if math.gcd(h, k) != 1:
        raise ValueError("h and k must be coprime")
    if k % ctx.p:
        lhs = dedekind_s_chi(ctx, h, k) + dedekind_s_tilde(ctx, k, h)
        return lhs == Fraction(h, 2 * k) * ctx.b2
    K = k
    khat = pow(K, -1, h)
    ch = ctx.chi[h % ctx.p]
    lhs = dedekind_s_chi(ctx, h, K) + ch * dedekind_s_chi(ctx, khat, h)
    return lhs == Fraction(h * h + ch, 2 * h * K) * ctx.b2
