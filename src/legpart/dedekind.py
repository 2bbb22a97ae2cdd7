"""Dedekind sums, their Legendre-character twists, and reciprocity laws.

Every public sum is exact:

- dedekind_s, dedekind_t, dedekind_s_tilde and lattice_floor_sum are
  literal loops.  dedekind_s stays literal on purpose:
  verify_reciprocity_classical and the scaling checks test the reciprocity
  law against it, so it must not be computed from that law.
- dedekind_s_chi and dedekind_t_chi read one cached table per modulus
  (_chi_table: the suffix sums of the class weights W_k, their moment and
  the t_chi offset B_k) through one integer floor-sum kernel, _floor_sum,
  which costs O(min(a, k - a)) steps at a = h mod k.  The phase rows of
  charsums read the same cleared s_chi, _s_chi_cleared.  t_chi is not
  derived from s_chi through their linkage law, which the verify suite
  tests.

The phase rows also read _dedekind_s_12k, the classical sum by reciprocity
along the Euclid chain in O(log k) int steps.

The sawtooth and character factors are cleared to a common denominator
first, so the inner loops are pure integer arithmetic and the results are
exact Fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from .arith import _check_int
from .context import PrimeContext, _check_ctx

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


def _dedekind_s_12k(h: int, k: int) -> int:
    """12 k s(h,k) as an int, for any int h and k >= 1, by reciprocity.

    s(gh, gk) = s(h,k), so with g = gcd(h,k) this is g T(h/g, k/g), where
    T(h,k) = 12 k s(h,k) is an int for coprime h, k.  For 0 < h < k coprime,
    12 h k times the reciprocity law reads
    h T(h,k) + k T(k mod h, h) = h^2 + k^2 + 1 - 3hk, so T is unwound along
    the Euclid chain from T(0,1) = 0, each step an exact int division.
    """
    g = math.gcd(h, k)
    k //= g
    h = h // g % k
    chain = []
    while h:
        chain.append((h, k))
        h, k = k % h, h
    t = 0
    for h, k in reversed(chain):
        t = (h * h + k * k + 1 - 3 * h * k - k * t) // h
    return g * t


def dedekind_t(h: int, k: int) -> int:
    """The companion lattice sum t(h,k) = sum_{mu mod k} mu * floor(h mu / k)."""
    _check_int("h", h)
    _check_int("k", k, 1)
    return sum(mu * ((h * mu) // k) for mu in range(k))


def _phi(p: int, k: int) -> int:
    # period stretch: the twisted sums run over mu mod (p/(k,p)) * k
    return 1 if k % p == 0 else p


# One entry per (prime, k), reread for every h by s_chi and t_chi.
@lru_cache(maxsize=1024)
def _chi_table(chi: tuple, k: int) -> tuple:
    """(tails, moment, B_k) for one modulus k, where chi is the character
    table of p (so p = len(chi)) and phi = _phi(p, k):

    - tails[j] = sum_{j <= r < k} W_k[r], for the class weights
      W_k[r] = sum chi(mu) (2 mu - phi k) over 0 < mu < phi k, mu = r (mod k);
    - moment = sum_{0 < r < k} r W_k[r];
    - B_k = sum j (r + jk) chi(r + jk) over 0 <= r < k and 0 <= j < phi.

    Closed forms, O(p^2 + k) in all.  For p | k, mu = r, so
    W_k[r] = chi(r)(2r - k) and B_k = 0.  Otherwise mu = r + jk with
    j = 0..p-1 meets every class mod p once, so the (2r - pk) part of W_k
    cancels and W_k[r] = 2k U[c], with c = r mod p and
    U[c] = sum_j j chi(c + jk).  Then B_k = sum_r (r U[c] + k V[c]) with
    V[c] = sum_j j^2 chi(c + jk): the first part is moment / 2k, and V sums
    to 0 over every p consecutive c (chi does, for each j), so the second
    is k sum_{c < R} V[c], R = k mod p.  That is O(p) from the prefix sums
    C[i] = sum_{t < i} chi(t mod p) over two periods:
    sum_{c < R} V[c] = sum_j j^2 (C[(jk mod p) + R] - C[jk mod p]).
    """
    p = len(chi)
    if k % p == 0:
        w = [chi[r % p] * (2 * r - k) for r in range(k)]
    else:
        u = [sum(j * chi[(c + j * k) % p] for j in range(1, p))
             for c in range(p)]
        w = [2 * k * u[r % p] for r in range(k)]
    tails = (*accumulate(reversed(w)),)[::-1]
    moment = sum(tails[1:])
    if k % p == 0:
        return tails, moment, 0
    cum = (0, *accumulate(chi + chi))
    v = sum(j * j * (cum[j * k % p + k % p] - cum[j * k % p])
            for j in range(1, p))
    return tails, moment, moment // (2 * k) + k * v


def _floor_sum(table: tuple, a: int) -> int:
    """F(a) = sum_{0<r<k} floor(a r / k) W_k[r] for 0 <= a < k, read from
    table = _chi_table(chi, k).

    floor(a r / k) counts the m in 1..a-1 with r >= mk/a, so
    F(a) = sum_{m=1}^{a-1} tails[ceil(mk/a)].  Since chi(-1) = 1,
    mu -> phi k - mu gives W_k[k-r] = -W_k[r], so W_k sums to 0 over
    0 < r < k and over the r with k | a r.  As
    floor((k-a) r / k) = r - floor(a r / k) - [k !| a r], that gives the
    mirror F(k-a) = moment - F(a), so each call costs O(min(a, k-a)).
    """
    tails, moment, _ = table
    k = len(tails)
    if 2 * a > k:
        return moment - _floor_sum(table, k - a)
    return sum(tails[-(-mk // a)] for mk in range(k, a * k, k))


def _s_chi_cleared(table: tuple, h: int) -> int:
    """4 k phi k s_chi(h,k), an int, for every integer h, read from
    table = _chi_table(chi, k).

    The sawtooth ((h mu / k)) depends on mu only through r = mu mod k, so
    4 k phi k s_chi(h,k) = sum_{0<r<k} (2 (h r mod k) - k) W_k[r] over the
    r with k !| h r.  W_k sums to 0 over those r (see _floor_sum), so the
    -k part drops out, and with a = h mod k,
    h r mod k = a r - k floor(a r / k) makes it 2a moment - 2k F(a).
    """
    k = len(table[0])
    a = h % k
    return 2 * a * table[1] - 2 * k * _floor_sum(table, a)


def dedekind_s_chi(ctx: PrimeContext, h: int, k: int) -> Fraction:
    """Character twist sum_{mu mod phi k} chi(mu) ((h mu / k))((mu / phi k)),
    where phi = p unless p | k (then phi = 1)."""
    _check_ctx(ctx)
    _check_int("h", h)
    _check_int("k", k, 1)
    return Fraction(_s_chi_cleared(_chi_table(ctx.chi, k), h),
                    4 * k * _phi(ctx.p, k) * k)


def dedekind_t_chi(ctx: PrimeContext, h: int, k: int) -> Fraction:
    """Twisted lattice sum (1/phi) sum_{mu mod phi k} mu chi(mu) floor(h mu / k).

    Writing mu = r + jk with 0 <= r < k and 0 <= j < phi gives
    floor(h mu / k) = floor(h r / k) + h j, so for every integer h
    phi t_chi(h,k) = sum_{0<r<k} floor(h r / k) A_k[r] + h B_k, where
    A_k[r] = sum_j (r + jk) chi(r + jk) and B_k is read from _chi_table.
    For p !| k, r + jk meets every class mod p once, so the constant in
    W_k's (2 mu - phi k) cancels and A_k = W_k / 2.  For p | k, mu = r, so
    A_k[r] = r chi(r) = (W_k[r] + k chi(r)) / 2; the k chi(r) part drops
    out, as sum_{0<r<k} floor(h r / k) chi(r) = 0 there (pair r with
    k - r: chi(-1) = 1, and chi sums to 0 over the r with k | h r).  So
    W_k / 2 serves for both, and with h = qk + a, 0 <= a < k,
    2 phi t_chi(h,k) = q moment + F(a) + 2h B_k (see _floor_sum).
    """
    _check_ctx(ctx)
    _check_int("h", h)
    _check_int("k", k, 1)
    table = _chi_table(ctx.chi, k)
    q, a = divmod(h, k)
    return Fraction(q * table[1] + _floor_sum(table, a) + 2 * h * table[2],
                    2 * _phi(ctx.p, k))


def dedekind_s_tilde(ctx: PrimeContext, a: int, b: int) -> Fraction:
    """The twisted-weight companion sum_{mu mod bp} ((mu / bp)) B1_chi(a mu / b).

    Needs b > 1 and gcd(a,b) = 1.  B1_chi values are half-integers, looked up
    in O(1) from the cumulative character table, so the loop stays integral:
    the accumulated total is 4bp times the result.
    """
    _check_ctx(ctx)
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

    y is an int or a Fraction; a float is refused, not read as the binary
    fraction it stores.  Since 0 <= frac(a y) < 1 and the rest of the
    numerator is an integer,
    floor((a mu + nu + a y)/p) = floor((a mu + nu + floor(a y))/p), so the
    whole computation is integer arithmetic.
    """
    _check_ctx(ctx)
    _check_int("a", a)
    if isinstance(y, bool) or not isinstance(y, (int, Fraction)):
        raise ValueError(f"y must be an int or a Fraction, got {y!r}")
    e = math.floor(a * y)
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
    _check_ctx(ctx)
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
