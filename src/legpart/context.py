"""Per-prime context: Legendre character tables, residue classes, character
Bernoulli data, and the cosecant constants attached to a prime p = 1 (mod 4).

A PrimeContext is built once per prime (memoized) and threaded through the
rest of the package.  All fields are plain tuples/Fractions so contexts are
hashable and safe to share across processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp

from .arith import HPReal, _prime_factors, default_precision

__all__ = [
    "PrimeContext",
    "QConstants",
    "make_context",
    "legendre",
    "power_class",
    "quartic_class",
    "b2_chi",
    "b1_chi",
    "scaled_bernoulli2",
    "norm_mod",
    "q_constants",
]


@dataclass(frozen=True)
class PrimeContext:
    p: int
    q: int                 # (p - 1) / 2
    chi: tuple             # chi[a] = Legendre symbol (a|p) for 0 <= a < p
    r_set: tuple           # quadratic residues in 1..q
    s_set: tuple           # nonresidues in 1..q
    b2: Fraction           # (1/p) sum_{a=1}^{p-1} a^2 chi[a]
    g: int                 # least primitive root mod p
    i_unit: int            # g^((p-1)/4) mod p; a square root of -1
    epsilon: int           # sign bit in ((p-1)/2)! = (-1)^epsilon i_unit (mod p)
    kappa_sq: Fraction     # (2/3)(1 - 1/p); the growth constant is pi*sqrt(kappa_sq)
    dlog: tuple            # discrete log base g; dlog[0] is None
    chi_cumsum: tuple      # C[t] = chi[0] + ... + chi[t], 0 <= t < p

    def __repr__(self):
        return f"PrimeContext(p={self.p})"


@dataclass(frozen=True)
class QConstants:
    """Cosecant products over the residue classes and their squared ratio."""

    q_r: HPReal
    q_s: HPReal
    q_big: HPReal   # (q_r / q_s)^2


def _is_prime(n: int) -> bool:
    # _prime_factors(n) is empty for n < 2
    return _prime_factors(n) == ((n, 1),)


def _least_primitive_root(p: int) -> int:
    fac = [f for f, _ in _prime_factors(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in fac):
            return g
    raise ArithmeticError(f"no primitive root found mod {p}")


@lru_cache(maxsize=None)
def make_context(p: int) -> PrimeContext:
    """Build the context for a prime p = 1 (mod 4).

    Rejects composites and primes p = 3 (mod 4).  Primality is by trial
    division, which is fine for the desk-scale p this package targets.
    """
    if not isinstance(p, int):
        raise TypeError("p must be an int")
    if p > 10 ** 6:
        raise ValueError("p too large for trial-division primality checking")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p % 4 != 1:
        raise ValueError(f"p = {p} is not 1 mod 4")

    q = (p - 1) // 2
    chi = [0] * p
    for a in range(1, p):
        t = pow(a, q, p)
        chi[a] = 1 if t == 1 else -1
    r_set = tuple(a for a in range(1, q + 1) if chi[a] == 1)
    s_set = tuple(a for a in range(1, q + 1) if chi[a] == -1)

    b2 = Fraction(sum(a * a * chi[a] for a in range(1, p)), p)

    g = _least_primitive_root(p)
    dlog = [None] * p
    v = 1
    for e in range(p - 1):
        dlog[v] = e
        v = v * g % p
    i_unit = pow(g, (p - 1) // 4, p)

    fq = math.factorial(q) % p
    if fq == i_unit:
        epsilon = 0
    elif fq == p - i_unit:
        epsilon = 1
    else:  # pragma: no cover - impossible for genuine primes
        raise ArithmeticError(f"half factorial mod {p} is not a 4th root of 1")

    cum = []
    run = 0
    for t in range(p):
        run += chi[t]
        cum.append(run)

    return PrimeContext(
        p=p,
        q=q,
        chi=tuple(chi),
        r_set=r_set,
        s_set=s_set,
        b2=b2,
        g=g,
        i_unit=i_unit,
        epsilon=epsilon,
        kappa_sq=Fraction(2, 3) * (1 - Fraction(1, p)),
        dlog=tuple(dlog),
        chi_cumsum=tuple(cum),
    )


def legendre(ctx: PrimeContext, a: int) -> int:
    """Legendre symbol (a|p), zero on multiples of p."""
    return ctx.chi[a % ctx.p]


def power_class(ctx: PrimeContext, a: int) -> int:
    """Index j in 0..3 with a = g^(4k+j) mod p; needs p !| a."""
    a = a % ctx.p
    if a == 0:
        raise ValueError("a must be coprime to p")
    return ctx.dlog[a] % 4


def quartic_class(ctx: PrimeContext, a: int) -> str:
    """Classify a mod p as quartic / quadratic-nonquartic / nonquadratic,
    or zero on multiples of p."""
    if a % ctx.p == 0:
        return "zero"
    j = power_class(ctx, a)
    if j == 0:
        return "quartic"
    if j == 2:
        return "quadratic-nonquartic"
    return "nonquadratic"


def b2_chi(ctx: PrimeContext) -> Fraction:
    """The twisted second Bernoulli constant (1/p) sum a^2 chi[a]."""
    return ctx.b2


def b1_chi(ctx: PrimeContext, y) -> Fraction:
    """Twisted first Bernoulli function: sum over 0 <= n < y of -chi[n],
    corrected by chi[y]/2 at integers; p-periodic and odd away from integers.

    Evaluated in O(1) from the cumulative character table.
    """
    y = Fraction(y) % ctx.p
    fl = y.numerator // y.denominator
    out = Fraction(-ctx.chi_cumsum[fl])
    if y.denominator == 1:
        out += Fraction(ctx.chi[fl % ctx.p], 2)
    return out


def scaled_bernoulli2(ctx: PrimeContext, a: int) -> int:
    """6 {a}_p^2 - 6 p {a}_p + p^2, i.e. 6 p^2 B_2({a}_p / p)."""
    m = a % ctx.p
    return 6 * m * m - 6 * ctx.p * m + ctx.p * ctx.p


def norm_mod(a: int, k: int) -> int:
    """Distance from a to the nearest multiple of k (so at most k/2)."""
    r = a % k
    return min(r, k - r)


def q_constants(ctx: PrimeContext, prec: int | None = None) -> QConstants:
    """Cosecant products 2^(-(p-1)/4) prod csc(pi a / p) over each class."""
    if prec is None:
        prec = default_precision()
    with mp.workprec(prec + 16):
        scale = mp.mpf(2) ** (-(ctx.p - 1) // 4)
        qr = scale
        for r in ctx.r_set:
            qr *= 1 / mp.sinpi(mp.mpf(r) / ctx.p)
        qs = scale
        for s in ctx.s_set:
            qs *= 1 / mp.sinpi(mp.mpf(s) / ctx.p)
        qbig = (qr / qs) ** 2
        with mp.workprec(prec):
            qr, qs, qbig = +qr, +qs, +qbig
    return QConstants(HPReal(qr, prec), HPReal(qs, prec), HPReal(qbig, prec))
