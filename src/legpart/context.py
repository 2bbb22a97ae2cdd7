"""Per-prime context: Legendre character tables, residue classes, character
Bernoulli data, and the cosecant constants attached to a prime p = 1 (mod 4).

A PrimeContext is built once per prime (memoized) and threaded through the
rest of the package.  All fields are plain tuples/Fractions so contexts are
hashable and safe to share across processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

import mpmath as mp

from .arith import HPReal, _check_int, _precision, _prime_factors

__all__ = [
    "PrimeContext",
    "QConstants",
    "make_context",
    "legendre",
    "power_class",
    "quartic_class",
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
    b2: Fraction           # (1/p) sum_{a=1}^{p-1} a^2 chi[a], twisted B2
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


def _check_ctx(ctx) -> None:
    """The one guard on context arguments: raise ValueError naming ctx
    unless it is a PrimeContext.  Public entry points call it first, before
    reading ctx.p or any memo keyed by it."""
    if not isinstance(ctx, PrimeContext):
        raise ValueError(f"ctx must be a PrimeContext, got {ctx!r}")


def _is_prime(n: int) -> bool:
    # _prime_factors(n) is empty for n < 2
    return _prime_factors(n) == ((n, 1),)


def _least_primitive_root(p: int) -> int:
    fac = [f for f, _ in _prime_factors(p - 1)]
    for g in range(2, p):
        if all(pow(g, (p - 1) // f, p) != 1 for f in fac):
            return g
    raise ArithmeticError(f"no primitive root found mod {p}")


# One context per prime, shared by every module.
@lru_cache(maxsize=256)
def make_context(p: int) -> PrimeContext:
    """Build the context for a prime p = 1 (mod 4).

    Every table is read off one walk over the powers of the least primitive
    root g, which fills dlog.  chi(g^e) = (-1)^e.  By Wilson q!^2 = -1
    (mod p), so q! = g^S with S = q/2 or 3q/2 (mod p - 1), and as i_unit is
    g^(q/2), epsilon is S // q.

    Rejects composites and primes p = 3 (mod 4) with ValueError, and a p
    that is not an int, a bool included, with TypeError.  Primality is by
    trial division, which is fine for the desk-scale p this package targets.
    """
    if not isinstance(p, int) or isinstance(p, bool):
        raise TypeError("p must be an int")
    if p > 10 ** 6:
        raise ValueError(f"p = {p} is above 10^6, too large for trial-division "
                         "primality checking")
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if p % 4 != 1:
        raise ValueError(f"p = {p} is not 1 mod 4")

    q = (p - 1) // 2
    g = _least_primitive_root(p)
    dlog = [None] * p
    v = 1
    for e in range(p - 1):
        dlog[v] = e
        v = v * g % p
    chi = (0, *(-1 if e & 1 else 1 for e in dlog[1:]))
    r_set = tuple(a for a in range(1, q + 1) if chi[a] == 1)
    s_set = tuple(a for a in range(1, q + 1) if chi[a] == -1)

    b2 = Fraction(sum(a * a * chi[a] for a in range(1, p)), p)
    i_unit = pow(g, q // 2, p)
    epsilon = sum(dlog[1:q + 1]) % (p - 1) // q

    return PrimeContext(
        p=p,
        q=q,
        chi=chi,
        r_set=r_set,
        s_set=s_set,
        b2=b2,
        g=g,
        i_unit=i_unit,
        epsilon=epsilon,
        kappa_sq=Fraction(2, 3) * (1 - Fraction(1, p)),
        dlog=tuple(dlog),
        chi_cumsum=tuple(accumulate(chi)),
    )


def legendre(ctx: PrimeContext, a: int) -> int:
    """Legendre symbol (a|p), zero on multiples of p."""
    _check_ctx(ctx)
    _check_int("a", a)
    return ctx.chi[a % ctx.p]


def power_class(ctx: PrimeContext, a: int) -> int:
    """Index j in 0..3 with a = g^(4k+j) mod p; needs p !| a."""
    _check_ctx(ctx)
    _check_int("a", a)
    a = a % ctx.p
    if a == 0:
        raise ValueError("a must be coprime to p")
    return ctx.dlog[a] % 4


def quartic_class(ctx: PrimeContext, a: int) -> str:
    """Classify a mod p as quartic / quadratic-nonquartic / nonquadratic,
    or zero on multiples of p."""
    _check_ctx(ctx)
    _check_int("a", a)
    if a % ctx.p == 0:
        return "zero"
    j = power_class(ctx, a)
    if j == 0:
        return "quartic"
    if j == 2:
        return "quadratic-nonquartic"
    return "nonquadratic"


def norm_mod(a: int, k: int) -> int:
    """Distance from a to the nearest multiple of k (so at most k/2)."""
    _check_int("a", a)
    _check_int("k", k, 1)
    r = a % k
    return min(r, k - r)


def _csc_product(p: int, residues):
    """2^(-(p-1)/4) prod csc(pi a / p) over a in residues, as an mpf at the
    working precision: the scale, then one division per residue in order."""
    value = mp.mpf(2) ** (-(p - 1) // 4)
    for a in residues:
        value /= mp.sinpi(mp.mpf(a) / p)
    return value


def q_constants(ctx: PrimeContext, prec: int | None = None) -> QConstants:
    """Cosecant products 2^(-(p-1)/4) prod csc(pi a / p) over each class."""
    _check_ctx(ctx)
    prec = _precision(prec)
    with mp.workprec(prec + 16):
        qr = _csc_product(ctx.p, ctx.r_set)
        qs = _csc_product(ctx.p, ctx.s_set)
        qbig = (qr / qs) ** 2
        with mp.workprec(prec):
            qr, qs, qbig = +qr, +qs, +qbig
    return QConstants(HPReal(qr, prec), HPReal(qs, prec), HPReal(qbig, prec))
