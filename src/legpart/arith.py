"""Exact arithmetic kernels.

Rational values are fractions.Fraction everywhere.  Sums of roots of unity
are kept symbolically as integer coefficient vectors (CyclotomicSum) so that
vanishing statements can be decided exactly, with no floating point in the
decision path.  High-precision numerics are mpmath mpf/mpc behind small
wrapper types that remember the binary precision they were computed at.

Everything in this module is pure: no function mutates its arguments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
from mpmath.libmp import from_man_exp, fzero

__all__ = [
    "DEFAULT_ORDER_CAP",
    "DEFAULT_PRECISION",
    "sawtooth",
    "HPReal",
    "HPComplex",
    "to_mpf",
    "bessel_i1",
    "OrderCapError",
    "CyclotomicSum",
    "cyclo_from_phases",
    "cyclo_add",
    "cyclo_neg",
    "cyclo_is_zero",
    "cyclo_to_complex",
]

# Largest root-of-unity order handled symbolically; it bounds the length of
# a CyclotomicSum's coefficient array.  2 * lcm(16, 3, 2040) covers the phase
# denominators that show up in the default verification grids.
DEFAULT_ORDER_CAP = 2 * math.lcm(16, 3, 2040)

# Binary precision of every call not given one.
DEFAULT_PRECISION = 128


def _check_int(name: str, value, least: int | None = None) -> None:
    """The one guard on int arguments: raise ValueError naming the argument
    unless value is an int and, if least is given, at least least.  A bool
    is not an int here: True and False are not counts."""
    if (not isinstance(value, int) or isinstance(value, bool)
            or (least is not None and value < least)):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an int{bound}, got {value!r}")


def _check_choice(name: str, value, choices: tuple) -> None:
    """The one guard on choice arguments: raise ValueError naming the
    argument unless value is one of choices, which share one type, and of
    that type, so that 1.0, True and mpf(1) are not the choice 1."""
    if value not in choices or type(value) is not type(choices[0]):
        raise ValueError(f"{name} must be one of {choices}, got {value!r}")


def _precision(prec) -> int:
    """prec itself, or DEFAULT_PRECISION when it is None.  A bool, a
    non-integer or a value below 8 bits raises ValueError."""
    if prec is None:
        return DEFAULT_PRECISION
    _check_int("precision", prec, 8)
    return prec


def sawtooth(x) -> Fraction:
    """The sawtooth ((x)): x - floor(x) - 1/2 for nonintegral x, 0 at integers.

    Odd and 1-periodic.  Accepts anything Fraction() accepts.
    """
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - (x.numerator // x.denominator) - Fraction(1, 2)


# ---------------------------------------------------------------------------
# high-precision wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HPReal:
    """An mpmath real together with the binary precision it was computed at."""

    value: object  # mp.mpf
    prec: int

    def __float__(self) -> float:
        return float(self.value)


@dataclass(frozen=True)
class HPComplex:
    """An mpmath complex together with the binary precision it was computed at."""

    value: object  # mp.mpc
    prec: int

    def __complex__(self) -> complex:
        return complex(self.value)


def to_mpf(x):
    """Convert int/float/Fraction/mpf to mpf at the current working precision."""
    if isinstance(x, Fraction):
        return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def bessel_i1(x, prec: int | None = None) -> HPReal:
    """Modified Bessel function I_1 by its ascending power series.

    I_1(x) = sum_{m>=0} (x/2)^(2m+1) / (m! (m+1)!).  The loop stops once the
    next term falls below 2^-(prec+8) of the running partial sum, which keeps
    the absolute error below 2^(8-prec) for the argument ranges used here.
    Only the ascending series is used; no asymptotic branch.

    x (an int, float, Fraction or mpf; not a bool) is rounded to prec+24
    bits and handed to _bessel_i1_mpf, which runs the series in fixed-point
    integers.  Raises ValueError for a bool, a non-number such as '2', or a
    negative or non-finite argument.
    """
    prec = _precision(prec)
    if isinstance(x, bool) or not (isinstance(x, (int, float, Fraction))
                                   or hasattr(x, "_mpf_")):
        raise ValueError(f"x must be a real number, got {x!r}")
    if x < 0:
        raise ValueError("bessel_i1 expects a nonnegative argument")
    with mp.workprec(prec + 24):
        xx = to_mpf(x)
    if not mp.isfinite(xx):
        raise ValueError("bessel_i1 expects a finite argument")
    return HPReal(mp.make_mpf(_bessel_i1_mpf(xx._mpf_, prec)), prec)


def _bessel_i1_mpf(x: tuple, prec: int) -> tuple:
    """I_1 of a raw mpf x, as a raw mpf rounded to prec bits.

    x must be finite, nonnegative and of at most prec+24 bits, the
    argument bessel_i1 hands over after its guards; a caller that already
    holds such an mpf (the series, at prec bits) skips that wrapper.  The
    series runs with prec+40 bits below the leading bit of x/2.  Each step
    floors the exact recurrence (at most 2 units low, plus what it inherits
    from the previous term), and the partial sum is at least x/2, so the
    sum is low by less than 2^-(prec+37) of itself per term before the one
    rounding to prec bits.
    """
    _, man, exp, bc = x
    if not man:
        return fzero
    e = exp - 1                       # x/2 = man * 2^e exactly
    frac = prec + 40 - (e + bc)       # fractional bits of the fixed point
    shift = max(0, -2 * e)
    man2 = man * man << (2 * e + shift)  # (x/2)^2 = man2 * 2^-shift
    term = total = man << (e + frac)  # m = 0 term; e + frac >= 16
    m = 0
    while True:
        m += 1
        term = (term * man2 >> shift) // (m * (m + 1))
        total += term
        if term << (prec + 8) < total:
            break
    return from_man_exp(total, -frac, prec, "n")


# ---------------------------------------------------------------------------
# exact sums of roots of unity
# ---------------------------------------------------------------------------

class OrderCapError(ValueError):
    """A requested cyclotomic order exceeded DEFAULT_ORDER_CAP."""


@dataclass(frozen=True)
class CyclotomicSum:
    """Integer combination sum_j coeffs[j] * exp(2 pi i j / order).

    coeffs always has length order.  For even order the stored support is
    folded into 0 <= j < order/2 via exp(2 pi i (j + order/2) / order)
    = -exp(2 pi i j / order), so equal sums get equal representations.
    """

    order: int
    coeffs: tuple

    def weight(self) -> int:
        """Sum of absolute coefficient values (trivial bound on the modulus)."""
        return sum(abs(c) for c in self.coeffs)


def _canonical(order: int, pairs) -> CyclotomicSum:
    c = [0] * order
    for j, w in pairs:
        c[j % order] += w
    if order % 2 == 0:
        half = order // 2
        for j in range(half, order):
            if c[j]:
                c[j - half] -= c[j]
                c[j] = 0
    return CyclotomicSum(order, tuple(c))


def _capped(order: int) -> int:
    if order > DEFAULT_ORDER_CAP:
        raise OrderCapError(f"cyclotomic order {order} exceeds cap "
                            f"{DEFAULT_ORDER_CAP}")
    return order


def cyclo_from_phases(phases, weights=None) -> CyclotomicSum:
    """Exact sum of weights[i] * exp(i pi phases[i]); phases in half turns.

    The order is twice the lcm of the phase denominators (always even), and
    exp(i pi a/b) = zeta_order^(a order / 2b) for a/b in lowest terms, as
    an int's or a Fraction's numerator and denominator are.  The phases are
    not reduced mod 2 first: _canonical reduces each exponent mod order.
    Raises OrderCapError if the order exceeds DEFAULT_ORDER_CAP, ValueError
    for a phase that is not an int or a Fraction (a bool, a str or a float,
    which would be read as the binary fraction it stores), and ValueError
    for a weight that is not an int, so the sum stays over the integers.
    """
    phases = list(phases)
    for ph in phases:
        if isinstance(ph, bool) or not isinstance(ph, (int, Fraction)):
            raise ValueError(f"phase must be an int or a Fraction, got {ph!r}")
    if weights is None:
        weights = [1] * len(phases)
    else:
        weights = list(weights)
        for w in weights:
            _check_int("weight", w)
    if len(weights) != len(phases):
        raise ValueError("phases and weights must have equal length")
    order = _capped(2 * math.lcm(1, *(ph.denominator for ph in phases)))
    return _canonical(order, ((ph.numerator * (order // (2 * ph.denominator)),
                               w) for ph, w in zip(phases, weights)))


def cyclo_add(a: CyclotomicSum, b: CyclotomicSum) -> CyclotomicSum:
    order = _capped(math.lcm(a.order, b.order))
    sa, sb = order // a.order, order // b.order
    pairs = [(j * sa, c) for j, c in enumerate(a.coeffs) if c]
    pairs += [(j * sb, c) for j, c in enumerate(b.coeffs) if c]
    return _canonical(order, pairs)


def cyclo_neg(s: CyclotomicSum) -> CyclotomicSum:
    return CyclotomicSum(s.order, tuple(-c for c in s.coeffs))


# One entry per integer factored: p, p - 1 and each cyclo_is_zero order.
@lru_cache(maxsize=1024)
def _prime_factors(m: int) -> tuple:
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def cyclo_is_zero(s: CyclotomicSum) -> bool:
    """Exact zero test over the integers.

    Rewrites the sum in a basis of the order-M cyclotomic field: for every
    odd prime power P = p^e dividing M exactly, exponents whose top p-digit
    (j mod P) // (P/p) equals p-1 are eliminated through the relation
    sum_{t=0..p-1} zeta^(j + t M/p) = 0, and finally the even fold
    zeta^(j+M/2) = -zeta^j clears the upper half.  The survivors are phi(M)
    many and linearly independent, so the sum vanishes iff every remaining
    coefficient is zero.  This is the same decision as reducing the
    coefficient polynomial mod the M-th cyclotomic polynomial (see
    reduce_mod_cyclotomic in tests/test_arith.py, the oracle the tests
    cross-check it against), just without the quadratic-cost long division.
    """
    M = s.order
    c = list(s.coeffs)
    for p, e in _prime_factors(M):
        if p == 2:
            continue
        pe = p ** e
        pe1 = pe // p
        step = M // p
        for j in range(M):
            w = c[j]
            if w and (j % pe) // pe1 == p - 1:
                c[j] = 0
                for t in range(1, p):
                    c[(j + t * step) % M] -= w
    if M % 2 == 0:
        half = M // 2
        for j in range(half, M):
            if c[j]:
                c[j - half] -= c[j]
                c[j] = 0
    return not any(c)


def cyclo_to_complex(s: CyclotomicSum, prec: int | None = None) -> HPComplex:
    """Numeric value of the sum; error at most 2^(4-prec) * weight."""
    prec = _precision(prec)
    guard = 16 + max(1, s.weight()).bit_length()
    M = s.order
    with mp.workprec(prec + guard):
        total = mp.mpc(0)
        for j, cj in enumerate(s.coeffs):
            if cj:
                total += cj * mp.expjpi(mp.mpf(2 * j) / M)
    with mp.workprec(prec):
        out = +total
    return HPComplex(out, prec)
