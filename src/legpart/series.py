"""Exact generating-function oracle and the numeric series machinery.

Each +-1 product family (Phi, PhiDagger, F/G, R+-, S+-) is written once,
as a factor table in _factors.  The oracle side works in pure integer
arithmetic: oracle_table (Phi, PhiDagger) and sigma_coeffs (S+-) expand
their tables as the theta quotient (x^M; x^M)_inf^r / prod_a J_a, whose
factors have O(sqrt(n/M)) terms each (_theta_quotient).  The numeric side
(q-Pochhammer and theta products from the same tables through one int
kernel that rounds as libmpf does, transformation checks, series
evaluation) runs on mpmath at a caller-chosen precision and reuses the
exact phases from charsums.

The series evaluates its exponential sums per residue, not per (k, n):
the phases z_h and the k-th roots of unity do not depend on n, so each is
built once per modulus k as a fixed-point integer vector, and n enters
only through -n mod k.  chi(-1) = 1 makes each sum L(k, n) real, so it is
the real half of one exact integer dot product, kept per residue and
rounded to an mpf within 2^-(wp+14) of its exact value (see
_numeric_sum), whose loop takes h and -h in one step.  The exact
cyclotomic sums of charsums are not on this path; the tests use them as its
oracle.  Every factor of a term that the sign does not enter, the Bessel
values above all, is built once per n in a row (_series_row) that the first
sign to evaluate n hands to the other.
"""

import math
import operator
import random
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial

from mpmath import mp
from mpmath.libmp import (bitcount, from_int, from_man_exp, from_rational,
                         fzero, mpf_add, mpf_cos_sin_pi, mpf_div, mpf_mul,
                         mpf_mul_int, pi_fixed, to_fixed)
from mpmath.libmp.libelefun import cos_sin_basecase

from .arith import (DEFAULT_PRECISION, HPComplex, HPReal, _bessel_i1_mpf,
                    _check_choice, _check_int, _precision, to_mpf)
from .charsums import (VARIANTS, _chi_class, _twisted_phases, lambda_exponent,
                       lambda_k)
from .context import PrimeContext, _check_ctx, make_context

__all__ = [
    "InconclusiveError",
    "SignedPartitionTable",
    "SeriesEvalConfig",
    "RademacherResult",
    "oracle_table",
    "scan_vanishing",
    "sigma_coeffs",
    "q_pochhammer",
    "q_pochhammer_tail",
    "theta_products",
    "verify_functional_equation",
    "c_sequence",
    "rademacher_eval",
]

_SIGNS = (1, -1)

THETA_FAMILIES = ("R+", "R-", "S+", "S-", "T+", "T-", "U+", "U-",
                  "F_r", "F_s", "G_r", "G_s", "Phi", "PhiDagger")

# the primes rademacher_eval accepts, which the verify suites run over
SERIES_PRIMES = (5, 13, 17)


class InconclusiveError(RuntimeError):
    """Raised when a truncation tail is too large to certify a comparison."""


@dataclass(frozen=True)
class SignedPartitionTable:
    """Exact table of signed partition counts; values[0] is always 1."""

    p: int
    sign: int
    values: tuple

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SeriesEvalConfig:
    """Truncation and precision knobs for the series evaluator."""

    k_max: int
    precision: int

    def __post_init__(self):
        _check_int("k_max", self.k_max, 1)
        _check_int("precision", self.precision, 8)


@dataclass(frozen=True)
class RademacherResult:
    """One evaluated series value and how far it sat from an integer."""

    n: int
    raw: HPReal
    rounded: int
    distance_to_integer: HPReal
    k_max: int


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

def _factors(ctx: PrimeContext, family: str) -> list:
    """The factor table of one +-1 product family.

    Each (sign, first, step) stands for the factors (1 - sign*x^e)^(-1) over
    e = first + j*step, j >= 0.  F/G are the plain and sign-alternating class
    products, R+ = F_r*G_s and R- = G_r*F_s, and in S+/S- the favoured class
    contributes 2a and 2p-2a mod 2p, the other p+2a and p-2a.
    """
    p = ctx.p
    if family in ("Phi", "PhiDagger"):
        flip = 1 if family == "Phi" else -1
        return [(flip * ctx.chi[a], a, p) for a in range(1, p)]
    if family in ("F_r", "F_s", "G_r", "G_s"):
        members = ctx.r_set if family.endswith("r") else ctx.s_set
        sgn = 1 if family.startswith("F") else -1
        return [(sgn, e, p) for a in members for e in (a, p - a)]
    if family == "R+":
        return _factors(ctx, "F_r") + _factors(ctx, "G_s")
    if family == "R-":
        return _factors(ctx, "G_r") + _factors(ctx, "F_s")
    # S+ or S-
    even_set = ctx.r_set if family == "S+" else ctx.s_set
    odd_set = ctx.s_set if family == "S+" else ctx.r_set
    return ([(1, e, 2 * p) for a in even_set for e in (2 * a, 2 * p - 2 * a)]
            + [(1, e, 2 * p) for a in odd_set for e in (p + 2 * a, p - 2 * a)])


def _jacobi_terms(M: int, a: int, signed: bool, n_max: int) -> list:
    """Nonconstant terms (e, c) of J_a up to x^n_max, sorted by e.

    J_a^-(x) = sum over n in Z of (-1)^n x^(M n(n-1)/2 + a n), which the
    Jacobi triple product makes prod_j (1 - x^(Mj+a))(1 - x^(M(j+1)-a))
    (1 - x^(M(j+1))); J_a^+ (signed False) drops the (-1)^n, which flips the
    first two signs.  n and 1 - n share M n(n-1)/2, and 0 < 2a < M keeps
    every exponent distinct.  The modulus M is p for Phi and 2p for S+-.
    """
    terms = []
    n = 1
    while M * n * (n - 1) // 2 - a * (n - 1) <= n_max:
        tri = M * n * (n - 1) // 2
        c = -1 if signed and n % 2 else 1
        if tri + a * n <= n_max:
            terms.append((tri + a * n, c))
        if n > 1:
            terms.append((tri - a * (n - 1), -c if signed else 1))
        n += 1
    return sorted(terms)


# Near terms take an interpreted step per entry; far terms act on a block in
# a few slice passes, and a block is at most as wide as the first far
# exponent.  So a lower threshold steps through fewer terms one entry at a
# time, but in narrower blocks, each paying a few slices of set-up.  Timed
# on the seven oracle_scan tables (six scans to n = 5000, p = 17 to n =
# 8000), 4 to 12 came within 2% of 8 and 16 cost 6% more (median ratio over
# 15 rounds); 32 cost 21% more in an earlier sweep, as both a and M - a of
# a J_a then fall below it and run as a two-term loop.
_SLICE = 8


def _divide(values: list, terms: list, n_max: int) -> None:
    """values /= 1 + sum c*x^e in place, for terms sorted by e >= 1.

    The exact recurrence w[i] = v[i] - sum c*w[i-e], n_max - e + 1 big-int
    additions per term.  Near terms (e < _SLICE, and always the first) run
    element by element; the rest are far.  Below the last near exponent
    only some near terms reach and no far term does, so those few entries
    run the recurrence literally.  From there the values go in blocks [lo,
    hi) no wider than the first far exponent, each ending where the next
    far term starts, so every far term in reach has e <= lo and reads only
    finished entries.  Per sign, those terms act on the block in one pass
    per slice values[lo-e:hi-e] while there are at most two, and in one
    summed pass over all of them beyond that: zipping the slices costs
    more per entry than it saves until the third.  All the near terms then
    run through the block in order.
    """
    near = [t for t in terms if t[0] < _SLICE] or terms[:1]
    far = terms[len(near):]
    lo = near[-1][0]
    for i in range(near[0][0], min(lo, n_max + 1)):
        values[i] -= sum(c * values[i - e] for e, c in near if e <= i)
    add = [e for e, c in near if c == -1]   # near, where c = -1
    sub = [e for e, c in near if c == 1]    # and where c = 1
    width = far[0][0] if far else n_max
    stops = [e for e, _ in far] + [n_max + 1]
    adds, subs = [], []     # far e <= lo, where c = -1 and where c = 1
    k = 0
    while lo <= n_max:
        while stops[k] <= lo:
            e, c = far[k]
            (adds if c == -1 else subs).append(e)
            k += 1
        hi = min(lo + width, stops[k], n_max + 1)
        if adds or subs:
            block = values[lo:hi]
            if len(adds) > 2:
                block = map(sum, zip(block, *[values[lo - e:hi - e]
                                              for e in adds]))
            else:
                for e in adds:
                    block = map(operator.add, block, values[lo - e:hi - e])
            if len(subs) > 2:
                block = map(operator.sub, block, map(sum, zip(
                    *[values[lo - e:hi - e] for e in subs])))
            else:
                for e in subs:
                    block = map(operator.sub, block, values[lo - e:hi - e])
            values[lo:hi] = block
        if not add and len(sub) == 1:
            e = sub[0]
            for i in range(lo, hi):
                values[i] -= values[i - e]
        elif not sub and len(add) == 1:
            e = add[0]
            for i in range(lo, hi):
                values[i] += values[i - e]
        else:
            for i in range(lo, hi):
                values[i] += (sum([values[i - e] for e in add])
                              - sum([values[i - e] for e in sub]))
        lo = hi


def _theta_quotient(factors: list, n_max: int,
                    rng: random.Random | None = None) -> list:
    """Coefficients of x^0..x^n_max of the product over a factor table
    whose entries share one step M and pair up: (c, a, M) with (c, M-a, M).

    The Jacobi triple product makes each pair's factors (x^M; x^M)_inf /
    J_a, with J_a^- where c = 1 and J_a^+ where c = -1, so the product is
    (x^M; x^M)_inf^r / prod J_a over the r pairs, each named by its entry
    with 2a < M.  The numerator is built in y = x^M and spread onto the
    multiples of M: r times, it is multiplied by the Euler series (y; y)_inf,
    which is J_1^- at modulus 3 (Euler's pentagonal theorem), in one sliced
    pass per term over a copy of itself.  Each J_a, with constant term 1, is
    then divided out by _divide.  Factors that are 1 modulo x^(n_max+1) are
    left out: J_a for a > n_max, and the numerator when M > n_max (the Euler
    series then has no terms).  A seeded rng shuffles the order of the
    divisions.
    """
    (M,) = {step for _, _, step in factors}
    pairs = [(c, a) for c, a, _ in factors if 2 * a < M]
    euler = _jacobi_terms(3, 1, True, n_max // M)
    thetas = [_jacobi_terms(M, a, c == 1, n_max)
              for c, a in pairs if a <= n_max]
    top = [1] + [0] * (n_max // M)
    for _ in range(len(pairs) if euler else 0):
        old = top[:]
        for e, c in euler:
            # map stops at the end of top[e:], so old needs no upper bound
            top[e:] = map(operator.add if c == 1 else operator.sub,
                          top[e:], old)
    values = [0] * (n_max + 1)
    values[::M] = top
    if rng is not None:
        rng.shuffle(thetas)
    for terms in thetas:
        _divide(values, terms, n_max)
    return values


def oracle_table(ctx: PrimeContext, sign: int, n_max: int,
                 rng: random.Random | None = None) -> SignedPartitionTable:
    """Exact coefficients of the signed-partition generating function.

    Phi (sign +1) or PhiDagger (sign -1) is the product of (1 -
    sign*chi_a*x^(a+jp))^(-1) over all exponents a+jp <= n_max: its
    _factors table, expanded as a theta quotient with M = p
    (_theta_quotient).  A seeded rng shuffles the order of its J_a
    divisions; the table does not depend on it.
    """
    _check_ctx(ctx)
    _check_choice("sign", sign, _SIGNS)
    _check_int("n_max", n_max, 1)
    if rng is not None and not isinstance(rng, random.Random):
        raise ValueError(f"rng must be None or a random.Random, got {rng!r}")
    family = "Phi" if sign == 1 else "PhiDagger"
    return SignedPartitionTable(
        ctx.p, sign, tuple(_theta_quotient(_factors(ctx, family), n_max, rng)))


def scan_vanishing(ctx: PrimeContext, sign: int, modulus: int,
                   n_min: int, n_max: int) -> set:
    """Residues mod modulus whose whole class vanishes on [n_min, n_max].

    A residue only qualifies if the range actually contains members of its
    class; an empty class is no evidence.  One nonzero value rules a class
    out for good, so a probe table to max(n_min + modulus - 1, n_max // 16),
    where every class has a member, comes first: when it rules out every
    class the answer is empty and the n_max table is never built.  The
    probe is skipped above n_max // 4, where it would cost more than an
    eighth of the full table.
    """
    _check_ctx(ctx)
    _check_int("modulus", modulus, 1)
    _check_int("n_min", n_min, 1)
    _check_int("n_max", n_max, n_min)
    probe = max(n_min + modulus - 1, n_max // 16)
    if (probe <= n_max // 4
            and not _vanishing(ctx, sign, modulus, n_min, probe)):
        return set()
    return _vanishing(ctx, sign, modulus, n_min, n_max)


def _vanishing(ctx: PrimeContext, sign: int, modulus: int,
               n_min: int, n_max: int) -> set:
    """scan_vanishing's answer read off one oracle table to n_max."""
    values = oracle_table(ctx, sign, n_max).values
    seen = [False] * modulus
    alive = [True] * modulus
    for n in range(n_min, n_max + 1):
        r = n % modulus
        seen[r] = True
        if values[n] != 0:
            alive[r] = False
    return {r for r in range(modulus) if seen[r] and alive[r]}


def sigma_coeffs(ctx: PrimeContext, sign: int, m_max: int) -> list:
    """Exact series coefficients of the even/odd-split product pair S^+/S^-.

    Both variants are products of plain inverse factors (1 - x^e)^(-1); the
    exponents are the factor table of S+ (sign +1) or S- (sign -1), expanded
    as a theta quotient with M = 2p (_theta_quotient).
    """
    _check_ctx(ctx)
    _check_choice("sign", sign, _SIGNS)
    _check_int("m_max", m_max, 0)
    return _theta_quotient(_factors(ctx, "S+" if sign == 1 else "S-"), m_max)


# ---------------------------------------------------------------------------
# numeric products
# ---------------------------------------------------------------------------

def _as_mpc(name: str, x):
    """x as an mpc; raises ValueError naming the argument unless finite."""
    if isinstance(x, (HPComplex, HPReal)):
        xx = mp.mpc(x.value)
    else:
        xx = mp.mpc(to_mpf(x) if isinstance(x, Fraction) else x)
    if not mp.isfinite(xx):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return xx


def _carried_prec(*xs) -> int:
    precs = [x.prec for x in xs if isinstance(x, (HPReal, HPComplex))]
    return max(precs) if precs else DEFAULT_PRECISION


def _poch_tail_bound(z, q, truncation: int):
    """Relative tail bound of the (z;q)-product cut to N = truncation factors.

    The discarded factors multiply the full product by exp(E) with
    |E| <= sum_{j>=N} |z||q|^j / (1 - |z q^N|); the bound is that sum, or
    inf when it is not finite.
    """
    za, qa = abs(mp.mpc(z)), abs(mp.mpc(q))
    head = za * qa ** truncation
    if qa >= 1 or head >= 1:
        return mp.inf
    return head / ((1 - qa) * (1 - head))


def _mpf_add(am: int, ae: int, bm: int, be: int, prec: int) -> tuple:
    """am 2^ae + bm 2^be as libmpf's mpf_add rounds it, for signed odd (or
    zero) mantissas: to prec bits, half to even, as (odd m or 0, e).

    mpf_add is not correctly rounded when the operands lie far apart: past
    an exponent offset of 100, with top bits more than prec + 4 apart, it
    shifts the larger one up by prec + 4 bits and moves it one unit toward
    the smaller one's sign before rounding.  The branch is copied, and the
    result's trailing zeros stripped, so every offset it tests is mpf_add's.
    """
    if ae < be:
        am, ae, bm, be = bm, be, am, ae
    if not bm:
        bm, be = am, ae
    elif am:
        d = ae - be
        if d > 100 and am.bit_length() + d - bm.bit_length() > prec + 4:
            bm, be = (am << prec + 4) + (1 if bm > 0 else -1), ae - prec - 4
        else:
            bm += am << d
    n = bm.bit_length() - prec
    if n > 0:
        t = bm >> (n - 1)
        if t & 1 and (t & 2 or bm & ((1 << (n - 1)) - 1)):
            t += 2
        bm, be = t >> 1, be + n
    if bm & 1 or not bm:
        return bm, be
    n = (bm & -bm).bit_length() - 1
    return bm >> n, be + n


def _poch_settled(zr: int, zre: int, zi: int, zie: int, qi: int, gap: int,
                  products) -> bool:
    """Whether no later factor of a chain with parts below 2^gap, gap =
    -(prec + 5), can change a bit of any (r, re, i, ie) product: at once
    for a zero or real (zi = qi = 0) chain, which adds no cross terms, else
    when each cross term, at most 2^t times a part (t = 1 + the chain's top
    bit), lies more than prec + 5 bits below the part it is added to."""
    if not (zr or zi) or not (zi or qi):
        return True
    t = max(e + m.bit_length() for m, e in ((zr, zre), (zi, zie)) if m)
    for r, re, i, ie in products:
        if not (r and i):
            return False
        tr, ti = re + r.bit_length(), ie + i.bit_length()
        if ti + t >= tr + gap or tr + t >= ti + gap:
            return False
    return True


def _poch_partial(z, q, truncation: int, twin: bool = False):
    """Partial product prod_{j<N} (1 - z q^j), paired with that of -z
    when twin is set (else with None).  The tail bound, which both share,
    is _poch_tail_bound's, computed by the caller that reads it.

    Int arithmetic that mirrors, bit for bit, the libmpc calls of the
    mpc-object loop val *= 1 - zq; zq *= q at mp.prec: each mpf is a signed
    odd mantissa (or 0) times 2^e, and a complex product is four exact int
    products and two _mpf_add, each rounded to mp.prec half to even and,
    as mpf_add does, through its far-operand branch when the two products
    lie far apart, which is not correctly rounded (see _mpf_add).  The
    first factor rounds the imaginary part of z, later ones read the
    rounded chain.  Negation is exact and the rounding sign-symmetric, so
    the chain of -z is the negated chain of z, and the twin factors are
    1 + z q^j.

    The loop stops, with the products of all N factors, once no later
    factor can change a bit (_poch_settled).  Proof, for chain parts below
    2^t now: (1) with both parts of q below 1/2, |zr qr -+ zi qi| < 2^t, so
    no later part rounds above 2^t; (2) with t < -(prec + 5), each 1 -+ zr
    rounds to 1; (3) a cross term more than prec + 5 bits below its part is
    under a quarter unit in that part's last place, so mpf_add, far branch
    or not, returns the part unchanged.
    """
    prec = mp.prec
    vr, vre, vi, vie = ur, ure, ui, uie = 1, 0, 0, 0
    (zr, zre), (zi, zie), (qr, qre), (qi, qie) = [
        (-m if s else m, e)
        for s, m, e, _ in mp.mpc(z)._mpc_ + mp.mpc(q)._mpc_]
    # no part of the chain grows: it is zero, or both parts of q are < 1/2
    shrinks = not (zr or zi) or all(not m or e + m.bit_length() < 0
                                    for m, e in ((qr, qre), (qi, qie)))
    gap = -prec - 5
    wi, wie = _mpf_add(zi, zie, 0, 0, prec)
    for _ in range(truncation):
        fr, fre = _mpf_add(1, 0, -zr, zre, prec)
        vr, vre, vi, vie = (
            *_mpf_add(vr * fr, vre + fre, vi * wi, vie + wie, prec),
            *_mpf_add(-vr * wi, vre + wie, vi * fr, vie + fre, prec))
        if twin:
            fr, fre = _mpf_add(1, 0, zr, zre, prec)
            ur, ure, ui, uie = (
                *_mpf_add(ur * fr, ure + fre, -ui * wi, uie + wie, prec),
                *_mpf_add(ur * wi, ure + wie, ui * fr, uie + fre, prec))
        zr, zre, zi, zie = (
            *_mpf_add(zr * qr, zre + qre, -zi * qi, zie + qie, prec),
            *_mpf_add(zr * qi, zre + qie, zi * qr, zie + qre, prec))
        wi, wie = zi, zie
        if (shrinks and (not zr or zre + zr.bit_length() < gap)
                and (not zi or zie + zi.bit_length() < gap)
                and _poch_settled(zr, zre, zi, zie, qi, gap, (
                    (vr, vre, vi, vie), (ur, ure, ui, uie))[:1 + twin])):
            break
    val = mp.make_mpc((from_man_exp(vr, vre), from_man_exp(vi, vie)))
    twin_val = mp.make_mpc((from_man_exp(ur, ure), from_man_exp(ui, uie)))
    return val, twin_val if twin else None


def _poch_at(z, q, truncation: int, part, wrap):
    """part(z, q, truncation) at 16 guard bits, after the checks both
    (z;q)-product entry points share, wrapped at the carried precision."""
    _check_int("truncation", truncation, 0)
    prec = _carried_prec(z, q)
    with mp.workprec(prec + 16):
        zz, qq = _as_mpc("z", z), _as_mpc("q", q)
        if abs(qq) >= 1:
            raise ValueError("q must satisfy |q| < 1")
        out = part(zz, qq, truncation)
    with mp.workprec(prec):
        return wrap(+out, prec)


def q_pochhammer(z, q, truncation: int) -> HPComplex:
    """Truncated (z;q)-product: prod_{j<truncation} (1 - z q^j), the value
    of all truncation factors, however early the kernel stops.

    Needs |q| < 1; see q_pochhammer_tail for the matching tail bound.
    """
    return _poch_at(z, q, truncation,
                    lambda *args: _poch_partial(*args)[0], HPComplex)


def q_pochhammer_tail(z, q, truncation: int) -> HPReal:
    """Relative error bound matching q_pochhammer at the same arguments."""
    return _poch_at(z, q, truncation, _poch_tail_bound, HPReal)


def _theta_pairs(ctx: PrimeContext, family: str, x):
    """(z, q) arguments of the inverse Pochhammer factors of one family.

    The +-1 families read their _factors table, of one step M: (sign,
    first, M) is the pair (sign*x^first, x^M).  T+/T- and U+/U- carry the
    p-th roots of unity w = exp(2 pi i a/p): (members, sign, y, q) gives
    the pairs (sign*w*y, q) and (sign*conj(w)*y, q) for each a in members.
    """
    if family not in ("T+", "T-", "U+", "U-"):
        table = _factors(ctx, family)
        q = x ** table[0][2]
        return [(sign * x ** first, q) for sign, first, _ in table]
    if family in ("T+", "T-"):
        sgn = 1 if family == "T+" else -1
        groups = ((ctx.r_set, sgn, x, x), (ctx.s_set, -sgn, x, x))
    else:
        x2 = x * x
        sq_set = ctx.r_set if family == "U+" else ctx.s_set
        lin_set = ctx.s_set if family == "U+" else ctx.r_set
        groups = ((sq_set, 1, x2, x2), (lin_set, 1, x, x2))
    pairs = []
    for members, sign, y, q in groups:
        for a in members:
            w = mp.expjpi(mp.mpf(2 * a) / ctx.p)
            pairs.append((sign * w * y, q))
            pairs.append((sign * mp.conj(w) * y, q))
    return pairs


# The twin of each base family has the base's (z, q) pairs, in order, with
# every z negated; the tests pin both pair lists against literal ones.
_TWINS = {"Phi": "PhiDagger", "R+": "R-", "T+": "T-", "F_r": "G_r",
          "F_s": "G_s"}
_BASE = {t: b for b, t in _TWINS.items()}


# One memo for all 14 families.  A base family's entry holds its twin too,
# so one FEQ point, plain then dagger at the same x, reads it twice.
@lru_cache(maxsize=64)
def _theta_product(ctx: PrimeContext, family: str, x: tuple, truncation: int,
                   prec: int) -> tuple:
    """Numeric product of inverse Pochhammers at x = make_mpc(x), with that
    of its twin for a base family of _TWINS (else 1), plus the summed tail
    bound both share, all run at mp precision prec, which keys the memo."""
    twin = family in _TWINS
    with mp.workprec(prec):
        value = twin_value = mp.mpc(1)
        tail = mp.mpf(0)
        for z, q in _theta_pairs(ctx, family, mp.make_mpc(x)):
            part, twin_part = _poch_partial(z, q, truncation, twin)
            value /= part
            if twin:
                twin_value /= twin_part
            tail += _poch_tail_bound(z, q, truncation)
    return value, twin_value, tail


def _theta_value(ctx: PrimeContext, family: str, x, truncation: int):
    """Numeric product of inverse Pochhammers plus a summed tail bound."""
    base = _BASE.get(family, family)
    value, twin, tail = _theta_product(ctx, base, x._mpc_, truncation, mp.prec)
    return (value if family == base else twin), tail


def theta_products(ctx: PrimeContext, family: str, x,
                   truncation: int) -> HPComplex:
    """Evaluate one of the named infinite-product families, truncated.

    Families: R+/R- and S+/S- are the residue-class split products, T+/T- and
    U+/U- the root-of-unity twisted ones, F_r/F_s/G_r/G_s the plain and
    sign-alternating class products, Phi and PhiDagger the two full
    generating functions.  Requires |x| < 1.
    """
    _check_ctx(ctx)
    _check_choice("family", family, THETA_FAMILIES)
    _check_int("truncation", truncation, 1)
    prec = _carried_prec(x)
    with mp.workprec(prec + 24):
        xx = _as_mpc("x", x)
        if abs(xx) >= 1:
            raise ValueError("theta products need |x| < 1")
        value, _ = _theta_value(ctx, family, xx, truncation)
    with mp.workprec(prec):
        return HPComplex(+value, prec)


# ---------------------------------------------------------------------------
# transformation checks
# ---------------------------------------------------------------------------

def verify_functional_equation(ctx: PrimeContext, h: int, k: int,
                               z, truncation: int = 200,
                               precision: int | None = None,
                               variant: str = "plain") -> HPReal:
    """Relative residual of one modular transformation of Phi (or its twin).

    Both sides are evaluated as truncated products at x = exp(2 pi i h/k
    - 2 pi z/k); the right side is the weight, the phase root of unity, the
    elementary exponential factor and the transformed product appropriate to
    gcd(k, 2p).  The dagger variant mirrors the plain one with the two
    residue classes exchanged, which flips the sign of the quadratic
    character sum in the case-p exponential and swaps which split product
    appears.  Raises InconclusiveError when the combined truncation tail is
    too large for the comparison to mean anything at this precision.
    """
    _check_ctx(ctx)
    _check_choice("variant", variant, VARIANTS)
    _check_int("h", h)
    _check_int("k", k, 1)
    _check_int("truncation", truncation, 1)
    if not (0 < h <= k):
        raise ValueError("need 0 < h <= k")
    if math.gcd(h, k) != 1:
        raise ValueError("h and k must be coprime")
    prec = _precision(precision)
    p, q = ctx.p, ctx.q
    # the transformed product: R, S, T, U for gcd(k, 2p) = 2p, p, 2, 1, and
    # the sign chi_h where p | k and chi_k where not, flipped for dagger
    flip = 1 if variant == "plain" else -1
    sgn = flip * ctx.chi[(k if k % p else h) % p]
    fam = ("TU" if k % p else "RS")[k % 2] + ("+" if sgn == 1 else "-")
    with mp.workprec(prec + 32):
        zz = _as_mpc("z", z)
        if mp.re(zz) <= 0:
            raise ValueError("need Re z > 0")
        xx = mp.expjpi(mp.mpf(2 * h) / k) * mp.exp(-2 * mp.pi * zz / k)
        if abs(xx) >= 1:
            raise ValueError("the base point must satisfy |x| < 1")
        lhs_family = "Phi" if variant == "plain" else "PhiDagger"
        lhs, lhs_tail = _theta_value(ctx, lhs_family, xx, truncation)

        # Three facts of the case: even k inverts h at 2 pi and odd k 2h at
        # pi (m = 1 or 2); the modulus K is k when p | k, else kp with the
        # weight lambda_k; and c is the 1/z coefficient of psi.
        m = 1 if k % 2 == 0 else 2
        if k % p:
            K, lam = k * p, lambda_k(ctx, k, variant, prec + 32).value
            c = mp.mpf(1) / (m * m * p)
        else:
            K, lam = k, mp.mpf(1)
            c = -mp.mpf(1) / (m * m)
            if m == 2:
                c += to_mpf(Fraction(3, q) * sgn * ctx.b2
                            * (1 - Fraction(ctx.chi[2], 4)))
        inv = pow(m * h * (K // k), -1, k)
        xt = mp.expjpi(mp.mpf(-2 * inv) / k) * mp.exp(-2 * mp.pi / (m * K * zz))
        psi = mp.pi * q / (6 * k) * (c / zz + zz)
        if abs(xt) >= 1:
            raise ValueError("the transformed point must satisfy |x~| < 1")

        phi = mp.expjpi(to_mpf(lambda_exponent(ctx, h, k, variant)))
        omega, rhs_tail = _theta_value(ctx, fam, xt, truncation)
        rhs = lam * phi * mp.exp(psi) * omega
        tail = lhs_tail + rhs_tail
        if not tail < mp.mpf(2) ** (-(prec // 2)):
            raise InconclusiveError(
                f"truncation tail {mp.nstr(tail, 8)} exceeds 2^-{prec // 2}")
        residual = abs(lhs - rhs) / abs(lhs)
    with mp.workprec(prec):
        return HPReal(+residual, prec)


# ---------------------------------------------------------------------------
# series evaluation
# ---------------------------------------------------------------------------

@lru_cache(maxsize=65536)
def _fixed_cis(num: int, den: int, bits: int) -> tuple:
    """(cos, sin) of pi*num/den as integers scaled by 2^bits, each within
    2^(0.1 - bits) of the true value: the floor, by to_fixed, of
    mpf_cos_sin_pi(from_rational(num, den, bits+8), bits+8), bit for bit,
    in ints without the mpf wrappers.

    x = num/den is truncated toward zero to prec = bits+8 bits as
    from_rational does; mpf_cos_sin's pi branch then takes off the nearest
    half-integer n/2, scales the rest by pi_fixed at wp bits and calls
    cos_sin_basecase, and each result is truncated toward zero to prec
    bits, as from_man_exp rounds it, and floored to bits, as to_fixed does.
    wp = prec + 10 - mag, mag = bitcount(rest) + its exponent, with libmp's
    own bitcount: on the python backend it gives 0 for a negative rest (x
    just below a half-integer), so there wp is about 2 prec, and so it is
    here.  num = 0, a half-integer x and a tiny x take the literal call.

    Memoised: callers pass num/den in lowest terms, so each distinct phase
    is evaluated once per bits.  from_rational rounds correctly, so an
    unreduced twin of a phase would give the same integers."""
    prec = bits + 8
    a = abs(num)
    if a:
        t = prec - a.bit_length() + den.bit_length()
        q = (a << t) // den if t >= 0 else a // (den << -t)
        if q >> prec:
            q, t = q >> 1, t - 1
        z = (q & -q).bit_length() - 1
        man, exp = q >> z, z - t        # x = man 2^exp, man odd
    if not a or exp >= -1 or man.bit_length() + exp < -prec - 10:
        c, s = mpf_cos_sin_pi(from_rational(num, den, prec), prec)
        return to_fixed(c, bits), to_fixed(s, bits)
    n = ((man >> (-exp - 2)) + 1) >> 1
    man -= n << (-exp - 1)
    # exp + wp = prec + 10 - bitcount(man) >= 10, as |man| < 2^prec
    wp = prec + 10 - bitcount(man) - exp
    c, s = cos_sin_basecase((man << exp + wp) * pi_fixed(wp) >> wp, wp)
    c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[n & 3]
    out = []
    for v in (c, -s if num < 0 else s):
        # |v| < 2^(wp+2) and wp >= prec + 11, so wp - cut > bits and the
        # floor to bits is a right shift
        cut = max(abs(v).bit_length() - prec, 0)
        w = abs(v) >> cut
        out.append((-w if v < 0 else w) >> wp - cut - bits)
    return tuple(out)


# One table per (modulus, bits), read by both signs and every residue.
@lru_cache(maxsize=1024)
def _root_table(k: int, bits: int) -> tuple:
    """Real and imaginary parts of omega^j = exp(2 pi i j/k), j = 0..k-1,
    as two tuples of integers scaled by 2^bits.  The upper half mirrors the
    lower, omega^(k-j) = conj(omega^j), and shares its cosines."""
    gs = [math.gcd(2 * j, k) for j in range(k // 2 + 1)]
    low = [_fixed_cis(2 * j // g, k // g, bits) for j, g in enumerate(gs)]
    high = range(k // 2 + 1, k)
    return (tuple([c for c, _ in low] + [low[k - j][0] for j in high]),
            tuple([s for _, s in low] + [-low[k - j][1] for j in high]))


@lru_cache(maxsize=2048)
def _phase_vector(p: int, k: int, variant: str, m: int, wp: int) -> tuple:
    """The n-free part of one twisted sum at modulus k, in fixed point.

    Returns (bits, hs, re, im, sums): the units h mod k (where p | k, those
    in the class charsums._chi_class reads off variant), and z_h = exp(i pi
    phase) scaled by 2^bits, for the (h, phase) of charsums._twisted_phases.
    bits = wp + 16 + bitlen(len(hs)), the guard cyclo_to_complex adds for
    a sum of that many terms.  sums maps each residue r = -n mod k that
    _numeric_sum has met to its exact integer: at most k slots, which live
    and die with this bounded entry, and none for residues never asked.
    """
    residues = None if k % p else _chi_class(make_context(p), variant)
    den, pairs = _twisted_phases(p, variant, k, m, residues)
    bits = wp + 16 + len(pairs).bit_length()
    gs = [math.gcd(num, den) for _, num in pairs]
    cis = [_fixed_cis(num // g, den // g, bits)
           for (_, num), g in zip(pairs, gs)]
    return (bits, tuple(h for h, _ in pairs), tuple(c for c, _ in cis),
            tuple(s for _, s in cis), {})


def _numeric_sum(ctx: PrimeContext, k: int, n: int, m: int, variant: str,
                 wp: int) -> tuple:
    """Numeric sum over the units h of _phase_vector of z_h * omega^(-n h),
    as a raw mpf at wp bits.

    The sum is real (chi(-1) = 1 pairs h with -h), so only the real parts
    of the products of the fixed-point phases and roots are summed, as one
    exact integer rounded once to wp bits.  Each phase and root is within
    2^(0.6 - bits) of its true value, so each real part is within
    2^(1.6 - bits), and the real sum, with bits = wp + 16 + bitlen(terms),
    within 2^-(wp+14) before that rounding: the budget cyclo_to_complex
    gives the exact sum, which the tests compare against.  n enters only
    through r = -n mod k, so the integer is kept in the vector's slot r.
    """
    bits, hs, zre, zim, sums = _phase_vector(ctx.p, k, variant, m, wp)
    r = -n % k
    re = sums.get(r)
    if re is None:
        # omega_k^j = omega_2k^(2j): an odd k reads the table of 2k, so the
        # k and 2k terms of the series share one table
        M = k if k % 2 == 0 else 2 * k
        cre, cim = _root_table(M, bits)
        t = r * (M // k)
        # hs is ascending and closed under negation, so -h sits at the
        # mirrored position, and it reads root M - j, whose parts are
        # cre[j] and -cim[j]: each pair is one product per table part.  A
        # unit that is its own negative (k = 1 or 2) reads j = 0 or M/2,
        # where cim[j] = 0.
        half = len(hs) // 2
        re = 0
        for h, a, b, a2, b2 in zip(hs[:half], zre, zim, reversed(zre),
                                   reversed(zim)):
            j = t * h % M
            re += cre[j] * (a + a2) - cim[j] * (b - b2)
        if len(hs) % 2:
            re += zre[half] * cre[t * hs[half] % M]
        sums[r] = re
    return from_man_exp(re, -2 * bits, wp, "n")


@lru_cache(maxsize=2048)
def _weight(p: int, k: int, variant: str, prec: int) -> tuple:
    """lambda_k as a raw mpf, memoised: it does not depend on n.  It reads
    k only through k mod p and k mod 2, so the series asks for it at k mod
    2p: one weight per residue, 2(p - 1) per variant and precision,
    whatever k_max."""
    return lambda_k(make_context(p), k, variant, prec).value._mpf_


def c_sequence(ctx: PrimeContext) -> list:
    """The positive members of the arithmetic sequence weighting the p|k part.

    c_m = (1 - chi_2/4)*B2 - (p-1)/24 - 2m, kept while c_m > 0; exact
    rationals throughout.
    """
    _check_ctx(ctx)
    c0 = ((1 - Fraction(ctx.chi[2 % ctx.p], 4)) * ctx.b2
          - Fraction(ctx.p - 1, 24))
    # c_m > 0 exactly for the integers 0 <= m < c_0 / 2
    return [c0 - 2 * m for m in range(math.ceil(c0 / 2))]


def _mul(a: tuple, b: tuple, wp: int) -> tuple:
    return mpf_mul(a, b, wp, "n")


def _div(a: tuple, b: int, wp: int) -> tuple:
    return mpf_div(a, from_int(b), wp, "n")


def _term_moduli(p: int, k_max: int) -> list:
    """(d, mods) of each term prime to p, in summation order: odd k merged
    with 2k, over d = 2k, then the multiples of 4, each over d = k."""
    return ([(2 * k, (k, 2 * k)) for k in range(1, k_max + 1, 2) if k % p]
            + [(k, (k,)) for k in range(4, k_max + 1, 4) if k % p])


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")


class _SignHandoff:
    """A memo of per-n rows that both signs read, bounded by count.

    A row is built by the first reader that asks for its key and held until
    a reader of the other sign reads it, which takes it out; a re-read by
    the sign that built it keeps it.  Past maxsize rows the oldest is
    dropped.  cache_info and cache_clear are lru_cache's, so cache_stats
    reports it with the package's other memos, and __wrapped__ is the
    uncached builder.
    """

    def __init__(self, build, maxsize: int):
        self.__wrapped__ = build
        self.maxsize = maxsize
        self.cache_clear()

    def __call__(self, *key, reader):
        entry = self._rows.get(key)
        if entry is None:
            self.misses += 1
            row = self.__wrapped__(*key)
            if len(self._rows) >= self.maxsize:
                del self._rows[next(iter(self._rows))]
            self._rows[key] = (reader, row)
            return row
        self.hits += 1
        if entry[0] != reader:
            del self._rows[key]
        return entry[1]

    def cache_info(self):
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self._rows))

    def cache_clear(self) -> None:
        self._rows, self.hits, self.misses = {}, 0, 0


# Both signs evaluate each n, so a row waits here for the other sign.  A
# sweep that shuffles (sign, n) over n <= 130 holds at most about 71 rows
# at a time; suite_rademacher and acceptance criterion 5, which run one sign
# over n <= 200 and then the other, hold 200.  A one-sign pass over more n
# than the bound keeps the last maxsize rows, each O(k_max) mpfs (about
# 8.6 KiB at k_max = 60).
@partial(_SignHandoff, maxsize=256)
def _series_row(p: int, n: int, k_max: int, wp: int) -> tuple:
    """The factors of the series terms at n that the sign does not enter,
    as raw mpfs at wp bits: (prefac, bessels, odd).

    prefac = kappa/(2 sqrt(n~)); bessels holds I_1(kappa sqrt(n~)/d) for
    each (d, mods) of _term_moduli; odd holds (K, m, C_{K,m}, I_1(2 pi
    sqrt(c_m) sqrt(n~)/K)) for each odd multiple K of p and each m with
    sigma_m != 0, where C_{K,m} = 2 pi sigma_m sqrt(c_m)/(2K)/sqrt(n~).
    The per-n constants (kappa*sqrt(n~), 2*pi, each sqrt(c_m) and their
    products) are computed once, each by the call and association the terms
    always used, so no bit moves.
    """
    ctx = make_context(p)
    cms = c_sequence(ctx)
    sig = sigma_coeffs(ctx, 1, len(cms) - 1)
    with mp.workprec(wp):
        sqrt_nt = mp.sqrt(to_mpf(Fraction(24 * n + p - 1, 24)))
        kappa = mp.pi * mp.sqrt(to_mpf(ctx.kappa_sq))
        prefac = (kappa / (2 * sqrt_nt))._mpf_
        twopi = (2 * mp.pi)._mpf_
        sqrt_nt, kappa = sqrt_nt._mpf_, kappa._mpf_
        scms = [mp.sqrt(to_mpf(cm))._mpf_ for cm in cms]
    ks = _mul(kappa, sqrt_nt, wp)
    bessels = tuple(_bessel_i1_mpf(_div(ks, d, wp), wp)
                    for d, _ in _term_moduli(p, k_max))
    ms = [(m, _mul(mpf_mul_int(twopi, sig[m], wp, "n"), scm, wp),
           _mul(_mul(twopi, scm, wp), sqrt_nt, wp))
          for m, scm in enumerate(scms) if sig[m]]
    odd = tuple((K, m, mpf_div(_div(coef, 2 * K, wp), sqrt_nt, wp, "n"),
                 _bessel_i1_mpf(_div(arg, K, wp), wp))
                for K in range(p, k_max + 1, 2 * p) for m, coef, arg in ms)
    return prefac, bessels, odd


def _series_terms(ctx: PrimeContext, variant: str, n: int, k_max: int,
                  wp: int):
    """Yield the terms of the series at n as raw mpfs, in summation order.

    Each is what mpf objects computed, call for call: mpf_mul, mpf_mul_int
    and mpf_div at wp bits, rounding to nearest, in the same association.
    The factors the sign does not enter come from the row of _series_row,
    which the other sign at the same n reads too; only the weights and the
    sums are the variant's.
    """
    p = ctx.p
    prefac, bessels, odd = _series_row(p, n, k_max, wp, reader=variant)
    for (d, mods), bessel in zip(_term_moduli(p, k_max), bessels):
        piece = fzero
        for j in mods:
            piece = mpf_add(piece, _mul(
                _weight(p, j % (2 * p), variant, wp),
                _numeric_sum(ctx, j, n, 0, variant, wp), wp), wp, "n")
        yield _mul(_div(_mul(prefac, piece, wp), d, wp), bessel, wp)
    # odd multiples K of p: L_plus (plain) or L_dagger_minus (dagger), each
    # over its own character class, for each m with sigma_m != 0
    for K, m, coef, bessel in odd:
        yield _mul(_mul(coef, _numeric_sum(ctx, K, n, m, variant, wp), wp),
                   bessel, wp)


def rademacher_eval(ctx: PrimeContext, sign: int, n: int,
                    cfg: SeriesEvalConfig) -> RademacherResult:
    """Partial sum of the convergent series for one signed partition count.

    Three sub-series: odd k coprime to the prime merged with the matching
    2k term, the multiples of 4 prime to p, and the odd multiples of p where
    the inner m-sum runs over c_m > 0 with the even-split product
    coefficients as weights.  Everything runs in real arithmetic at wp =
    precision + 32 bits: chi(-1) = 1 makes each exponential sum real, and
    each is one real sum from the per-modulus fixed-point tables, within
    2^-(wp+14) of its exact value before one rounding to wp bits, kept per
    residue -n mod k.  lambda_k is memoised per (p, k mod 2p, variant,
    wp), and the sign-free factors of the terms per n (_series_row), so
    the two signs at one n share them.  n~ = n + (p-1)/24 stays rational
    until the final square root.
    The terms (_series_terms) are summed as raw mpf tuples by mpf_add at wp
    bits, bit for bit what mpf objects gave; each Bessel argument is
    already a wp-bit mpf, which arith._bessel_i1_mpf reads as bessel_i1
    would after rounding.

    All three sub-series carry a factor 2*pi on top of the source display:
    the contour-integral step there evaluates a closed loop against
    d(phase), which contributes 2*pi*i, and the printed formulae keep only
    the i.  Without the factor the partial sums converge to the oracle
    values divided by 2*pi; with it they round to the exact integers.
    """
    _check_ctx(ctx)
    _check_choice("sign", sign, _SIGNS)
    _check_choice("ctx.p", ctx.p, SERIES_PRIMES)
    _check_int("n", n, 1)
    if not isinstance(cfg, SeriesEvalConfig):
        raise ValueError(f"cfg must be a SeriesEvalConfig, got {cfg!r}")
    variant = "plain" if sign == 1 else "dagger"
    prec = cfg.precision
    wp = prec + 32
    raw = fzero
    for term in _series_terms(ctx, variant, n, cfg.k_max, wp):
        raw = mpf_add(raw, term, wp, "n")
    with mp.workprec(wp):
        raw = mp.make_mpf(raw)
        rounded = int(mp.nint(raw))
        dist = abs(raw - rounded)
    with mp.workprec(prec):
        return RademacherResult(n, HPReal(+raw, prec), rounded,
                                HPReal(+dist, prec), cfg.k_max)
