"""Exact generating-function oracle and the numeric series machinery.

The oracle side is pure integer arithmetic: dense convolution against
geometric factors, one factor per admissible exponent.  The numeric side
(q-Pochhammer products, transformation checks, series evaluation) runs on
mpmath at a caller-chosen precision and reuses the exact phase and sum
objects from charsums.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .arith import (HPComplex, HPReal, bessel_i1, cyclo_to_complex,
                    default_precision, to_mpf)
from .charsums import (kloosterman_dagger, kloosterman_L, kloosterman_L_plus,
                       lambda_exponent, lambda_k)
from .context import PrimeContext

_SIGNS = (1, -1)

THETA_FAMILIES = ("R+", "R-", "S+", "S-", "T+", "T-", "U+", "U-",
                  "F_r", "F_s", "G_r", "G_s", "Phi", "PhiDagger")

FEQ_CASES = ("2p", "p", "2", "1")


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
        if not isinstance(self.k_max, int) or self.k_max < 1:
            raise ValueError("k_max must be a positive integer")
        if not isinstance(self.precision, int) or self.precision < 8:
            raise ValueError("precision must be an integer >= 8")


@dataclass(frozen=True)
class RademacherResult:
    """One evaluated series value and how far it sat from an integer."""

    n: int
    raw: HPReal
    rounded: int
    distance_to_integer: HPReal
    k_max: int


def _check_sign(sign: int) -> None:
    if sign not in _SIGNS:
        raise ValueError("sign must be +1 or -1")


# ---------------------------------------------------------------------------
# exact oracle
# ---------------------------------------------------------------------------

def oracle_table(ctx: PrimeContext, sign: int, n_max: int,
                 rng: random.Random | None = None) -> SignedPartitionTable:
    """Exact coefficients of the signed-partition generating function.

    Expands the product of (1 - sign*chi_a*x^(a+jp))^(-1) over all exponents
    a+jp <= n_max by folding one geometric factor at a time into a dense
    integer array.  The result does not depend on the fold order; passing a
    seeded rng shuffles the factor list, which tests use to confirm that.
    """
    _check_sign(sign)
    if not isinstance(n_max, int) or n_max < 1:
        raise ValueError("n_max must be a positive integer")
    p = ctx.p
    factors = []
    for a in range(1, p):
        c = sign * ctx.chi[a]
        base = a
        while base <= n_max:
            factors.append((base, c))
            base += p
    if rng is not None:
        rng.shuffle(factors)
    values = [0] * (n_max + 1)
    values[0] = 1
    for base, c in factors:
        # values *= (1 - c x^base)^(-1), i.e. w[i] = v[i] + c*w[i-base]
        if c == 1:
            for i in range(base, n_max + 1):
                values[i] += values[i - base]
        else:
            for i in range(base, n_max + 1):
                values[i] -= values[i - base]
    return SignedPartitionTable(p, sign, tuple(values))


def scan_vanishing(ctx: PrimeContext, sign: int, modulus: int,
                   n_min: int, n_max: int) -> set:
    """Residues mod modulus whose whole class vanishes on [n_min, n_max].

    The oracle table is built once.  A residue only qualifies if the range
    actually contains members of its class; an empty class is no evidence.
    """
    if not isinstance(modulus, int) or modulus < 1:
        raise ValueError("modulus must be a positive integer")
    if not isinstance(n_min, int) or n_min < 1 or n_max < n_min:
        raise ValueError("need 1 <= n_min <= n_max")
    table = oracle_table(ctx, sign, n_max)
    seen = [False] * modulus
    alive = [True] * modulus
    for n in range(n_min, n_max + 1):
        r = n % modulus
        seen[r] = True
        if table.values[n] != 0:
            alive[r] = False
    return {r for r in range(modulus) if seen[r] and alive[r]}


def sigma_coeffs(ctx: PrimeContext, sign: int, m_max: int) -> list:
    """Exact series coefficients of the even/odd-split product pair S^+/S^-.

    Both variants are products of plain inverse factors (1 - x^e)^(-1) with
    exponent families read off the two residue classes: the favoured class
    contributes 2a and 2p-2a mod 2p, the other contributes p+2a and p-2a.
    """
    _check_sign(sign)
    if not isinstance(m_max, int) or m_max < 0:
        raise ValueError("m_max must be a nonnegative integer")
    p = ctx.p
    even_set = ctx.r_set if sign == 1 else ctx.s_set
    odd_set = ctx.s_set if sign == 1 else ctx.r_set
    exps = []
    for a in even_set:
        exps.extend((2 * a, 2 * p - 2 * a))
    for a in odd_set:
        exps.extend((p + 2 * a, p - 2 * a))
    values = [0] * (m_max + 1)
    values[0] = 1
    for e in exps:
        base = e
        while base <= m_max:
            for i in range(base, m_max + 1):
                values[i] += values[i - base]
            base += 2 * p
    return values


# ---------------------------------------------------------------------------
# numeric products
# ---------------------------------------------------------------------------

def _as_mpc(x):
    if isinstance(x, (HPComplex, HPReal)):
        return mp.mpc(x.value)
    if isinstance(x, Fraction):
        return mp.mpc(to_mpf(x))
    return mp.mpc(x)


def _carried_prec(*xs) -> int:
    precs = [x.prec for x in xs if isinstance(x, (HPReal, HPComplex))]
    return max(precs) if precs else default_precision()


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


def _poch_partial(z, q, truncation: int):
    """Partial product prod_{j<N} (1 - z q^j) and its _poch_tail_bound."""
    val = mp.mpc(1)
    zq = mp.mpc(z)
    for _ in range(truncation):
        val *= (1 - zq)
        zq *= q
    return val, _poch_tail_bound(z, q, truncation)


def q_pochhammer(z, q, truncation: int) -> HPComplex:
    """Truncated (z;q)-product: prod_{j<truncation} (1 - z q^j).

    Needs |q| < 1; see q_pochhammer_tail for the matching tail bound.
    """
    if truncation < 0:
        raise ValueError("truncation must be nonnegative")
    prec = _carried_prec(z, q)
    with mp.workprec(prec + 16):
        zz, qq = _as_mpc(z), _as_mpc(q)
        if abs(qq) >= 1:
            raise ValueError("q must satisfy |q| < 1")
        val, _ = _poch_partial(zz, qq, truncation)
    with mp.workprec(prec):
        return HPComplex(+val, prec)


def q_pochhammer_tail(z, q, truncation: int) -> HPReal:
    """Relative error bound matching q_pochhammer at the same arguments."""
    prec = _carried_prec(z, q)
    with mp.workprec(prec + 16):
        zz, qq = _as_mpc(z), _as_mpc(q)
        if abs(qq) >= 1:
            raise ValueError("q must satisfy |q| < 1")
        bound = _poch_tail_bound(zz, qq, truncation)
    with mp.workprec(prec):
        return HPReal(+bound, prec)


def _theta_pairs(ctx: PrimeContext, family: str, x):
    """(z, q) arguments of the inverse Pochhammer factors of one family."""
    p = ctx.p
    pairs = []
    if family in ("Phi", "PhiDagger"):
        flip = 1 if family == "Phi" else -1
        xp = x ** p
        for a in range(1, p):
            pairs.append((flip * ctx.chi[a] * x ** a, xp))
    elif family in ("F_r", "F_s", "G_r", "G_s"):
        members = ctx.r_set if family.endswith("r") else ctx.s_set
        sgn = 1 if family.startswith("F") else -1
        xp = x ** p
        for a in members:
            pairs.append((sgn * x ** a, xp))
            pairs.append((sgn * x ** (p - a), xp))
    elif family in ("R+", "R-"):
        sgn = 1 if family == "R+" else -1
        xp = x ** p
        for a in ctx.r_set:
            pairs.append((sgn * x ** a, xp))
            pairs.append((sgn * x ** (p - a), xp))
        for a in ctx.s_set:
            pairs.append((-sgn * x ** a, xp))
            pairs.append((-sgn * x ** (p - a), xp))
    elif family in ("S+", "S-"):
        x2p = x ** (2 * p)
        even_set = ctx.r_set if family == "S+" else ctx.s_set
        odd_set = ctx.s_set if family == "S+" else ctx.r_set
        for a in even_set:
            pairs.append((x ** (2 * a), x2p))
            pairs.append((x ** (2 * p - 2 * a), x2p))
        for a in odd_set:
            pairs.append((x ** (p + 2 * a), x2p))
            pairs.append((x ** (p - 2 * a), x2p))
    elif family in ("T+", "T-"):
        sgn = 1 if family == "T+" else -1
        for a in ctx.r_set:
            w = mp.expjpi(mp.mpf(2 * a) / p)
            pairs.append((sgn * w * x, x))
            pairs.append((sgn * mp.conj(w) * x, x))
        for a in ctx.s_set:
            w = mp.expjpi(mp.mpf(2 * a) / p)
            pairs.append((-sgn * w * x, x))
            pairs.append((-sgn * mp.conj(w) * x, x))
    elif family in ("U+", "U-"):
        x2 = x * x
        sq_set = ctx.r_set if family == "U+" else ctx.s_set
        lin_set = ctx.s_set if family == "U+" else ctx.r_set
        for a in sq_set:
            w = mp.expjpi(mp.mpf(2 * a) / p)
            pairs.append((w * x2, x2))
            pairs.append((mp.conj(w) * x2, x2))
        for a in lin_set:
            w = mp.expjpi(mp.mpf(2 * a) / p)
            pairs.append((w * x, x2))
            pairs.append((mp.conj(w) * x, x2))
    else:
        raise ValueError(f"unknown product family: {family}")
    return pairs


def _theta_value(ctx: PrimeContext, family: str, x, truncation: int):
    """Numeric product of inverse Pochhammers plus a summed tail bound."""
    value = mp.mpc(1)
    tail = mp.mpf(0)
    for z, q in _theta_pairs(ctx, family, x):
        part, bound = _poch_partial(z, q, truncation)
        value /= part
        tail += bound
    return value, tail


def theta_products(ctx: PrimeContext, family: str, x,
                   truncation: int) -> HPComplex:
    """Evaluate one of the named infinite-product families, truncated.

    Families: R+/R- and S+/S- are the residue-class split products, T+/T- and
    U+/U- the root-of-unity twisted ones, F_r/F_s/G_r/G_s the plain and
    sign-alternating class products, Phi and PhiDagger the two full
    generating functions.  Requires |x| < 1.
    """
    if family not in THETA_FAMILIES:
        raise ValueError(f"unknown product family: {family}")
    if truncation < 1:
        raise ValueError("truncation must be positive")
    prec = _carried_prec(x)
    with mp.workprec(prec + 24):
        xx = _as_mpc(x)
        if abs(xx) >= 1:
            raise ValueError("theta products need |x| < 1")
        value, _ = _theta_value(ctx, family, xx, truncation)
    with mp.workprec(prec):
        return HPComplex(+value, prec)


# ---------------------------------------------------------------------------
# transformation checks
# ---------------------------------------------------------------------------

def _feq_case_of(ctx: PrimeContext, k: int) -> str:
    g = math.gcd(k, 2 * ctx.p)
    return {1: "1", 2: "2", ctx.p: "p", 2 * ctx.p: "2p"}[g]


def verify_functional_equation(ctx: PrimeContext, case: str, h: int, k: int,
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
    if case not in FEQ_CASES:
        raise ValueError(f"unknown case tag: {case}")
    if variant not in ("plain", "dagger"):
        raise ValueError(f"unknown variant: {variant}")
    if not (0 < h <= k):
        raise ValueError("need 0 < h <= k")
    if math.gcd(h, k) != 1:
        raise ValueError("h and k must be coprime")
    if _feq_case_of(ctx, k) != case:
        raise ValueError(f"k={k} does not fall in case {case}")
    prec = default_precision() if precision is None else precision
    p, q = ctx.p, ctx.q
    chi_h = ctx.chi[h % p]
    chi_k = ctx.chi[k % p]
    with mp.workprec(prec + 32):
        zz = _as_mpc(z)
        if mp.re(zz) <= 0:
            raise ValueError("need Re z > 0")
        xx = mp.expjpi(mp.mpf(2 * h) / k) * mp.exp(-2 * mp.pi * zz / k)
        if abs(xx) >= 1:
            raise ValueError("the base point must satisfy |x| < 1")
        lhs_family = "Phi" if variant == "plain" else "PhiDagger"
        lhs, lhs_tail = _theta_value(ctx, lhs_family, xx, truncation)

        pref = mp.pi * q / (6 * k)
        lam = mp.mpf(1)
        if case == "2p":
            hbar = pow(h, -1, k)
            xt = mp.expjpi(mp.mpf(-2 * hbar) / k) * mp.exp(-2 * mp.pi / (k * zz))
            psi = pref * (-1 / zz + zz)
            fam = "R+" if chi_h == 1 else "R-"
            if variant == "dagger":
                fam = "R-" if chi_h == 1 else "R+"
        elif case == "p":
            inv2h = pow(2 * h, -1, k)
            xt = mp.expjpi(mp.mpf(-2 * inv2h) / k) * mp.exp(-mp.pi / (k * zz))
            coef = Fraction(3, q) * chi_h * (1 - Fraction(ctx.chi[2], 4)) * ctx.b2
            if variant == "dagger":
                coef = -coef
            psi = pref * ((to_mpf(coef) - mp.mpf(1) / 4) / zz + zz)
            if variant == "plain":
                fam = "S+" if chi_h == 1 else "S-"
            else:
                fam = "S+" if chi_h == -1 else "S-"
        elif case == "2":
            K = k * p
            Hbar = pow(h * p % k, -1, k)
            xt = mp.expjpi(mp.mpf(-2 * Hbar) / k) * mp.exp(-2 * mp.pi / (K * zz))
            psi = pref * (mp.mpf(1) / p / zz + zz)
            lam = lambda_k(ctx, k, variant, prec + 32).value
            fam = "T+" if chi_k == 1 else "T-"
            if variant == "dagger":
                fam = "T-" if chi_k == 1 else "T+"
        else:
            K = k * p
            inv2H = pow(2 * h * p % k, -1, k) if k > 1 else 0
            xt = mp.expjpi(mp.mpf(-2 * inv2H) / k) * mp.exp(-mp.pi / (K * zz))
            psi = pref * (mp.mpf(1) / (4 * p) / zz + zz)
            lam = lambda_k(ctx, k, variant, prec + 32).value
            fam = "U+" if chi_k == 1 else "U-"
            if variant == "dagger":
                fam = "U-" if chi_k == 1 else "U+"
        if abs(xt) >= 1:
            raise ValueError("the transformed point must satisfy |x~| < 1")

        exponent = lambda_exponent(ctx, h, k, variant).value
        phi = mp.expjpi(to_mpf(exponent))
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

_L_CACHE: dict = {}


def _L_value(ctx: PrimeContext, kind: str, k: int, n: int, m: int | None,
             variant: str, prec: int):
    """Numeric value of one exact sum, cached by reduced arguments."""
    key = (ctx.p, kind, k, n % k, m, variant, prec)
    cached = _L_CACHE.get(key)
    if cached is None:
        if kind == "L":
            s = kloosterman_L(ctx, k, n, variant)
        elif kind == "L_plus":
            s = kloosterman_L_plus(ctx, k, n, m)
        else:
            s = kloosterman_dagger(ctx, k, n, m)
        cached = cyclo_to_complex(s.sum, prec).value
        _L_CACHE[key] = cached
    return cached


def c_sequence(ctx: PrimeContext) -> list:
    """The positive members of the arithmetic sequence weighting the p|k part.

    c_m = (1 - chi_2/4)*B2 - (p-1)/24 - 2m, kept while c_m > 0; exact
    rationals throughout.
    """
    chi2 = ctx.chi[2 % ctx.p]
    out = []
    m = 0
    while True:
        cm = (1 - Fraction(chi2, 4)) * ctx.b2 - Fraction(ctx.p - 1, 24) - 2 * m
        if cm <= 0:
            break
        out.append(cm)
        m += 1
    return out


def rademacher_eval(ctx: PrimeContext, sign: int, n: int,
                    cfg: SeriesEvalConfig) -> RademacherResult:
    """Partial sum of the convergent series for one signed partition count.

    Three sub-series: odd k coprime to the prime merged with the matching
    2k term, the multiples of 4 prime to p, and the odd multiples of p where
    the inner m-sum runs over c_m > 0 with the even-split product
    coefficients as weights.  Every exact sum goes through
    cyclo_to_complex at working precision; n~ = n + (p-1)/24 stays rational
    until the final square root.

    All three sub-series carry a factor 2*pi on top of the source display:
    the contour-integral step there evaluates a closed loop against
    d(phase), which contributes 2*pi*i, and the printed formulae keep only
    the i.  Without the factor the partial sums converge to the oracle
    values divided by 2*pi; with it they round to the exact integers.
    """
    _check_sign(sign)
    if ctx.p not in (5, 13, 17):
        raise ValueError("series evaluation is scoped to p in {5, 13, 17}")
    if not isinstance(n, int) or n < 1:
        raise ValueError("n must be a positive integer")
    variant = "plain" if sign == 1 else "dagger"
    p, k_max = ctx.p, cfg.k_max
    prec = cfg.precision
    wp = prec + 32
    cms = c_sequence(ctx)
    sig = sigma_coeffs(ctx, 1, len(cms) - 1)
    with mp.workprec(wp):
        ntilde = to_mpf(Fraction(24 * n + p - 1, 24))
        sqrt_nt = mp.sqrt(ntilde)
        kappa = mp.pi * mp.sqrt(to_mpf(ctx.kappa_sq))
        prefac = kappa / (2 * sqrt_nt)
        total = mp.mpc(0)
        for k in range(1, k_max + 1, 2):
            if k % p == 0:
                continue
            piece = (lambda_k(ctx, k, variant, wp).value
                     * _L_value(ctx, "L", k, n, None, variant, wp)
                     + lambda_k(ctx, 2 * k, variant, wp).value
                     * _L_value(ctx, "L", 2 * k, n, None, variant, wp))
            bess = bessel_i1(kappa * sqrt_nt / (2 * k), wp).value
            total += prefac * piece / (2 * k) * bess
        for k in range(4, k_max + 1, 4):
            if k % p == 0:
                continue
            piece = (lambda_k(ctx, k, variant, wp).value
                     * _L_value(ctx, "L", k, n, None, variant, wp))
            bess = bessel_i1(kappa * sqrt_nt / k, wp).value
            total += prefac * piece / k * bess
        kind = "L_plus" if variant == "plain" else "L_dagger_minus"
        for K in range(p, k_max + 1, 2 * p):
            for m, cm in enumerate(cms):
                if sig[m] == 0:
                    continue
                scm = mp.sqrt(to_mpf(cm))
                bess = bessel_i1(2 * mp.pi * scm * sqrt_nt / K, wp).value
                total += (2 * mp.pi * sig[m] * scm / (2 * K) / sqrt_nt
                          * _L_value(ctx, kind, K, n, m, variant, wp) * bess)
        raw = mp.re(total)
        rounded = int(mp.nint(raw))
        dist = abs(raw - rounded)
    with mp.workprec(prec):
        return RademacherResult(n, HPReal(+raw, prec), rounded,
                                HPReal(+dist, prec), k_max)
