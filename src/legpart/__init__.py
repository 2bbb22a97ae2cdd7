"""Exact and high-precision tools for Legendre-signed partition counts.

For a prime p = 1 (mod 4) and either choice of sign, the weight f(m) =
sign * (m|p) (Legendre symbol, and f = 0 on multiples of p) defines signed
partition counts through the product

    prod_{m >= 1, p !| m} (1 - f(m) x^m)^(-1) = 1 + sum_{n >= 1} c(n) x^n.

This package computes the c(n) exactly, evaluates the matching
Rademacher-style convergent series, and machine-checks the identities the
series rests on: Dedekind-sum reciprocity, character-twisted variants, phase
congruences, residue-class parity counts, modular transformation formulas,
and the exact vanishing of the Kloosterman-type coefficient sums that force
c(n) = 0 on arithmetic progressions.
"""

from .arith import (
    CyclotomicSum,
    HPComplex,
    HPReal,
    OrderCapError,
    bessel_i1,
    cyclo_add,
    cyclo_from_phases,
    cyclo_is_zero,
    cyclo_to_complex,
    sawtooth,
)
from .charsums import (
    check_congruence_mod16,
    check_congruence_modThK,
    kloosterman_L,
    kloosterman_L_nmd,
    kloosterman_L_plus,
    kloosterman_dagger,
    lambda_exponent,
    lambda_k,
    tau_count,
    verify_tau_table,
)
from .context import PrimeContext, QConstants, legendre, make_context, q_constants
from .dedekind import (
    dedekind_s,
    dedekind_s_chi,
    dedekind_s_tilde,
    dedekind_t,
    dedekind_t_chi,
    lattice_floor_sum,
    verify_reciprocity_chi,
    verify_reciprocity_classical,
)
from .series import (
    InconclusiveError,
    RademacherResult,
    SeriesEvalConfig,
    SignedPartitionTable,
    c_sequence,
    oracle_table,
    q_pochhammer,
    rademacher_eval,
    scan_vanishing,
    sigma_coeffs,
    theta_products,
    verify_functional_equation,
)


def cache_stats() -> dict:
    """Size, bound, hits and misses of every lru_cache in legpart, keyed
    "module.function": what the process-global caches hold at this point,
    so that a run can explain where its time went.  The modules are
    scanned, so a cache added to any of them is reported."""
    import importlib
    import pkgutil

    stats = {}
    for info in pkgutil.iter_modules(__path__):
        mod = importlib.import_module(f"{__name__}.{info.name}")
        for name, obj in vars(mod).items():
            if (hasattr(obj, "cache_info")
                    and obj.__module__ == mod.__name__):
                ci = obj.cache_info()
                stats[f"{info.name}.{name}"] = {
                    "size": ci.currsize, "maxsize": ci.maxsize,
                    "hits": ci.hits, "misses": ci.misses}
    return stats


__all__ = [
    "CyclotomicSum",
    "HPComplex",
    "HPReal",
    "InconclusiveError",
    "OrderCapError",
    "PrimeContext",
    "QConstants",
    "RademacherResult",
    "SeriesEvalConfig",
    "SignedPartitionTable",
    "bessel_i1",
    "c_sequence",
    "cache_stats",
    "check_congruence_mod16",
    "check_congruence_modThK",
    "cyclo_add",
    "cyclo_from_phases",
    "cyclo_is_zero",
    "cyclo_to_complex",
    "dedekind_s",
    "dedekind_s_chi",
    "dedekind_s_tilde",
    "dedekind_t",
    "dedekind_t_chi",
    "kloosterman_L",
    "kloosterman_L_nmd",
    "kloosterman_L_plus",
    "kloosterman_dagger",
    "lambda_exponent",
    "lambda_k",
    "lattice_floor_sum",
    "legendre",
    "make_context",
    "oracle_table",
    "q_constants",
    "q_pochhammer",
    "rademacher_eval",
    "sawtooth",
    "scan_vanishing",
    "sigma_coeffs",
    "tau_count",
    "theta_products",
    "verify_functional_equation",
    "verify_reciprocity_chi",
    "verify_reciprocity_classical",
    "verify_tau_table",
]
