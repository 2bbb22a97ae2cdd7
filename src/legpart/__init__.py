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

from . import arith, charsums, context, dedekind, series
from .arith import *
from .charsums import *
from .context import *
from .dedekind import *
from .series import *


def cache_stats() -> dict:
    """Size, bound, hits and misses of every memo in legpart (each
    lru_cache, and series._series_row, which keeps lru_cache's cache_info),
    keyed "module.function": what the process-global caches hold at this
    point, so that a run can explain where its time went.  The modules are
    scanned, so a cache added to any of them is reported."""
    import importlib
    import pkgutil

    stats = {}
    for info in pkgutil.iter_modules(__path__):
        mod = importlib.import_module(f"{__name__}.{info.name}")
        for name, obj in vars(mod).items():
            if (hasattr(obj, "cache_info") and not isinstance(obj, type)
                    and obj.__module__ == mod.__name__):
                ci = obj.cache_info()
                stats[f"{info.name}.{name}"] = {
                    "size": ci.currsize, "maxsize": ci.maxsize,
                    "hits": ci.hits, "misses": ci.misses}
    return stats


__all__ = [*arith.__all__, *context.__all__, *dedekind.__all__,
           *charsums.__all__, *series.__all__, "cache_stats"]
