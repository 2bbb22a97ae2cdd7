"""Call tracing for the traced benchmark run, installed from outside the package.

Each traced function is replaced by a wrapper in every ``legpart`` module
namespace (and every module-level dict, such as the CLI's suite registry)
that holds a reference to it, because the package calls most functions by a
name imported into the calling module.  Spans are not kept one per call:
they are aggregated by (name, parent name), which is enough to derive self
time and stays small however many calls a workload makes.
"""

import functools
import sys
import time

# (module, attribute) of every traced function, with its span name.
TARGETS = (
    ("legpart.context", "make_context", "context.make_context"),
    ("legpart.dedekind", "dedekind_s", "dedekind.dedekind_s"),
    ("legpart.dedekind", "dedekind_s_chi", "dedekind.dedekind_s_chi"),
    ("legpart.charsums", "lambda_exponent", "charsums.lambda_exponent"),
    ("legpart.charsums", "lambda_k", "charsums.lambda_k"),
    ("legpart.charsums", "phi_root", "charsums.phi_root"),
    ("legpart.charsums", "kloosterman_L", "charsums.kloosterman_L"),
    ("legpart.charsums", "kloosterman_L_plus", "charsums.kloosterman_L_plus"),
    ("legpart.charsums", "kloosterman_L_nmd", "charsums.kloosterman_L_nmd"),
    ("legpart.charsums", "kloosterman_dagger", "charsums.kloosterman_dagger"),
    ("legpart.charsums", "check_congruence_mod16", "charsums.check_congruence_mod16"),
    ("legpart.charsums", "check_congruence_modThK", "charsums.check_congruence_modThK"),
    ("legpart.arith", "cyclo_to_complex", "arith.cyclo_to_complex"),
    ("legpart.arith", "bessel_i1", "arith.bessel_i1"),
    ("legpart.arith", "cyclo_from_phases", "arith.cyclo_from_phases"),
    ("legpart.arith", "cyclo_is_zero", "arith.cyclo_is_zero"),
    ("legpart.series", "rademacher_eval", "series.rademacher_eval"),
    ("legpart.series", "verify_functional_equation", "series.verify_functional_equation"),
    ("legpart.series", "oracle_table", "series.oracle_table"),
    ("legpart.series", "scan_vanishing", "series.scan_vanishing"),
)


def _cyclo_terms(s, *args, **kwargs):
    """Nonzero coefficients of a CyclotomicSum: one expjpi call each."""
    return sum(1 for c in s.coeffs if c)


def _oracle_adds(ctx, sign, n_max, *args, **kwargs):
    """Big-int additions oracle_table makes: n_max - base + 1 per factor."""
    p = ctx.p
    return sum(n_max - base + 1
               for a in range(1, p) for base in range(a, n_max + 1, p))


# Work counts taken from a call's arguments, outside the timed span.
COUNTERS = {
    "arith.cyclo_to_complex": ("arith.cyclo_to_complex.terms", _cyclo_terms),
    "series.oracle_table": ("series.oracle_table.adds", _oracle_adds),
}


class Tracer:
    """Wraps TARGETS and the CLI suites, and aggregates their spans."""

    def __init__(self):
        self.spans = {}      # (name, parent) -> [calls, total_s, self_s]
        self.counts = {}     # counter name -> total
        self._stack = []     # [name, time covered by child spans]
        self._swaps = []     # (original, wrapper)

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                key, count = counter
                counts[key] = counts.get(key, 0) + count(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        return traced

    def install(self):
        pairs = [(getattr(sys.modules[mod], attr), name) for mod, attr, name in TARGETS]
        cli = sys.modules["legpart.cli"]
        pairs += [(fn, f"cli.suite.{suite}")
                  for suite, fn in cli.SUITE_RUNNERS.items()]
        self._swaps = [(fn, self._wrap(name, fn)) for fn, name in pairs]
        _rebind({id(a): b for a, b in self._swaps})

    def uninstall(self):
        _rebind({id(b): a for a, b in self._swaps})
        self._swaps = []

    def report(self):
        """Spans as [name, parent, calls, total_s, self_s] rows."""
        return [[name, parent, *rec] for (name, parent), rec in self.spans.items()]


def _rebind(mapping):
    """Replace every reference held by a legpart module namespace, or by a
    dict at module level, to an object whose id is a key of mapping."""
    for modname, mod in list(sys.modules.items()):
        if modname != "legpart" and not modname.startswith("legpart."):
            continue
        space = vars(mod)
        for attr, val in list(space.items()):
            if id(val) in mapping:
                space[attr] = mapping[id(val)]
            elif type(val) is dict:
                for key, item in list(val.items()):
                    if id(item) in mapping:
                        val[key] = mapping[id(item)]
