"""Command-line front end: oracle tables, verification suites, vanishing scans.

    legpart oracle --p 17 --sign + --n-max 100 --format csv --out table.csv
    legpart verify --suite rademacher --scale quick
    legpart scan --p-min 5 --p-max 41 --sign + --n-max 5000

verify prints one line per check, writes a JSON report (schema 1), and
exits 0 when everything passed, 1 if any check failed, 2 on usage errors,
3 when the only non-passes were inconclusive (a numeric comparison whose
truncation tail swamped the tolerance; rerun with more precision), 4 when
the report cannot be written.  oracle and scan exit 1 when they cannot write
their output.  Table outputs are deterministic -- identical flags give
byte-identical bytes; timestamps live only in the verify report wrapper.
"""

import argparse
import json
import sys
import time
from datetime import datetime, timezone

from .context import _is_prime, make_context
from .series import oracle_table, scan_vanishing
from .verify import SERIES_PRIMES, SUITE_RUNNERS


# ---------------------------------------------------------------------------
# table formatting (oracle, scan)
# ---------------------------------------------------------------------------

def format_oracle_csv(table) -> str:
    lines = ["n,value"]
    lines.extend(f"{n},{v}" for n, v in enumerate(table.values))
    return "\n".join(lines) + "\n"


def format_oracle_json(table) -> str:
    doc = {
        "schema": 1,
        "kind": "oracle",
        "p": table.p,
        "sign": "+" if table.sign == 1 else "-",
        # values as strings so arbitrarily large integers survive any
        # down-stream JSON parser unharmed
        "rows": [[n, str(v)] for n, v in enumerate(table.values)],
    }
    return json.dumps(doc, separators=(",", ":")) + "\n"


def format_scan_csv(rows) -> str:
    lines = ["p,vanishing_residues_mod_2p"]
    for p, residues in rows:
        lines.append(f"{p}," + " ".join(str(r) for r in residues))
    return "\n".join(lines) + "\n"


def _write(path, text) -> bool:
    """Write text to the file path; False after reporting that it cannot."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return False
    return True


def _emit(path, text) -> int:
    """Write text to path, or to stdout for None and "-".  Returns the exit
    code: 0, or 1 after reporting a path that cannot be written."""
    if path in (None, "-"):
        sys.stdout.write(text)
        return 0
    return 0 if _write(path, text) else 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_oracle(args) -> int:
    ctx = make_context(args.p)
    sign = 1 if args.sign == "+" else -1
    table = oracle_table(ctx, sign, args.n_max)
    return _emit(args.out, format_oracle_csv(table) if args.format == "csv"
                 else format_oracle_json(table))


def cmd_scan(args) -> int:
    if args.p_min > args.p_max:
        raise ValueError(f"--p-min {args.p_min} is above --p-max {args.p_max}")
    sign = 1 if args.sign == "+" else -1
    # the scan of p runs over n from max(2p, 50) to --n-max; check the
    # largest prime's context and start before scanning anything
    starts = [(p, max(2 * p, 50)) for p in range(args.p_min, args.p_max + 1)
              if p % 4 == 1 and _is_prime(p)]
    if starts:
        p, start = starts[-1]
        make_context(p)
        if args.n_max < start:
            raise ValueError(f"--n-max must be at least {start} to scan p = {p}")
    rows = []
    for p, start in starts:
        found = scan_vanishing(make_context(p), sign, 2 * p, start, args.n_max)
        rows.append((p, sorted(found)))
    return _emit(args.out, format_scan_csv(rows))


def cmd_verify(args) -> int:
    names = list(SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    t0 = time.monotonic()
    checks = []
    for name in names:
        checks.extend(SUITE_RUNNERS[name](args.scale))
    elapsed = time.monotonic() - t0

    for c in checks:
        print(f"[{c['status']:>12}] {c['id']}: {c['witness']}")
    counts = {s: sum(1 for c in checks if c["status"] == s)
              for s in ("pass", "fail", "inconclusive")}
    print(f"suite={args.suite} scale={args.scale}: "
          f"{counts['pass']} pass, {counts['fail']} fail, "
          f"{counts['inconclusive']} inconclusive ({elapsed:.1f}s)")

    report = {
        "schema": 1,
        "suite": args.suite,
        "checks": checks,
        "started": started,
        "elapsed": round(elapsed, 3),
        "config": {
            "scale": args.scale,
            "series_primes": list(SERIES_PRIMES),
        },
    }
    if not _write(args.report, json.dumps(report, indent=2) + "\n"):
        return 4

    if counts["fail"]:
        return 1
    if counts["inconclusive"]:
        return 3
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="legpart",
        description="signed partition tables, verification suites, scans")
    sub = ap.add_subparsers(dest="command", required=True)

    o = sub.add_parser("oracle", help="write an exact coefficient table")
    o.add_argument("--p", type=int, required=True)
    o.add_argument("--sign", choices=("+", "-"), required=True)
    o.add_argument("--n-max", type=int, required=True)
    o.add_argument("--format", choices=("csv", "json"), default="csv")
    o.add_argument("--out", default=None, help="output path (default stdout)")
    o.set_defaults(fn=cmd_oracle)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", choices=(*SUITE_RUNNERS, "all"),
                   default="all")
    v.add_argument("--scale", choices=("quick", "full"), default="quick")
    v.add_argument("--report", default="legpart_report.json",
                   help="JSON report path")
    v.set_defaults(fn=cmd_verify)

    s = sub.add_parser("scan", help="scan primes for vanishing residue classes")
    s.add_argument("--p-min", type=int, required=True)
    s.add_argument("--p-max", type=int, required=True)
    s.add_argument("--sign", choices=("+", "-"), default="+")
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--out", default=None, help="output path (default stdout)")
    s.set_defaults(fn=cmd_scan)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
