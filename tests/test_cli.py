"""End-to-end checks of the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import legpart.cli as cli
from legpart.cli import format_oracle_csv, format_oracle_json, main
from legpart.context import _is_prime, make_context
from legpart.series import oracle_table

ROOT = Path(__file__).resolve().parents[1]


def parse_oracle_csv(text: str) -> list:
    """The values of an oracle CSV table, rows checked to run n = 0, 1, ..."""
    lines = text.strip().split("\n")
    if lines[0] != "n,value":
        raise ValueError("missing n,value header")
    out = []
    for i, line in enumerate(lines[1:]):
        n, v = line.split(",")
        if int(n) != i:
            raise ValueError(f"rows out of order at {n}")
        out.append(int(v))
    return out


def parse_oracle_json(text: str) -> list:
    """The values of an oracle JSON document (schema 1), rows checked to
    run n = 0, 1, ..."""
    doc = json.loads(text)
    if doc.get("schema") != 1:
        raise ValueError("unknown schema")
    out = []
    for i, (n, v) in enumerate(doc["rows"]):
        if n != i:
            raise ValueError(f"rows out of order at {n}")
        out.append(int(v))
    return out


def run_main(argv, capsys):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


def test_oracle_csv_example(capsys):
    rc, out = run_main(["oracle", "--p", "17", "--sign", "+",
                        "--n-max", "100", "--format", "csv"], capsys)
    assert rc == 0
    lines = out.split("\n")
    assert lines[0] == "n,value"
    assert len(lines) == 103  # header + 101 rows + trailing newline
    assert lines[1 + 17] == "17,0"
    assert out == out.encode("ascii").decode("ascii")
    assert "\r" not in out


def test_oracle_more_examples(capsys):
    rc, out = run_main(["oracle", "--p", "5", "--sign", "-",
                        "--n-max", "50"], capsys)
    assert rc == 0
    assert parse_oracle_csv(out)[6] == 0
    rc, out = run_main(["oracle", "--p", "13", "--sign", "+",
                        "--n-max", "1", "--format", "json"], capsys)
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["rows"][1] == [1, "1"]


def test_oracle_csv_bytes_are_pinned(capsys):
    """The exact CSV bytes of two large tables, as SHA-256."""
    pinned = (("+", "1000", "12a21834309f783af37602ee9667209609df82c6"
                            "f7ae151434c340e5f4c4fee8"),
              ("-", "1700", "801563a780d1c6bd2c1df95830eff9972f0a0e18"
                            "0bc47d040ceeb943ec58521e"))
    for sign, n_max, digest in pinned:
        rc, out = run_main(["oracle", "--p", "17", "--sign", sign,
                            "--n-max", n_max], capsys)
        assert rc == 0
        assert hashlib.sha256(out.encode("ascii")).hexdigest() == digest


def test_oracle_round_trip():
    table = oracle_table(make_context(13), -1, 80)
    assert parse_oracle_csv(format_oracle_csv(table)) == list(table.values)
    assert parse_oracle_json(format_oracle_json(table)) == list(table.values)


def test_oracle_file_output_and_determinism(tmp_path):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        assert main(["oracle", "--p", "17", "--sign", "-",
                     "--n-max", "60", "--out", str(f)]) == 0
    assert f1.read_bytes() == f2.read_bytes()
    assert f1.read_bytes().endswith(b"\n")
    assert b"\r" not in f1.read_bytes()


def _declared_script(name):
    """The `module:attr` target that pyproject.toml declares for `name`."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as f:
        return tomllib.load(f)["project"]["scripts"][name]


def test_console_script_installed(tmp_path):
    # the entry point itself, run out of process: the launcher below is the
    # one pip writes for a console script, so this checks the declared
    # target in this tree without installing it
    module, _, func = _declared_script("legpart").partition(":")
    launcher = tmp_path / "legpart"
    launcher.write_text(
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def run(*args):
        return subprocess.run([sys.executable, str(launcher), *args],
                              capture_output=True, text=True, env=env,
                              cwd=tmp_path)

    out = run("oracle", "--p", "5", "--sign", "+", "--n-max", "10")
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[0] == "n,value"
    assert out.stdout.splitlines()[3] == "2,0"
    # a domain error is main's own return value (argparse would print usage
    # first), so this shows that value reaching the process status
    out = run("oracle", "--p", "7", "--sign", "+", "--n-max", "10")
    assert out.returncode == 2
    assert out.stderr.startswith("error:")


def test_scan_examples(capsys):
    rc, out = run_main(["scan", "--p-min", "29", "--p-max", "29",
                        "--sign", "+", "--n-max", "2000"], capsys)
    assert rc == 0
    assert out.split("\n")[1] == "29,"
    rc, out = run_main(["scan", "--p-min", "5", "--p-max", "17",
                        "--sign", "+", "--n-max", "800"], capsys)
    lines = out.strip().split("\n")
    assert lines[0] == "p,vanishing_residues_mod_2p"
    assert lines[1] == "5,2"
    assert lines[2] == "13,"
    assert lines[3] == "17,17 19 25 27"
    rc, out = run_main(["scan", "--p-min", "5", "--p-max", "5",
                        "--sign", "-", "--n-max", "800"], capsys)
    assert out.strip().split("\n")[1] == "5,6"


def test_scan_skips_non_congruent_primes(capsys):
    # 7 and 11 are not 1 mod 4, 9 and 15 are not prime
    rc, out = run_main(["scan", "--p-min", "6", "--p-max", "16",
                        "--sign", "+", "--n-max", "200"], capsys)
    assert rc == 0
    ps = [line.split(",")[0] for line in out.strip().split("\n")[1:]]
    assert ps == ["13"]


def test_scan_range_below_two(capsys):
    # 1 and the negative numbers are not prime, even where they are 1 mod 4
    def scan(p_min):
        return run_main(["scan", "--p-min", p_min, "--p-max", "5",
                         "--sign", "+", "--n-max", "200"], capsys)

    rc, want = scan("5")
    assert rc == 0
    for p_min in ("1", "-3"):
        assert scan(p_min) == (0, want), p_min


def test_scan_n_max_below_start(capsys):
    # the scan of p starts at max(2p, 50): the check names --n-max and the
    # largest start in the range before any prime is scanned
    for p_max, need, p in ((13, 50, 13), (41, 82, 41)):
        rc = main(["scan", "--p-min", "5", "--p-max", str(p_max),
                   "--sign", "+", "--n-max", "40"])
        out, err = capsys.readouterr()
        assert rc == 2
        assert out == ""
        assert err == f"error: --n-max must be at least {need} to scan p = {p}\n"
    # a range with no prime in it scans nothing and needs no minimum
    rc, out = run_main(["scan", "--p-min", "6", "--p-max", "12",
                        "--sign", "+", "--n-max", "10"], capsys)
    assert (rc, out) == (0, "p,vanishing_residues_mod_2p\n")


def test_scan_checks_its_prime_range_first(capsys, monkeypatch):
    # a reversed range names both flags, and the largest prime, found
    # walking down from --p-max, goes through make_context, which refuses
    # p above 10^6 and names it, before the rest of the range is tested
    # for primality or any table is built
    def no_table(*args):
        raise AssertionError(f"scanned {args}")

    tested = []

    def is_prime(n):
        tested.append(n)
        return _is_prime(n)

    monkeypatch.setattr(cli, "scan_vanishing", no_table)
    monkeypatch.setattr(cli, "_is_prime", is_prime)
    too_large = ("p = 1000037 is above 10^6, too large for trial-division "
                 "primality checking")
    for flags, err, want in (
            (("41", "5", "5000"), "--p-min 41 is above --p-max 5", []),
            (("999953", "1000037", "2000074"), too_large, [1000037]),
            (("5", "1000037", "2000074"), too_large, [1000037])):
        tested.clear()
        rc = main(["scan", "--p-min", flags[0], "--p-max", flags[1],
                   "--sign", "+", "--n-max", flags[2]])
        assert (rc, *capsys.readouterr()) == (2, "", f"error: {err}\n")
        assert tested == want, flags


def test_verify_quick_report(tmp_path, capsys):
    report = tmp_path / "report.json"
    rc, out = run_main(["verify", "--suite", "tau", "--scale", "quick",
                        "--report", str(report)], capsys)
    assert rc == 0
    assert "tau.table.p17" in out
    assert "0 fail" in out
    doc = json.loads(report.read_text())
    assert doc["schema"] == 1
    assert doc["suite"] == "tau"
    assert doc["config"]["scale"] == "quick"
    assert "precision" not in doc["config"]
    assert "started" in doc and "elapsed" in doc
    for c in doc["checks"]:
        assert c["status"] in ("pass", "fail", "inconclusive")
        assert c["id"] and c["witness"]


def test_verify_dedekind_and_feq_quick(tmp_path, capsys):
    rc, out = run_main(["verify", "--suite", "dedekind", "--scale", "quick",
                        "--report", str(tmp_path / "d.json")], capsys)
    assert rc == 0
    rc, out = run_main(["verify", "--suite", "feq", "--scale", "quick",
                        "--report", str(tmp_path / "f.json")], capsys)
    assert rc == 0
    assert "feq.case2p" in out and "feq.case1" in out


def test_verify_exit_codes(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(cli.SUITE_RUNNERS, "tau", lambda scale: [
        {"id": "stub.a", "status": "inconclusive", "witness": "w"}])
    rc, _ = run_main(["verify", "--suite", "tau",
                      "--report", str(tmp_path / "r1.json")], capsys)
    assert rc == 3
    monkeypatch.setitem(cli.SUITE_RUNNERS, "tau", lambda scale: [
        {"id": "stub.a", "status": "fail", "witness": "w"},
        {"id": "stub.b", "status": "inconclusive", "witness": "w"}])
    rc, _ = run_main(["verify", "--suite", "tau",
                      "--report", str(tmp_path / "r2.json")], capsys)
    assert rc == 1


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "--suite", "nonsense"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main(["oracle", "--p", "17"])  # missing required flags
    assert e.value.code == 2
    # domain errors exit 2 without a traceback
    rc = main(["oracle", "--p", "7", "--sign", "+", "--n-max", "5"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_oracle_write_failure(capsys):
    rc = main(["oracle", "--p", "5", "--sign", "+", "--n-max", "5",
               "--out", "/nonexistent-dir/t.csv"])
    assert rc == 1
    assert "cannot write" in capsys.readouterr().err


def test_scan_write_failure(capsys):
    rc = main(["scan", "--p-min", "5", "--p-max", "5", "--n-max", "60",
               "--out", "/nonexistent-dir/s.csv"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write /nonexistent-dir/s.csv: ")


def test_verify_write_failure(capsys):
    rc = main(["verify", "--suite", "tau",
               "--report", "/nonexistent-dir/r.json"])
    assert rc == 4
    assert "cannot write" in capsys.readouterr().err
