"""Tests for the verification suites' grid helper and registry."""

import importlib
import importlib.util
import json
import math
from pathlib import Path

import legpart.cli
from legpart import verify
from legpart.series import InconclusiveError
from legpart.verify import SUITE_RUNNERS, _grid

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = PERFBENCH / "tracer.py"


def test_grid_pass_witness():
    cases = [(h, k) for k in range(1, 4) for h in range(k)]
    assert _grid("t.pass", cases, lambda h, k: h < k) == {
        "id": "t.pass", "status": "pass", "witness": "6 cases"}


def test_grid_pass_witness_with_note():
    got = _grid("t.note", iter([(1,), (2,)]), lambda x: x > 0, note="n > 0")
    assert got == {"id": "t.note", "status": "pass",
                   "witness": "2 cases (n > 0)"}


def test_grid_fail_witness_shows_first_three_in_order():
    seen = []

    def ok(p, h, k):
        seen.append((p, h, k))
        return h % 2 == 0

    cases = [(17, h, 5) for h in range(1, 9)]
    got = _grid("t.fail", cases, ok, note="never shown on failure")
    assert seen == cases
    assert got == {
        "id": "t.fail", "status": "fail",
        "witness": "4/8 cases failed: (17, 1, 5); (17, 3, 5); (17, 5, 5)"}


def test_grid_fail_witness_forms():
    # a string in a case prints quoted; a one-element case prints bare
    got = _grid("t.str", [("plain", 7, 3), (5, 1, "1/2")], lambda *c: False)
    assert got["witness"] == "2/2 cases failed: ('plain', 7, 3); (5, 1, '1/2')"
    got = _grid("t.sample", [("L",), ("L_plus",)], lambda kind: kind != "L")
    assert got["witness"] == "1/2 cases failed: L"


def test_suite_runners_order():
    # `verify --suite all` runs the suites in this order
    assert list(SUITE_RUNNERS) == [
        "dedekind", "charsums", "tau", "feq", "rademacher"]


def test_traced_benchmark_targets_resolve():
    # perfbench/tracer.py wraps these names from outside the package, so a
    # rename breaks `perfbench/run.py --trace 1`; read it, never edit it
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), \
            (module, attr)
    # the tracer wraps the suites through the CLI's registry
    assert legpart.cli.SUITE_RUNNERS is SUITE_RUNNERS


def test_quick_suites_match_benchmark_pins():
    # the benchmark checks each suite's [id, status] pairs against
    # perfbench/expected.json; read it, never edit it, so that a drift in
    # a check id or status fails here first
    pins = json.loads((PERFBENCH / "expected.json").read_text())
    quick = pins["verify"]["quick"]
    for suite in ("dedekind", "charsums", "tau", "feq"):
        got = [[c["id"], c["status"]] for c in SUITE_RUNNERS[suite]("quick")]
        assert got == quick[suite], suite


def test_suite_rademacher_quick_rounds_to_the_oracle():
    checks = verify.suite_rademacher("quick")
    assert [c["id"] for c in checks] == ["rademacher.p17.plus",
                                         "rademacher.p17.minus"]
    for c in checks:
        assert c["status"] == "pass", c
        assert c["witness"].startswith("n <= 60 all round to the oracle"), c


def test_feq_points_sit_in_their_gcd_class():
    # each check id's case tag names gcd(k, 2p) of its point, and the
    # four tags cover the four gcd classes
    assert set(verify.FEQ_POINTS) == {"2p", "p", "2", "1"}
    for case, points in verify.FEQ_POINTS.items():
        for p, _, k, _ in points:
            tag = {1: "1", 2: "2", p: "p", 2 * p: "2p"}[math.gcd(k, 2 * p)]
            assert tag == case, (case, p, k)


def test_suite_feq_reports_inconclusive_points(monkeypatch):
    def inconclusive(*args, **kwargs):
        raise InconclusiveError("truncation tail 0.5 exceeds 2^-64")

    monkeypatch.setattr(verify, "verify_functional_equation", inconclusive)
    checks = verify.suite_feq("quick")
    # one point per gcd class, both variants
    assert len(checks) == 8
    for c in checks:
        assert c["id"].startswith("feq.case"), c
        assert c["status"] == "inconclusive", c
        assert c["witness"] == "truncation tail 0.5 exceeds 2^-64", c


def test_suite_tau_reports_failures(monkeypatch):
    report = {"checks": 9, "failures": ["K=17 a", "K=51 b"], "ok": False}
    monkeypatch.setattr(verify, "verify_tau_table", lambda ctx, K_max: report)
    checks = verify.suite_tau("quick")
    assert [c["id"] for c in checks] == ["tau.table.p5", "tau.table.p13",
                                         "tau.table.p17"]
    for c in checks:
        assert c["status"] == "fail", c
        assert c["witness"] == "2 failures: ['K=17 a', 'K=51 b']", c
