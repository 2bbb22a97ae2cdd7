"""Tests for the verification suites' grid helper and registry."""

import importlib
import importlib.util
from pathlib import Path

import legpart.cli
from legpart.verify import SUITE_RUNNERS, _grid

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
    got = _grid("t.kind", [("L",), ("L_plus",)], lambda kind: kind != "L")
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
