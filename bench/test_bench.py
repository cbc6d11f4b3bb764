"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import documents  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

REPORT = json.dumps({"checks": [{"name": "category[T].units", "status": "FAIL"},
                                {"name": "category[T].d_squared", "status": "PASS"}]})


def fake_cli(result):
    """A stand-in for dgcat.cli whose main prints ``result`` or raises it."""

    def main(argv):
        if isinstance(result, Exception):
            raise result
        code, out = result
        sys.stdout.write(out)
        return code

    return types.SimpleNamespace(main=main)


def outcome(op, result, expected=None):
    cli = fake_cli(result)
    verifier = run.Verifier(expected or {})
    passes = [run.run_pass(cli, [op])]
    return run.verify(verifier, [op], passes), verifier


def digest_of(op, out):
    return {op.id: f"{run.sha(op.text)}:{run.sha(out)}"}


def test_matching_answer_and_digest_is_not_an_error():
    op = Op("x", ("validate",), "{}", 1, frozenset({"category[T].units"}))
    (attempted, failed, failures, only_known), _ = outcome(
        op, (1, REPORT), digest_of(op, REPORT))
    assert (attempted, failed, failures, only_known) == (1, 0, {}, True)


def test_wrong_exit_code_is_an_error():
    op = Op("x", ("validate",), "{}", 0, frozenset())
    (_, failed, failures, only_known), _ = outcome(op, (1, REPORT))
    assert failed == 1 and "exit 1" in failures["x"][0] and not only_known


def test_wrong_failing_check_is_an_error():
    op = Op("x", ("validate",), "{}", 1, frozenset({"category[T].associativity"}))
    (_, failed, failures, _), _ = outcome(op, (1, REPORT))
    assert failed == 1 and "failing checks" in failures["x"][0]


def test_digest_mismatch_is_an_error():
    op = Op("x", ("validate",), "{}", 1, frozenset({"category[T].units"}))
    (_, failed, failures, _), verifier = outcome(
        op, (1, REPORT), {"x": "0000:0000"})
    assert failed == 1 and failures["x"][0].startswith("digest")
    assert verifier.digests["x"] == digest_of(op, REPORT)["x"]


def test_escaped_exception_is_an_error():
    op = Op("x", ("oppose",), "{}", 2)
    (_, failed, failures, _), _ = outcome(op, ZeroDivisionError("1/0"))
    assert failed == 1 and failures["x"][0] == "escaped ZeroDivisionError"


def test_known_defect_is_counted_but_flagged():
    op = Op("x", ("oppose",), "{}", 2, known_defect=True)
    (_, failed, _, only_known), _ = outcome(op, TypeError("str + int"))
    assert failed == 1 and only_known


def test_output_check_failure_is_an_error():
    op = Op("x", ("oppose",), "{}", 0, check=lambda out: "wrong dims")
    (_, failed, failures, _), _ = outcome(op, (0, "{}"))
    assert failed == 1 and failures["x"][0] == "wrong dims"


def test_same_seed_gives_identical_documents():
    first = [op.text for op in workloads.build("transform", 7)]
    again = [op.text for op in workloads.build("transform", 7)]
    assert first == again
    assert documents.theorem_document("Q", 1, 13) == documents.theorem_document("Q", 1, 13)


def test_every_drawable_operation_has_a_committed_digest():
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    for workload in workloads.WORKLOADS:
        for op in workloads.every_op(workload):
            assert (op.exit == 2) != (op.id in expected), op.id


def test_tail_has_ten_samples_beyond_it():
    samples = list(range(1, 101))
    value, pct = run.tail(samples, 100)
    assert pct == 90 and value == 90
    assert run.tail(samples, 45)[1] == 75
