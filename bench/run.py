"""The dgcat benchmark: time to every CLI verdict on one workload.

    python3 bench/run.py --workload equivalence --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; dgcat is imported from ./src.
Set-up generates the workload's documents from the seed (three times,
and the documents must be identical each time).  The workload's
operations then run in-process through ``dgcat.cli.main(argv)``, one
pass after another while the next pass is expected to end within
``--seconds``, and at least MIN_PASSES passes.  Times are scaled to a
reference speed by the probes of probe.py.  Every operation is checked
against the answer its construction implies and against its committed
digest.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it has the per-layer metrics of
one traced pass, and the spans are written to bench/out/.  The lines
before it name every metric with its unit, and every failed operation.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
PROBE_EVERY = 0.2
MIN_PASSES = 3
PERCENTILES = (75, 90, 95, 99, 99.9)
TAIL_BEYOND = 10


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def invoke(cli, op):
    """Run one operation; returns (seconds, exit code or exception name, stdout)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(op.text), io.StringIO(), io.StringIO()
    out = sys.stdout
    started = time.perf_counter()
    try:
        code = cli.main([*op.argv, "--input", "-"])
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # an escaped exception is this operation's answer
        code = type(exc).__name__
    finally:
        elapsed = time.perf_counter() - started
        sys.stdin, sys.stdout, sys.stderr = saved
    return elapsed, code, out.getvalue()


def run_pass(cli, ops):
    """One pass over ``ops``: (seconds, [(seconds, code, stdout)], measured
    seconds), times scaled by the median of the probes made during the pass.
    A probe runs before an operation once PROBE_EVERY seconds of operations
    have passed since the last one, and after the last operation."""
    gc.collect()
    results, probes = [], []
    since = PROBE_EVERY
    for op in ops:
        if since >= PROBE_EVERY:
            probes.append(probe.probe())
            since = 0.0
        results.append(invoke(cli, op))
        since += results[-1][0]
    probes.append(probe.probe())
    scaled = [(probe.scale(t, probes), code, out) for t, code, out in results]
    return sum(r[0] for r in scaled), scaled, sum(r[0] for r in results)


class Verifier:
    """Checks each distinct (operation, output) once against its known answer."""

    def __init__(self, expected):
        self.expected = expected
        self.digests = {}
        self._seen = {}

    def error(self, op, code, out):
        key = (op.id, code, out)
        if key not in self._seen:
            self._seen[key] = self._error(op, code, out)
        return self._seen[key]

    def _error(self, op, code, out):
        if isinstance(code, str):
            return f"escaped {code}"
        if code != op.exit:
            return f"exit {code}, expected {op.exit}"
        if op.exit == 2:
            return "output on a structural error" if out else None
        try:
            if op.failing is not None:
                report = json.loads(out)
                failing = {c["name"] for c in report["checks"] if c["status"] == "FAIL"}
                if failing != op.failing:
                    return f"failing checks {sorted(failing)}, expected {sorted(op.failing)}"
            if op.check is not None and (problem := op.check(out)):
                return problem
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}"
        digest = f"{sha(op.text)}:{sha(out)}"
        self.digests[op.id] = digest
        want = self.expected.get(op.id)
        if want != digest:
            return f"digest {digest}, expected {want}"
        return None


def tail(samples, nominal):
    """Value at the highest listed percentile with TAIL_BEYOND samples beyond
    it in a run of ``nominal`` samples (nearest rank over all samples)."""
    pct = max((p for p in PERCENTILES if nominal * (100 - p) / 100 >= TAIL_BEYOND),
              default=50)
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)], pct


def setup(build, workload, seed):
    """The operations, and the median set-up time, scaled by three probes
    before and three after each set-up."""
    times, texts, ops = [], None, None
    for _ in range(SETUP_REPEATS):
        probes = [probe.probe() for _ in range(3)]
        started = time.perf_counter()
        ops = build(workload, seed)
        elapsed = time.perf_counter() - started
        probes += [probe.probe() for _ in range(3)]
        times.append(probe.scale(elapsed, probes))
        now = [op.text for op in ops]
        if texts is not None and now != texts:
            raise RuntimeError("the same seed generated different documents")
        texts = now
    gc.freeze()
    return ops, statistics.median(times)


def measure(cli, ops, seconds):
    """Passes while the next one, taking as long as the last, would end
    within ``seconds``; at least MIN_PASSES of them."""
    passes, started, last = [], time.perf_counter(), 0.0
    while len(passes) < MIN_PASSES or time.perf_counter() - started + last <= seconds:
        begun = time.perf_counter()
        passes.append(run_pass(cli, ops))
        last = time.perf_counter() - begun
    return passes


def verify(verifier, ops, passes):
    """(attempted, failed, failures by operation, whether only known defects failed)"""
    failures = {}
    attempted = failed = 0
    for _, results, _ in passes:
        for op, (_, code, out) in zip(ops, results):
            attempted += 1
            problem = verifier.error(op, code, out)
            if problem:
                failed += 1
                failures[op.id] = (problem, op.known_defect)
    only_known = all(known for _, known in failures.values())
    return attempted, failed, failures, only_known


def end_to_end(ops, passes, setup_s, attempted, failed):
    samples = [t for _, results, _ in passes for t, _, _ in results]
    tail_s, pct = tail(samples, MIN_PASSES * len(ops))
    print(f"verdict_s.tail is p{pct} of {len(samples)} per-operation samples")
    print("pass seconds, measured: " + " ".join(f"{p[2]:.3f}" for p in passes))
    print("pass seconds, at reference speed: " + " ".join(f"{p[0]:.3f}" for p in passes))
    return {
        "wall_s": (statistics.median(p[0] for p in passes), "s"),
        "verdict_s.p50": (statistics.median(samples), "s"),
        "verdict_s.tail": (tail_s, "s"),
        "ok_rate": ((attempted - failed) / attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(cli, build, workload, seed, ops):
    """One untraced pass, one traced pass (set-up traced too) and one pass
    counting field operations; returns (passes, per-layer metrics)."""
    import layers
    from tracing import Tracer, count_field_ops

    untraced = run_pass(cli, ops)
    tracer = Tracer()
    tracer.install()
    try:
        build(workload, seed)
        mark, solves_mark = tracer.span_count(), len(tracer.solves)
        tracer.bytes = dict.fromkeys(tracer.bytes, 0)
        traced_pass = run_pass(cli, ops)
    finally:
        tracer.uninstall()
    counted = []
    field_ops = count_field_ops(lambda: counted.append(run_pass(cli, ops)))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{workload}.jsonl.gz")
    metrics = layers.metrics(
        tracer.totals(mark, tracer.span_count()),
        tracer.totals(0, mark),
        tracer.solves[solves_mark:],
        tracer.bytes,
        field_ops,
        traced_pass[0] / untraced[0],
    )
    return [untraced, traced_pass, *counted], metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dgcat" / "cli.py").is_file():
        print(f"no dgcat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from dgcat import cli

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    verifier = Verifier(expected)

    ops, setup_s = setup(workloads.build, args.workload, args.seed)
    if args.trace:
        passes, metrics = traced(cli, workloads.build, args.workload, args.seed, ops)
    else:
        passes = measure(cli, ops, args.seconds)
    attempted, failed, failures, only_known = verify(verifier, ops, passes)
    if not args.trace:
        metrics = end_to_end(ops, passes, setup_s, attempted, failed)

    for op_id, digest in sorted(verifier.digests.items()):
        print(f"digest {op_id} {digest}")
    for op_id, (problem, known) in sorted(failures.items()):
        print(f"{'known defect' if known else 'FAILED'} {op_id}: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": only_known,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
