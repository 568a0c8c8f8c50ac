"""Statement benchmark for handysql.

Run from the repository root:

    python3 perfbench/run.py --workload lab_session --seed 1 --seconds 30 --trace 0

or, for every workload in turn:

    for w in lab_session bulk_load join_report; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 30; done

One process drives the engine as one closed-loop client: each statement
goes through shell.execute_statement and the next is sent only after it
returns (lab_session replays a script file through shell.run_script,
which calls execute_statement the same way).  A run repeats whole
rounds (set-up, every statement, save) until --seconds have passed, so
every round does identical work (see Bench for how rounds are reduced
to figures).  Before any timing the five golden
transcript suites must replay cleanly; otherwise the run exits 1 with
no result.

--trace 0 reports the end-to-end metrics; --trace 1 spends half the
time untraced and half with per-layer tracing (tracing.py) and reports
per-layer metrics averaged per round, plus the tracing overhead; the
spans of the last traced round are written to .perfbench_out/.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import sys
import types
from pathlib import Path
from time import perf_counter

from model import observed
from tracing import Tracer
from workloads import GENERATORS, SIZES

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

TAIL_CANDIDATES = (50, 75, 90, 95, 99, 99.9)
MIN_ROUNDS = 5  # rounds per untraced run, at least
SAMPLE_S = 0.02  # a set-up or save sample repeats its work this long
BEST_PCT = 10  # percentile over rounds that stands for a timing

END_TO_END = {
    "setup_s": "s", "save_s": "s", "stmts_per_s": "1/s",
    "stmt_p50_ms": "ms", "stmt_tail_ms": "ms",
    "insert_p50_ms": "ms", "insert_tail_ms": "ms",
    "select_p50_ms": "ms", "select_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class EngineMissing(Exception):
    pass


def load_engine() -> types.SimpleNamespace:
    """Import handysql from this checkout's src/, and only from there."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        from handysql import (
            catalog, conformance, constraints, executor, parser,
            persistence, shell,
        )
    except ImportError as err:
        raise EngineMissing(f"cannot import handysql from {src}: {err}")
    if Path(shell.__file__).resolve().parent.parent != src:
        raise EngineMissing(f"handysql was imported from {shell.__file__}")
    return types.SimpleNamespace(
        catalog=catalog, conformance=conformance, constraints=constraints,
        executor=executor, parser=parser, persistence=persistence,
        shell=shell)


def failing_suites(hs) -> list[str]:
    return [name for name in sorted(hs.conformance.SUITES)
            if not hs.conformance.run_suite(name).passed]


def quantile(values: list[float], p: float) -> float:
    """Linear-interpolated p-th percentile."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: int) -> float:
    """Highest percentile with at least ten samples beyond it."""
    return max([p for p in TAIL_CANDIDATES
                if samples * (100 - p) / 100 >= 10], default=50)


class _Sink:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


class Recorder:
    """Stands in for shell.execute_statement and times every call."""

    def __init__(self, execute):
        self.execute = execute
        self.latencies: list[float] = []
        self.blocks: list[list[str]] = []

    def __call__(self, session, text, bindings=None):
        start = perf_counter()
        block = self.execute(session, text, bindings)
        self.latencies.append(perf_counter() - start)
        self.blocks.append(block)
        return block


def repeat(work, seconds: float):
    """Call `work` until `seconds` have passed (at least once); return
    the mean time of one call and the last call's result."""
    count, start = 0, perf_counter()
    while True:
        result = work()
        count += 1
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return elapsed / count, result


class Bench:
    """Runs whole rounds: a set-up sample, every statement once in
    order, and a save sample.

    Rounds repeat identical work, and each statement phase starts from
    a freshly collected heap, so every cost the engine causes, garbage
    collection included, falls on the same statement in every round.
    What differs between rounds is the interference of other tenants of
    a shared host, which only ever adds time and comes in spells of a
    few seconds.  So each statement's latency is its BEST_PCT-th
    percentile over the rounds, stmts_per_s divides by the BEST_PCT-th
    percentile of the rounds' wall times, and setup_s and save_s are
    the BEST_PCT-th percentiles of the rounds' samples.  A low
    percentile rather than the minimum, so that a figure does not drift
    lower as faster code fits more rounds into a run.
    """

    def __init__(self, hs, workload, script_path: Path):
        self.hs = hs
        self.wl = workload
        self.script_path = script_path
        self.recorder = Recorder(hs.shell.execute_statement)
        self.kinds = [s.kind for s in workload.statements]
        self.sample_s = SAMPLE_S
        self.rounds: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[dict] = []
        self.db = None

    def _session(self, db):
        return self.hs.shell.Session(db, out=_Sink(), instream=io.StringIO(),
                                     quiet=True)

    def _check(self, stmts, blocks) -> None:
        for i, stmt in enumerate(stmts):
            got = observed(blocks[i]) if i < len(blocks) else ("missing",)
            self.attempted += 1
            if got != stmt.expect:
                self.failed += 1
                if len(self.failures) < 10:
                    self.failures.append({
                        "statement": stmt.text.splitlines()[0],
                        "expected": stmt.expect, "got": got})

    def _build(self):
        """The starting database, and the output of its set-up DDL."""
        if self.wl.snapshot is not None:
            return self.hs.persistence.loads(self.wl.snapshot), []
        db = self.hs.executor.Database()
        session = self._session(db)
        execute = self.recorder.execute
        return db, [execute(session, s.text, s.binds) for s in self.wl.setup]

    def round(self) -> None:
        gc.collect()
        setup_s, (db, blocks) = repeat(self._build, self.sample_s)
        self._check(self.wl.setup, blocks)
        session = self._session(db)
        rec = self.recorder
        rec.latencies, rec.blocks = [], []
        gc.collect()
        start = perf_counter()
        if self.wl.via_script:
            self.hs.shell.run_script(session, str(self.script_path))
        else:
            execute = self.hs.shell.execute_statement
            for stmt in self.wl.statements:
                execute(session, stmt.text, stmt.binds)
        wall = perf_counter() - start
        save_s, _ = repeat(lambda: self.hs.persistence.saves(db),
                           self.sample_s)
        self._check(self.wl.statements, rec.blocks)
        self.rounds.append({"setup_s": setup_s, "save_s": save_s,
                            "wall_s": wall, "latencies": rec.latencies})
        self.db = db

    def run_for(self, seconds: float, min_rounds: int,
                before_round=None) -> list[dict]:
        """Run whole rounds for `seconds`; return their records."""
        first = len(self.rounds)
        deadline = perf_counter() + seconds
        while (len(self.rounds) - first < min_rounds
               or perf_counter() < deadline):
            if before_round is not None:
                before_round()
            self.round()
        return self.rounds[first:]

    def check_round_trip(self) -> None:
        if not self.wl.round_trip:
            return
        text = self.hs.persistence.saves(self.db)
        again = self.hs.persistence.saves(self.hs.persistence.loads(text))
        self.attempted += 1
        if again != text:
            self.failed += 1
            self.failures.append({"statement": "saves(loads(saves(db)))",
                                  "expected": "byte-identical",
                                  "got": "differs"})

    def latency_detail(self) -> dict:
        samples = {kind: sum(kind in ("stmt", k) for k in self.kinds)
                   for kind in ("stmt", "insert", "select")}
        return {"tail_percentile": {kind: tail_percentile(n)
                                    for kind, n in samples.items()},
                "latency_samples_per_round": samples,
                "percentile_over_rounds": BEST_PCT}


def best(values: list[float]) -> float:
    return quantile(values, BEST_PCT)


def summarise(rounds: list[dict], kinds: list[str]) -> dict[str, float]:
    """End-to-end metrics of a run from its rounds (see Bench)."""
    metrics = {
        "setup_s": best([r["setup_s"] for r in rounds]),
        "save_s": best([r["save_s"] for r in rounds]),
        "stmts_per_s": len(kinds) / best([r["wall_s"] for r in rounds]),
    }
    latency = [best(list(times))
               for times in zip(*(r["latencies"] for r in rounds))]
    for kind in ("stmt", "insert", "select"):
        values = [t for t, k in zip(latency, kinds) if kind in ("stmt", k)]
        metrics[f"{kind}_p50_ms"] = quantile(values, 50) * 1000
        metrics[f"{kind}_tail_ms"] = (
            quantile(values, tail_percentile(len(values))) * 1000)
    return metrics


def measure(bench: Bench, seconds: float, trace: bool, spans: Path):
    if not trace:
        rounds = bench.run_for(seconds, MIN_ROUNDS)
        bench.check_round_trip()
        metrics = summarise(rounds, bench.kinds)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        return ({k: (v, END_TO_END[k]) for k, v in metrics.items()},
                bench.latency_detail())
    # One set-up and one save per round, so per-round counts are exact.
    bench.sample_s = 0
    untraced = summarise(bench.run_for(seconds / 2, 1),
                         bench.kinds)["stmts_per_s"]
    tracer = Tracer()
    tracer.install(bench.hs)
    try:
        rounds = bench.run_for(seconds / 2, 1, before_round=tracer.new_round)
    finally:
        tracer.remove()
    bench.check_round_trip()
    traced = summarise(rounds, bench.kinds)["stmts_per_s"]
    per_layer = tracer.per_round(len(rounds))
    per_layer["trace.untraced_stmts_per_s"] = untraced
    per_layer["trace.traced_stmts_per_s"] = traced
    per_layer["trace.overhead"] = untraced / traced
    tracer.write_spans(str(spans))
    detail = {"traced_rounds": len(rounds), "spans_file":
              str(spans.relative_to(ROOT)),
              "spans_written": len(tracer.spans),
              "spans_opened": tracer.opened}
    return {k: (v, layer_unit(k)) for k, v in per_layer.items()}, detail


def layer_unit(name: str) -> str:
    if name.endswith("stmts_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith((".share", "_per_row_out", ".overhead")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="full",
                    help="workload size; smoke is for the self-test")
    args = ap.parse_args(argv)

    try:
        hs = load_engine()
    except EngineMissing as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    failing = failing_suites(hs)
    if failing:
        print(f"perfbench: golden suites fail: {', '.join(failing)}; "
              "no numbers reported", file=sys.stderr)
        return 1

    workload = GENERATORS[args.workload](args.seed, args.size)
    OUT.mkdir(exist_ok=True)
    script = OUT / f"{args.workload}-{os.getpid()}.sql"
    bench = Bench(hs, workload, script)
    original = hs.shell.execute_statement
    hs.shell.execute_statement = bench.recorder
    try:
        if workload.via_script:
            script.write_text(workload.script_text())
        metrics, detail = measure(
            bench, args.seconds, bool(args.trace),
            OUT / f"spans-{args.workload}.jsonl")
    finally:
        hs.shell.execute_statement = original
        script.unlink(missing_ok=True)

    detail = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "input_sha256": workload.digest(),
        "statements_per_round": len(workload.statements),
        "rounds": len(bench.rounds), "golden_suites": "passed",
        "failed_ratio": bench.failed / bench.attempted,
        "failures": bench.failures, **detail,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    result = {
        "correct": bench.failed == 0, "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:<38} {value:>16.6f} {unit}")
    print(json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
