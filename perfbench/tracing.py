"""Per-layer tracing from outside the engine.

The tracer replaces public functions of the engine's modules with
wrappers, at the names their callers look them up under, and restores
them afterwards.  Statement-level calls become spans (name, start, end,
parent span, statement id) kept in memory for the current round, so the
spans written out at the end are every span of the last traced round;
eval_predicate, which runs once per scanned row, is only counted and
timed.  A span's self time is its duration minus the time covered by
its traced children.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

STATEMENT = "shell.statement"

# Layers named after modules, as reported in shares of statement time.
LAYERS = {
    "shell": ("shell.statement", "shell.substitute"),
    "lexer": ("lexer.tokenize",),
    "parser": ("parser.parse",),
    "catalog": ("catalog.ddl",),
    "constraints": ("constraints.check_row", "constraints.validate_existing"),
    "executor": ("executor.execute",),
    "evaluate": ("evaluate.pred_eval",),
    "render": ("render.result_set",),
    "errors": ("errors.render_error",),
}
# Layers that share one dominance claim: the front end on lab_session,
# executor plus evaluate on join_report.
GROUPS = {
    "front_end": ("shell", "lexer", "parser", "catalog", "errors"),
    "executor_evaluate": ("executor", "evaluate"),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.opened = 0
        self.self_s: Counter = Counter()  # everywhere
        self.stmt_self_s: Counter = Counter()  # inside statement spans
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[int] = []  # indexes of open spans
        self._covered: list[float] = []  # child time per open span
        self._stmt: int | None = None
        self._next_stmt = 0
        self._patches: list[tuple] = []

    def new_round(self) -> None:
        """Drop the spans of earlier rounds; totals keep counting."""
        self.spans = []

    def _close(self, name: str, elapsed: float) -> None:
        self.self_s[name] += elapsed
        if self._stmt is not None:
            self.stmt_self_s[name] += elapsed

    def span(self, fn, name: str, on_result=None):
        def traced(*args, **kwargs):
            span_id = self.opened
            self.opened += 1
            parent = self._open[-1] if self._open else None
            if name == STATEMENT:
                self._stmt = self._next_stmt
                self._next_stmt += 1
            self._open.append(span_id)
            self._covered.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open.pop()
                covered = self._covered.pop()
                self.spans.append(
                    (span_id, name, start, end, parent, self._stmt))
                self.calls[name] += 1
                self._close(name, end - start - covered)
                if self._covered:
                    self._covered[-1] += end - start
                if name == STATEMENT:
                    self._stmt = None
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def tally(self, fn, name: str):
        """Count and time a per-row call without recording spans."""
        def counted(*args):
            start = perf_counter()
            try:
                return fn(*args)
            finally:
                elapsed = perf_counter() - start
                self.calls[name] += 1
                self._close(name, elapsed)
                if self._covered:
                    self._covered[-1] += elapsed
        return counted

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper(getattr(module, attr)))

    def install(self, hs) -> None:
        """Wrap the engine's layer boundaries; hs holds its modules."""
        def count(key, measure):
            def add(result):
                self.counts[key] += measure(result)
            return add

        def span(name, on_result=None):
            return lambda fn: self.span(fn, name, on_result)

        self._patch(hs.shell, "execute_statement", span(STATEMENT))
        self._patch(hs.shell, "substitute_variables", span("shell.substitute"))
        self._patch(hs.shell, "parse_text", span("parser.parse"))
        self._patch(hs.parser, "tokenize", span(
            "lexer.tokenize", count("lexer.tokens", len)))
        self._patch(hs.shell, "execute", span(
            "executor.execute", count(
                "executor.rows_out",
                lambda r: len(r.rows) if isinstance(r, hs.executor.ResultSet)
                else 0)))
        for attr in ("create_table", "add_constraint", "modify_column",
                     "describe"):
            self._patch(hs.catalog, attr, span("catalog.ddl"))
        self._patch(hs.executor, "check_row", span("constraints.check_row"))
        for module in (hs.constraints, hs.persistence):
            self._patch(module, "validate_existing",
                        span("constraints.validate_existing"))
        self._patch(hs.executor, "eval_predicate",
                    lambda fn: self.tally(fn, "evaluate.pred_eval"))
        self._patch(hs.shell, "render_result_set", span(
            "render.result_set", count("render.lines_out", len)))
        self._patch(hs.shell, "render_error", span("errors.render_error"))
        self._patch(hs.persistence, "loads", span("persistence.loads"))
        self._patch(hs.persistence, "saves", span(
            "persistence.saves",
            count("persistence.snapshot_bytes", lambda t: len(t.encode()))))

    def remove(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(["id", "name", "start", "end", "parent",
                                 "statement"]) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def per_round(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, each averaged over the traced rounds."""
        s, c = self.self_s, self.calls
        rows_out = self.counts["executor.rows_out"]
        totals = {
            "shell.substitute_s": s["shell.substitute"],
            "shell.substitute_calls": c["shell.substitute"],
            "shell.statement_self_s": s[STATEMENT],
            "shell.statement_calls": c[STATEMENT],
            "lexer.tokenize_s": s["lexer.tokenize"],
            "lexer.tokenize_calls": c["lexer.tokenize"],
            "lexer.tokens": self.counts["lexer.tokens"],
            "parser.parse_s": s["parser.parse"],
            "parser.parse_calls": c["parser.parse"],
            "catalog.ddl_s": s["catalog.ddl"],
            "catalog.ddl_calls": c["catalog.ddl"],
            "constraints.check_row_s": s["constraints.check_row"],
            "constraints.check_row_calls": c["constraints.check_row"],
            "constraints.validate_existing_s":
                s["constraints.validate_existing"],
            "constraints.validate_existing_calls":
                c["constraints.validate_existing"],
            "executor.execute_self_s": s["executor.execute"],
            "executor.execute_calls": c["executor.execute"],
            "executor.rows_out": rows_out,
            "evaluate.pred_eval_s": s["evaluate.pred_eval"],
            "evaluate.pred_evals": c["evaluate.pred_eval"],
            "render.result_set_s": s["render.result_set"],
            "render.result_set_calls": c["render.result_set"],
            "render.lines_out": self.counts["render.lines_out"],
            "errors.render_error_s": s["errors.render_error"],
            "errors.count": c["errors.render_error"],
            "persistence.loads_self_s": s["persistence.loads"],
            "persistence.loads_calls": c["persistence.loads"],
            "persistence.saves_s": s["persistence.saves"],
            "persistence.saves_calls": c["persistence.saves"],
            "persistence.snapshot_bytes": self.counts[
                "persistence.snapshot_bytes"],
            "trace.spans": self.opened,
        }
        out = {k: v / rounds for k, v in totals.items()}
        out["evaluate.pred_evals_per_row_out"] = (
            c["evaluate.pred_eval"] / rows_out if rows_out else 0.0)
        stmt_time = sum(self.stmt_self_s.values())
        out["trace.statement_s"] = stmt_time / rounds
        layer_share = {
            layer: sum(self.stmt_self_s[n] for n in names) / stmt_time
            for layer, names in LAYERS.items()}
        for layer, share in layer_share.items():
            out[f"{layer}.share"] = share
        for group, layers in GROUPS.items():
            out[f"group.{group}.share"] = sum(layer_share[x] for x in layers)
        return out
