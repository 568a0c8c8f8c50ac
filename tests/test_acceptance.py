"""Ten acceptance checks, one test per criterion.

Criteria 1-5 replay the golden console transcripts.  Criteria 6-10 are
randomized properties judged against the independent oracles in
reference.py, driven by fixed seeds so runs are repeatable.  Beside
criterion 6, a hypothesis test holds SELECTs that pin a key to the same
brute-force oracle, and beside criterion 10 one holds snapshots with a
CONSTRAINT line DDL could not have written to the error DDL gives.
"""

import datetime
import random
from collections import Counter
from copy import deepcopy
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference as ref
from conftest import REF_TRUTH, SETTING, truth

from handysql.catalog import (ColumnSchema, ConstraintDef, Table,
                              check_constraint)
from handysql.conformance import parse_transcript, run_suite, suite_path
from handysql.constraints import (DUPLICATE_KEY, FAILED_PREDICATE,
                                  NULL_COLUMN, check_row)
from handysql.errors import OraError
from handysql.executor import Database, eval_aggregate, execute
from handysql.nodes import BoolOp, ColumnRef, Comparison, IsNull, Literal, Not
from handysql.parser import parse_text
from handysql.persistence import SnapshotError, loads, saves
from handysql.render import render_predicate
from handysql.values import DateType, NumberType, Varchar2Type, type_display

_TYPES = {"number": NumberType(10, 4), "text": Varchar2Type(30),
          "date": DateType()}


def to_decimal(value):
    """Exact Decimal for a reference int or Fraction."""
    if value is None:
        return None
    if isinstance(value, int):
        return Decimal(value)
    scale = 0
    while (value * 10 ** scale).denominator != 1:
        scale += 1
    scaled = value.numerator * 10 ** scale // value.denominator
    return Decimal(scaled).scaleb(-scale)


def to_engine_value(value):
    if isinstance(value, (int, Fraction)):
        return to_decimal(value)
    return value


def engine_cell(value):
    return Fraction(value) if isinstance(value, Decimal) else value


def ref_cell(value):
    return Fraction(value) if isinstance(value, (int, Fraction)) else value


def to_engine_operand(operand):
    tag, payload = operand
    if tag == "col":
        return ColumnRef(payload)
    return Literal(to_engine_value(payload))


def to_engine_pred(pred):
    tag = pred[0]
    if tag == "cmp":
        return Comparison(pred[1], to_engine_operand(pred[2]),
                          to_engine_operand(pred[3]))
    if tag == "isnull":
        return IsNull(to_engine_operand(pred[1]), pred[2])
    if tag == "not":
        return Not(to_engine_pred(pred[1]))
    return BoolOp(pred[0].upper(), (to_engine_pred(pred[1]),
                                    to_engine_pred(pred[2])))


def passing_suite_text(name):
    report = run_suite(name)
    details = "\n".join(
        line for r in report.results if not r.ok for line in r.diff)
    assert report.passed, details
    return suite_path(name).read_text()


def test_criterion_01_table_creation_dialog():
    text = passing_suite_text("ddl")
    assert "SQL> CREATE TABLE" in text
    assert "Table created." in text
    assert "Name                           Null?    Type" in text
    assert "VARCHAR2(20)" in text


def test_criterion_02_insert_dialog():
    text = passing_suite_text("dml")
    assert text.count("1 row created.") >= 3
    assert "Enter value for" in text
    assert "ORA-00936: missing expression" in text


def test_criterion_03_constraint_dialog():
    text = passing_suite_text("constraints")
    assert "PRIMARY KEY" in text
    assert "ORA-01430" in text
    assert "SYS_C005545" in text
    assert "NOT NULL" in text
    assert "no rows selected" in text


def test_criterion_04_aggregate_alias_dialog():
    text = passing_suite_text("aggregates")
    assert "TOAL_MARKS" in text
    assert "ORA-00923: FROM keyword not found where expected" in text


def test_criterion_05_join_dialog():
    text = passing_suite_text("joins")
    selects = [e for e in parse_transcript(text)
               if e.statement.upper().startswith("SELECT")]
    assert len(selects) == 2
    assert selects[0].statement != selects[1].statement
    assert selects[0].expected == selects[1].expected
    grid = "\n".join(selects[0].expected)
    for name in ("ROHI", "JUHI", "TANISH"):
        assert name in grid


# Join keys come from small domains, so matches and duplicate keys are
# common; the second table sometimes draws from the upper half only, so
# that no key matches at all.
_KEY_DOMAINS = {
    "number": [1, 2, 3, 4, 5, 6, 7, 8],
    "text": ["A", "B", "C", "D", "a", "b", "c", "d"],
    "date": [datetime.date(2001, 2, d) for d in range(1, 9)],
}
# Mixed scales put 1 and 1.0000 on the two sides of a number key.
_KEY_TYPES = {"number": ["NUMBER(10,4)", "NUMBER(5)", "NUMBER"],
              "text": ["VARCHAR2(30)", "VARCHAR2(3)"], "date": ["DATE"]}
# A literal of another kind for each column kind, and the error a
# comparison with it raises.
_OTHER_KIND = {"number": ("'X'", 1722), "text": ("7", 1722),
               "date": ("'X'", 932)}


def _join_tables(rng, used):
    """Three tables, each with one key column of a shared kind."""
    kind = rng.choice(list(_KEY_DOMAINS))
    tables = []
    for n in range(3):
        name = ref.gen_name(rng, used)
        cols = ref.gen_columns(rng, used, 1, 3)
        key = ref.gen_name(rng, used)
        cols[key] = kind
        rows = ref.gen_rows(rng, cols, n_max=4)
        low = 4 if n == 1 and rng.random() < 0.2 else 0
        for row in rows:
            row[key] = (None if rng.random() < 0.2
                        else rng.choice(_KEY_DOMAINS[kind][low:low + 4]))
        types = {c: ref.sql_type(k) for c, k in cols.items()}
        types[key] = rng.choice(_KEY_TYPES[kind])
        tables.append((name, cols, key, rows, types))
    return tables


def _random_join_query(rng, tables):
    """A random join over the tables from _join_tables, as SQL text.

    Equalities between key columns sit beside residual conjuncts, OR,
    NOT and IS NULL, and now and then an error: a cross-kind comparison,
    an unknown or ambiguous column, an aggregate in a predicate, SUM or
    AVG over text, or a plain column beside an aggregate in the select
    list.  Half the queries also filter every source on its own
    columns, which the engine runs before the join.  A tenth hold an
    error in both the filter and the select list (an unknown column,
    904 or 937), so that the filter's must come first.  Returns the
    shape, whether sources are filtered alone, whether both hold an
    error, and the text.
    """
    (ta, *_), (tb, *_), (tc, *_) = tables
    shape = rng.choice(["comma2", "comma3", "self", "inner"])
    picked = {"comma2": [(0, "A"), (1, "B")],
              "comma3": [(0, "A"), (1, "B"), (2, "C")],
              "self": [(0, "X"), (0, "Y")],
              "inner": [(0, "A"), (1, "B")]}[shape]
    froms, cols = [], []
    for idx, alias in picked:
        name, kinds, key, _, _ = tables[idx]
        if shape != "self" and rng.random() < 0.3:
            alias = None
        froms.append(f"{name} {alias}" if alias else name)
        cols.append([(alias or name, c, k, c == key)
                     for c, k in kinds.items()])

    def column(pool=None, kind=None):
        pool = pool or [c for source in cols for c in source]
        pool = [c for c in pool if kind is None or c[2] == kind]
        if not pool:
            return None
        qual, name, k, _ = rng.choice(pool)
        # Unqualified names are unique, except in a self-join (918).
        text = name if rng.random() < 0.1 else f"{qual}.{name}"
        return text, k

    def equality():
        i = rng.randrange(1, len(cols))
        left = next(f"{q}.{c}" for q, c, _, is_key in cols[i - 1] if is_key)
        right = next(f"{q}.{c}" for q, c, _, is_key in cols[i] if is_key)
        return f"{left} = {right}" if rng.random() < 0.5 \
            else f"{right} = {left}"

    def error():
        roll = rng.random()
        text, kind = column()
        if roll < 0.5:
            literal, _ = _OTHER_KIND[kind]
            return f"{text} = {literal}"
        if roll < 0.7:
            other = column(kind=rng.choice(
                [k for k in _OTHER_KIND if k != kind]))
            return f"{text} < {other[0]}" if other else f"{text} = 'X'"
        if roll < 0.85:
            return f"{cols[0][0][0]}.NO_SUCH_COLUMN IS NULL"
        return f"COUNT({text}) > 1"

    def piece(depth=0):
        roll = rng.random()
        if roll < 0.35:
            return equality()
        if roll < 0.65:
            text, kind = column()
            if kind == "date":
                other = column(kind="date")
                return f"{text} >= {other[0]}"
            value = ref.gen_value(rng, kind, null_rate=0.1)
            op = rng.choice(["=", "!=", "<", ">="])
            return f"{text} {op} {ref.sql_literal(value)}"
        if roll < 0.75:
            text, _ = column()
            return f"{text} IS {rng.choice(['', 'NOT '])}NULL"
        if roll < 0.85 and depth == 0:
            return f"({piece(1)} OR {piece(1)})"
        if roll < 0.9 and depth == 0:
            return f"NOT ({piece(1)})"
        return error() if rng.random() < 0.5 else equality()

    def own_filter(source):
        """A conjunct on one source's columns alone."""
        qual, name, kind, _ = rng.choice(source)
        text = f"{qual}.{name}"
        roll = rng.random()
        if roll < 0.3:
            return f"{text} IS {rng.choice(['', 'NOT '])}NULL"
        if kind == "date" or roll < 0.4:
            other = rng.choice([c for c in source if c[2] == kind])
            return f"{text} {rng.choice(['=', '<=', '>='])} " \
                f"{other[0]}.{other[1]}"
        value = ref.gen_value(rng, kind, null_rate=0.05)
        op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
        return f"{text} {op} {ref.sql_literal(value)}"

    def conjunction(own=(), planted=False):
        parts = [piece() for _ in range(rng.randint(1, 3))]
        parts += [own_filter(source) for source in own]
        if planted:
            parts.append(error())
        rng.shuffle(parts)
        return " AND ".join(parts)

    roll = rng.random()
    if roll < 0.35:
        items = "*"
    elif roll < 0.7:
        chosen = [column()[0] for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            chosen.append(rng.choice(["7", "'LIT'", "NULL"]))
        if rng.random() < 0.05:
            chosen.append("NO_SUCH_COLUMN")
        items = ", ".join(chosen)
    else:
        def number():
            # Now and then a column of any kind, for SUM/AVG's 1722.
            found = column(kind=None if rng.random() < 0.1 else "number")
            return (found or column())[0]

        chosen = [rng.choice(["COUNT(*)", f"COUNT({column()[0]})",
                              f"MIN({column()[0]})", f"MAX({column()[0]})",
                              f"SUM({number()})", f"AVG({number()})"])
                  for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.1:
            chosen.append(column()[0])
        items = ", ".join(chosen)
    # Half the queries filter every source on its own columns too.
    own = cols if rng.random() < 0.5 else []
    # A tenth put an error in both the select list and the filter.
    both = rng.random() < 0.1
    if both:
        items = (column()[0] if items == "*" else items) + ", NO_SUCH_COLUMN"
    if shape == "inner":
        split = rng.randint(0, len(own))
        text = (f"SELECT {items} FROM {froms[0]} INNER JOIN {froms[1]} "
                f"ON {conjunction(own[:split], both)}")
        if rng.random() < 0.5 or own[split:]:
            text += f" WHERE {conjunction(own[split:])}"
        return shape, bool(own), both, text
    text = f"SELECT {items} FROM {', '.join(froms)}"
    if rng.random() < 0.9 or own or both:
        text += f" WHERE {conjunction(own, both)}"
    return shape, bool(own), both, text


def _cells(rows):
    return [[Fraction(v) if isinstance(v, (Decimal, int)) else v
             for v in row] for row in rows]


def test_criterion_06_join_forms_agree():
    """Comma and INNER joins agree, and random joins match a nested loop.

    Every random query over three small tables must give the rows of
    tests/reference.py's brute-force SELECT, or the same ORA code at
    the same position: hash joins, filters run at their tables and
    streamed execution may change the work done, never the outcome.
    """
    rng = random.Random(1306)
    nonempty = 0
    seen = Counter()
    for _ in range(1000):
        used = set()
        tables = _join_tables(rng, used)
        db = Database()
        for name, cols, _, rows, types in tables:
            decl = ", ".join(f"{c} {types[c]}" for c in cols)
            execute(db, parse_text(f"CREATE TABLE {name}({decl})"))
            for row in rows:
                vals = ", ".join(ref.sql_literal(row[c]) for c in cols)
                execute(db, parse_text(
                    f"INSERT INTO {name} VALUES({vals})"))
        (ta, cols_a, ja, rows_a, _), (tb, cols_b, jb, rows_b, _) = tables[:2]
        comma = execute(db, parse_text(
            f"SELECT * FROM {ta} A, {tb} B WHERE A.{ja} = B.{jb}"))
        joined = execute(db, parse_text(
            f"SELECT * FROM {ta} A INNER JOIN {tb} B ON A.{ja} = B.{jb}"))
        assert comma.headers == joined.headers == list(cols_a) + list(cols_b)
        assert comma.rows == joined.rows
        expected = [
            [row_a[c] for c in cols_a] + [row_b[c] for c in cols_b]
            for row_a in rows_a for row_b in rows_b
            if ref.compare("=", row_a[ja], row_b[jb]) == ref.TRUE]
        got = [[engine_cell(v) for v in row] for row in comma.rows]
        want = [[ref_cell(v) for v in row] for row in expected]
        assert got == want
        nonempty += bool(expected)

        stored = {name: (list(db.tables[name].column_names()),
                         db.tables[name].rows) for name, *_ in tables}
        for _ in range(4):
            shape, filtered, both, text = _random_join_query(rng, tables)
            stmt = parse_text(text)
            try:
                want = ("rows", _cells(ref.nested_loop_select(stored, stmt)))
            except ref.Expected as err:
                want = ("error", err.where)
            try:
                got = ("rows", _cells(execute(db, stmt).rows))
            except OraError as err:
                got = ("error", (err.code, err.line, err.column))
            assert got == want, text
            outcome = (want[1][0] if want[0] == "error"
                       else "rows" if want[1] else "empty")
            seen[shape, outcome] += 1
            if filtered:
                seen["filtered", outcome] += 1
            if both:
                # The select list's planted error, at its own position,
                # shows only when the filter's raised on no row.
                listed = (1, text.index(", NO_SUCH_COLUMN") + 3)
                if want[0] == "error":
                    seen["both", "select" if want[1][1:] == listed
                         else "filter"] += 1
            if "SUM(" in text or "AVG(" in text:
                # Only SUM or AVG over text fails at (1, 1).
                over_text = want == ("error", (1722, 1, 1))
                seen["sum_avg", "text" if over_text else outcome] += 1
    assert nonempty >= 200
    for shape in ("comma2", "comma3", "self", "inner"):
        assert seen[shape, "rows"] >= 100, seen
        for code in (904, 934, 1722):
            assert seen[shape, code] >= 5, seen
    assert seen["self", 918] >= 5, seen
    # Per-source filters leave rows, and SUM/AVG both fold and fail.
    assert seen["filtered", "rows"] >= 300, seen
    assert seen["sum_avg", "rows"] >= 200, seen
    assert seen["sum_avg", "text"] >= 5, seen
    assert sum(n for (_, code), n in seen.items() if code == 937) >= 5, seen
    assert seen["both", "filter"] >= 200, seen
    assert seen["both", "select"] >= 50, seen


# A key table: two columns of each kind a key may hold, so that keys of
# one and of two columns can be pinned, and V for extra conjuncts.  The
# number spellings are equal across scales, so a pin spelled 1.00 must
# find the row stored as 1 or 1.0.
_POINT_NUMBERS = ("1", "1.0", "1.00", "2", "2.5", "-3")
_POINT_LITERALS = {
    "N": _POINT_NUMBERS, "M": _POINT_NUMBERS,
    "S": ("'a'", "'b'", "'ab'"), "T": ("'a'", "'b'"),
    "D": ("'01-JAN-2020'", "'02-JAN-2020'"),
}
# A literal of another kind for each key column.
_POINT_OTHER_KIND = {"N": "'a'", "M": "'a'", "S": "1", "T": "1",
                     "D": "1"}
# Extra conjuncts: TRUE, FALSE or UNKNOWN as V is 1, 2 or NULL, always
# TRUE or always FALSE, and two that can raise (S against a number, D
# against text).
_POINT_EXTRAS = ("V = 1", "V = 2", "V = NULL", "V IS NULL", "NOT (V = 1)",
                 "1 = 1", "1 = 2", "V > 0 OR V IS NULL", "S = 5",
                 "D = 'X'")


@st.composite
def _point_queries(draw):
    """DDL and INSERTs for a keyed table, how to rebuild it, and a query."""
    n_type = draw(st.sampled_from(["NUMBER(6)", "NUMBER(6,1)",
                                   "NUMBER(6,2)"]))
    ddl = [f"CREATE TABLE K(N {n_type}, M NUMBER(6,2), S VARCHAR2(5), "
           "T VARCHAR2(5), D DATE, V NUMBER)"]
    keys = draw(st.lists(st.tuples(
        st.sampled_from(["PRIMARY KEY", "UNIQUE"]),
        st.lists(st.sampled_from("NMSTD"), min_size=1, max_size=2,
                 unique=True)), min_size=1, max_size=3))
    for i, (kind, cols) in enumerate(keys):
        ddl.append(f"ALTER TABLE K ADD CONSTRAINT K{i} {kind} "
                   f"({', '.join(cols)})")
    cell = {c: st.sampled_from(lits + ("NULL",))
            for c, lits in _POINT_LITERALS.items()}
    cell["V"] = st.sampled_from(["1", "2", "NULL"])
    rows = draw(st.lists(st.fixed_dictionaries(cell), max_size=14))
    inserts = [f"INSERT INTO K VALUES({r['N']}, {r['M']}, {r['S']}, "
               f"{r['T']}, {r['D']}, {r['V']})" for r in rows]
    # Keys added after the rows meet the rows already stored.
    split = draw(st.integers(0, len(inserts)))
    script = ddl[:1] + inserts[:split] + ddl[1:] + inserts[split:]
    build = draw(st.sampled_from(["ddl", "loads", "modify"]))

    alias = draw(st.sampled_from([None, "X"]))
    qualifier = st.sampled_from([None, "K"] + ([alias] if alias else []))
    # Mostly every column of one key, pinned to one drawn row's values
    # so that they often find it, and now and then only part of it.
    target = draw(st.sampled_from(rows)) if rows else {}
    key = draw(st.sampled_from(keys))[1]
    pins = [(col, "row") for col in key]
    if len(pins) > 1 and draw(st.integers(0, 4)) == 0:
        pins.pop()
    for _ in range(draw(st.integers(0, 2))):
        pins.append((draw(st.sampled_from("NMSTDV")), draw(st.sampled_from(
            ["row", "literal", "null", "other", "extra"]))))
    conjuncts = []
    for col, shape in draw(st.permutations(pins)):
        if shape == "extra" or col == "V":
            conjuncts.append(draw(st.sampled_from(_POINT_EXTRAS)))
            continue
        q = draw(qualifier)
        ref_text = f"{q}.{col}" if q else col
        lit = ("NULL" if shape == "null"
               else _POINT_OTHER_KIND[col] if shape == "other"
               else target[col] if shape == "row" and target
               else draw(st.sampled_from(_POINT_LITERALS[col])))
        conjuncts.append(f"{lit} = {ref_text}" if draw(st.booleans())
                         else f"{ref_text} = {lit}")
    items = draw(st.sampled_from(["*", "N, S", "D, V, N"]))
    query = (f"SELECT {items} FROM K{' ' + alias if alias else ''} "
             f"WHERE {' AND '.join(conjuncts)}")
    return script, build, query


@settings(max_examples=300, deadline=None)
@given(_point_queries())
def test_point_queries_match_nested_loop(case):
    """Key-pinned single-table SELECTs give the brute-force SELECT's rows.

    Whether or not the engine finds the row by its key, the outcome is
    that of tests/reference.py's nested loop: the same rows in the same
    order, or the same ORA code at the same position.  The table is
    built by DDL, reloaded from its snapshot, or has its N column
    widened to a larger NUMBER scale first.
    """
    script, build, query = case
    db = Database()
    for text in script:
        try:
            execute(db, parse_text(text))
        except OraError:
            pass  # a duplicate or NULL key, or a key the rows break
    if build == "loads":
        db = loads(saves(db))
    elif build == "modify":
        execute(db, parse_text("ALTER TABLE K MODIFY N NUMBER(9,3)"))
    table = db.tables["K"]
    assert table.keys == [c for c in db.constraints
                          if c.kind in ("PK", "UNIQUE")]
    stmt = parse_text(query)
    stored = {"K": (table.column_names(), table.rows)}
    try:
        want = ("rows", _cells(ref.nested_loop_select(stored, stmt)))
    except ref.Expected as err:
        want = ("error", err.where)
    try:
        got = ("rows", _cells(execute(db, stmt).rows))
    except OraError as err:
        got = ("error", (err.code, err.line, err.column))
    assert got == want, query


def test_criterion_07_aggregate_identities():
    rng = random.Random(1307)
    for _ in range(1000):
        n = rng.randint(0, 12)
        vals = [None if rng.random() < 0.25
                else ref.gen_number(rng, precision=rng.randint(1, 7),
                                    scale=rng.choice([0, 0, 1, 2, 3, 4]))
                for _ in range(n)]
        present = [to_decimal(v) for v in vals if v is not None]
        assert eval_aggregate("COUNT", present, _TYPES["number"]) == \
            Decimal(ref.fold_count(vals))
        for func, fold in (("MIN", ref.fold_min), ("MAX", ref.fold_max)):
            got = eval_aggregate(func, present, _TYPES["number"])
            want = fold(vals)
            assert (got is None) == (want is None)
            if got is not None:
                assert Fraction(got) == Fraction(want)
        total = eval_aggregate("SUM", present, _TYPES["number"])
        mean = eval_aggregate("AVG", present, _TYPES["number"])
        exact_sum = ref.fold_sum(vals)
        exact_mean = ref.fold_avg(vals)
        if exact_sum is None:
            assert total is None and mean is None
            continue
        assert Fraction(total) == exact_sum
        assert Fraction(mean) == ref.round_sig(exact_mean)
        # SUM equals AVG times COUNT over the unrounded rational mean.
        assert Fraction(total) == exact_mean * ref.fold_count(vals)
        if ref.round_sig(exact_mean) == exact_mean:
            # When the mean is exact in 38 digits the identity also
            # holds over the values the engine actually reports.
            assert Fraction(mean) * ref.fold_count(vals) == Fraction(total)


def _schema(columns):
    return Table("T", [ColumnSchema(c, _TYPES[k])
                       for c, k in columns.items()])


def test_criterion_08_constraint_verdicts():
    rng = random.Random(1308)
    fired = {NULL_COLUMN: 0, DUPLICATE_KEY: 0, FAILED_PREDICATE: 0}
    for _ in range(1000):
        used = set()
        columns = ref.gen_columns(rng, used, 1, 4)
        names = list(columns)
        existing = ref.gen_rows(rng, columns, n_max=4)
        if existing and rng.random() < 0.5:
            # clone a stored row often so duplicate keys actually occur
            candidate = dict(rng.choice(existing))
        else:
            candidate = {c: ref.gen_value(rng, k)
                         for c, k in columns.items()}
        kind = rng.choice(["notnull", "pk", "unique", "check"])
        if kind == "notnull":
            col = rng.choice(names)
            cons = ConstraintDef("N1", "T", "NOTNULL", columns=(col,))
            expect = ref.null_violation(candidate, [col])
            reason = NULL_COLUMN
        elif kind in ("pk", "unique"):
            cols = tuple(rng.sample(
                names, k=rng.randint(1, min(2, len(names)))))
            primary = kind == "pk"
            cons = ConstraintDef("K1", "T", "PK" if primary else "UNIQUE",
                                 columns=cols)
            expect = ref.key_violation(existing, candidate, cols, primary)
            reason = (NULL_COLUMN
                      if primary and ref.null_violation(candidate, cols)
                      else DUPLICATE_KEY)
        else:
            pred = ref.gen_predicate(rng, columns)
            cons = check_constraint("C1", _schema(columns),
                                    to_engine_pred(pred))
            expect = ref.check_violation(pred, candidate)
            reason = FAILED_PREDICATE
        db = Database(tables={"T": _schema(columns)}, constraints=[cons])
        engine_existing = [[to_engine_value(r[c]) for c in names]
                           for r in existing]
        engine_row = [to_engine_value(candidate[c]) for c in names]
        violation = check_row(db, "T", engine_row, engine_existing)
        assert (violation is not None) == expect, (kind, candidate, existing)
        if violation is not None:
            assert violation.reason == reason
            fired[reason] += 1
    assert all(count >= 25 for count in fired.values()), fired


def _random_statement(rng):
    used = set()
    name = ref.gen_name(rng, used)
    columns = ref.gen_columns(rng, used, 1, 4)
    names = list(columns)
    maker = rng.randrange(8)
    if maker == 0:
        decl = ", ".join(f"{c} {ref.sql_type(k)}"
                         for c, k in columns.items())
        return f"CREATE TABLE {name}({decl})"
    if maker == 1:
        vals = ", ".join(ref.sql_literal(ref.gen_value(rng, k))
                         for k in columns.values())
        return f"INSERT INTO {name} VALUES({vals})"
    if maker == 2:
        listed = rng.sample(names, k=rng.randint(1, len(names)))
        vals = ", ".join(ref.sql_literal(ref.gen_value(rng, columns[c]))
                         for c in listed)
        return f"INSERT INTO {name}({', '.join(listed)}) VALUES({vals})"
    if maker == 3:
        where = ""
        if rng.random() < 0.7:
            where = f" WHERE {ref.pred_text(ref.gen_predicate(rng, columns))}"
        items = "*"
        if rng.random() < 0.5:
            items = ", ".join(rng.sample(names, k=rng.randint(1, len(names))))
        return f"SELECT {items} FROM {name}{where}"
    if maker == 4:
        func = rng.choice(["COUNT", "SUM", "AVG", "MIN", "MAX"])
        arg = "*" if func == "COUNT" and rng.random() < 0.3 \
            else rng.choice(names)
        alias = ""
        if rng.random() < 0.6:
            alias_name = ref.gen_name(rng, used)
            as_kw = "AS " if rng.random() < 0.5 else ""
            if rng.random() < 0.3:
                alias = f' {as_kw}"{alias_name}"'
            else:
                alias = f" {as_kw}{alias_name}"
        return f"SELECT {func}({arg}){alias} FROM {name}"
    if maker == 5:
        other = ref.gen_name(rng, used)
        ca, cb = rng.choice(names), rng.choice(names)
        if rng.random() < 0.5:
            return f"SELECT * FROM {name} A, {other} B WHERE A.{ca} = B.{cb}"
        return (f"SELECT * FROM {name} A INNER JOIN {other} B "
                f"ON A.{ca} = B.{cb}")
    if maker == 6:
        cname = ref.gen_name(rng, used)
        body = rng.choice(["pk", "unique", "check"])
        if body in ("pk", "unique"):
            cols = ", ".join(rng.sample(names, k=rng.randint(1, len(names))))
            keyword = "PRIMARY KEY" if body == "pk" else "UNIQUE"
            return (f"ALTER TABLE {name} ADD CONSTRAINT {cname} "
                    f"{keyword} ({cols})")
        pred = ref.pred_text(ref.gen_predicate(rng, columns))
        return f"ALTER TABLE {name} ADD CONSTRAINT {cname} CHECK ({pred})"
    suffix = rng.choice(["", " NOT NULL", " NULL"])
    kind = rng.choice(["number", "text", "date"])
    return (f"ALTER TABLE {name} MODIFY {rng.choice(names)} "
            f"{ref.sql_type(kind)}{suffix}")


def test_criterion_09_round_trip_and_logic_table():
    rng = random.Random(1309)
    for _ in range(1000):
        text = _random_statement(rng)
        tree = parse_text(text)
        assert parse_text(ref.render_statement(tree)) == tree, text
    # The logic table, through compiled predicates: A and B are set so
    # that "A = 1" and "B = 1" take each truth value.
    cells = 0
    for a in SETTING:
        assert REF_TRUTH[truth("NOT A = 1", SETTING[a])] == ref.not3(a)
        cells += 1
        for b in SETTING:
            row = SETTING[a], SETTING[b]
            assert REF_TRUTH[truth("A = 1 AND B = 1", *row)] == ref.and3(a, b)
            assert REF_TRUTH[truth("A = 1 OR B = 1", *row)] == ref.or3(a, b)
            cells += 2
    assert cells == 21
    for a in SETTING:
        for b in SETTING:
            row = SETTING[a], SETTING[b]
            assert (truth("NOT (A = 1 AND B = 1)", *row)
                    == truth("NOT A = 1 OR NOT B = 1", *row))
            assert (truth("NOT (A = 1 OR B = 1)", *row)
                    == truth("NOT A = 1 AND NOT B = 1", *row))


def _random_database(rng):
    """One to two tables with rows and up to three constraints, by DDL.

    Returns the database, each table's columns, and for each constraint
    in db.constraints a copy of the database just before DDL added it.
    """
    used = set()
    db = Database()
    tables = {}
    for _ in range(rng.randint(1, 2)):
        name = ref.gen_name(rng, used)
        columns = ref.gen_columns(rng, used, 1, 4)
        decl = ", ".join(f"{c} {ref.sql_type(k)}"
                         for c, k in columns.items())
        execute(db, parse_text(f"CREATE TABLE {name}({decl})"))
        for row in ref.gen_rows(rng, columns, n_max=4):
            vals = ", ".join(ref.sql_literal(row[c]) for c in columns)
            execute(db, parse_text(f"INSERT INTO {name} VALUES({vals})"))
        tables[name] = columns
    before = []
    for _ in range(rng.randint(0, 3)):
        name = rng.choice(list(tables))
        columns = tables[name]
        names = list(columns)
        cname = ref.gen_name(rng, used)
        choice = rng.randrange(4)
        if choice == 0:
            text = (f"ALTER TABLE {name} ADD CONSTRAINT {cname} "
                    f"PRIMARY KEY ({rng.choice(names)})")
        elif choice == 1:
            text = (f"ALTER TABLE {name} ADD CONSTRAINT {cname} "
                    f"UNIQUE ({rng.choice(names)})")
        elif choice == 2:
            pred = ref.pred_text(ref.gen_predicate(rng, columns))
            text = (f"ALTER TABLE {name} ADD CONSTRAINT {cname} "
                    f"CHECK ({pred})")
        else:
            col = rng.choice(names)
            text = (f"ALTER TABLE {name} MODIFY {col} "
                    f"{ref.sql_type(columns[col])} NOT NULL")
        state = deepcopy(db)
        try:
            execute(db, parse_text(text))
        except OraError:
            pass  # rows may legitimately reject the constraint
        before += [state] * (len(db.constraints) - len(state.constraints))
    return db, tables, before


def test_criterion_10_snapshot_round_trip():
    rng = random.Random(1310)
    for _ in range(100):
        db, tables, _ = _random_database(rng)
        first = saves(db)
        copy = loads(first)
        assert saves(copy) == first
        assert copy == db
        for name in tables:
            a = execute(db, parse_text(f"SELECT * FROM {name}"))
            b = execute(copy, parse_text(f"SELECT * FROM {name}"))
            assert a.headers == b.headers
            assert a.rows == b.rows

    db = Database()
    for text in ("CREATE TABLE T(A NUMBER(5))",
                 "INSERT INTO T VALUES(1)",
                 "INSERT INTO T VALUES(2)",
                 "ALTER TABLE T ADD CONSTRAINT PK_T PRIMARY KEY (A)"):
        execute(db, parse_text(text))
    good = saves(db)
    for tampered in (
            good.replace("HANDYDB 1", "HANDYDB 9"),
            good.replace("\n2\n", "\n1\n"),
            good.replace("\n1\n", "\n\\N\n", 1),
            good.replace("COL A NUMBER(5) NOTNULL", "COL A NUMBER(5) NULL")):
        try:
            loads(tampered)
        except SnapshotError:
            continue
        raise AssertionError("tampered snapshot accepted")


# Longer than any name ref.gen_name makes, so never in use.
_FRESH = "MUTANT_KEY"
_MUTATIONS = ["second-pk", "renamed", "unknown-column", "repeated-column",
              "notnull-on-pk", "repeated-col-line", "renamed-table"]


def _body(con, columns=None):
    """The ADD CONSTRAINT clause of a PK, UNIQUE or CHECK constraint."""
    if con.kind == "CHECK":
        return f"CHECK ({render_predicate(con.predicate)})"
    keyword = "PRIMARY KEY" if con.kind == "PK" else "UNIQUE"
    return f"{keyword} ({', '.join(columns or con.columns)})"


def _create(name, columns):
    decls = ", ".join(f"{c.name} {type_display(c.type)}" for c in columns)
    return f"CREATE TABLE {name}({decls})"


def _refused_as_create_refuses(db, lines, mutation, data, t):
    """Mutate the TABLE section of db's t-th table and check the error.

    A repeated COL line goes after the line it repeats and fails with
    957, a TABLE line renamed to DUAL, USER_CONSTRAINTS or an earlier
    table's name with 955.
    """
    tables = list(db.tables.values())
    table = tables[t]
    header = lines.index(f"TABLE {table.name}")
    columns = list(table.columns)
    name = table.name
    if mutation == "repeated-col-line":
        j = data.draw(st.integers(0, len(columns) - 1))
        at = header + 1 + data.draw(st.integers(j + 1, len(columns)))
        lines.insert(at, lines[header + 1 + j])
        columns.insert(at - header - 1, columns[j])
    else:
        name = data.draw(st.sampled_from(
            ["DUAL", "USER_CONSTRAINTS"] + [e.name for e in tables[:t]]))
        at = header
        lines[at] = f"TABLE {name}"
    state = Database()
    for earlier in tables[:t]:
        execute(state, parse_text(_create(earlier.name, earlier.columns)))
    with pytest.raises(OraError) as refused:
        execute(state, parse_text(_create(name, columns)))
    assert refused.value.code == (957 if mutation == "repeated-col-line"
                                  else 955)
    with pytest.raises(SnapshotError) as info:
        loads("\n".join(lines))
    assert str(info.value) == (f"line {at + 1}: table {name}: "
                               f"{refused.value}")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(_MUTATIONS), st.data())
def test_mutated_snapshots_refused_as_ddl_refuses(seed, mutation, data):
    """A snapshot line DDL could not have written fails with DDL's error.

    The database of criterion 10 is saved and one CONSTRAINT line is
    changed or added.  loads must refuse it at that line with the ORA
    error that the matching ALTER TABLE ... ADD CONSTRAINT gives on the
    database as it stood when DDL would have reached that line.  A
    NOTNULL line on a PK column has no such error: MODIFY ... NOT NULL
    adds no constraint there, and loads refuses the line.  Or a COL
    line is repeated, or a TABLE line renamed to a built-in or to an
    earlier table, and loads must refuse it with the error CREATE TABLE
    gives there, after the CREATE TABLEs of the tables before it.
    """
    rng = random.Random(seed)
    candidates = []
    while not candidates:  # the next database with a line to mutate
        db, _, before = _random_database(rng)
        keys = [i for i, c in enumerate(db.constraints)
                if c.kind in ("PK", "UNIQUE")]
        if mutation in ("repeated-col-line", "renamed-table"):
            candidates = list(range(len(db.tables)))
        elif mutation in ("second-pk", "notnull-on-pk"):
            candidates = [i for i in keys if db.constraints[i].kind == "PK"]
        elif mutation == "renamed":
            candidates = [i for i, c in enumerate(db.constraints)
                          if i > 0 and c.kind != "NOTNULL"]
        else:
            candidates = keys
    text = saves(db)
    copy = loads(text)
    assert saves(copy) == text
    for name, table in copy.tables.items():
        assert table.keys == [c for c in copy.constraints if c.table == name
                              and c.kind in ("PK", "UNIQUE")]

    lines = text.split("\n")
    if mutation in ("repeated-col-line", "renamed-table"):
        _refused_as_create_refuses(db, lines, mutation, data,
                                   data.draw(st.sampled_from(candidates)))
        return
    # The index of the first CONSTRAINT line: they come just before COUNTER.
    first = next(i for i, line in enumerate(lines)
                 if line.startswith("COUNTER ")) - len(db.constraints)
    i = data.draw(st.sampled_from(candidates))
    con = db.constraints[i]
    state = before[i]  # the database just before con was added
    at = first + i  # con's line, as an index into lines
    if mutation == "second-pk":
        at = first + len(db.constraints)
        lines.insert(at, f"CONSTRAINT {_FRESH} {con.table} PK "
                     f"{','.join(con.columns)}")
        state, ddl = db, f"ADD CONSTRAINT {_FRESH} {_body(con)}"
    elif mutation == "renamed":
        other = db.constraints[data.draw(st.integers(0, i - 1))].name
        lines[at] = f"CONSTRAINT {other} {lines[at].split(' ', 2)[2]}"
        ddl = f"ADD CONSTRAINT {other} {_body(con)}"
    elif mutation == "notnull-on-pk":
        column = data.draw(st.sampled_from(con.columns))
        at = first + len(db.constraints)
        lines.insert(at, f"CONSTRAINT {_FRESH} {con.table} NOTNULL {column}")
        col = db.tables[con.table].columns[
            db.tables[con.table].index_of(column)]
        execute(copy, parse_text(f"ALTER TABLE {con.table} MODIFY {column} "
                                 f"{type_display(col.type)} NOT NULL"))
        assert copy.constraints == db.constraints
        with pytest.raises(SnapshotError) as info:
            loads("\n".join(lines))
        assert str(info.value) == (f"line {at + 1}: table {con.table}: "
                                   f"column {column} is NOT NULL already")
        return
    else:
        columns = list(con.columns)
        if mutation == "unknown-column":
            columns[data.draw(st.integers(0, len(columns) - 1))] = (
                "NO_SUCH_COLUMN")
        else:
            columns.append(data.draw(st.sampled_from(columns)))
        lines[at] = (f"CONSTRAINT {con.name} {con.table} {con.kind} "
                     f"{','.join(columns)}")
        ddl = f"ADD CONSTRAINT {_FRESH} {_body(con, columns)}"
    with pytest.raises(OraError) as refused:
        execute(state, parse_text(f"ALTER TABLE {con.table} {ddl}"))
    with pytest.raises(SnapshotError) as info:
        loads("\n".join(lines))
    assert str(info.value) == (f"line {at + 1}: table {con.table}: "
                               f"{refused.value}")
