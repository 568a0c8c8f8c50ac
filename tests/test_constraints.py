import datetime
from decimal import Decimal
from fractions import Fraction

from hypothesis import given, settings, strategies as st

import reference
from handysql.catalog import (ColumnSchema, ConstraintDef, Database, Table,
                              check_constraint)
from handysql.constraints import (DUPLICATE_KEY, FAILED_PREDICATE,
                                  NULL_COLUMN, check_row, validate_existing)
from handysql.parser import parse_standalone_predicate
from handysql.values import DateType, NumberType, Varchar2Type


SCHEMA = Table("T", [
    ColumnSchema("A", NumberType(5)),
    ColumnSchema("B", NumberType(5)),
    ColumnSchema("C", Varchar2Type(10)),
])


def build_catalog(*constraints):
    return Database(tables={"T": SCHEMA}, constraints=list(constraints))


def pk(*columns):
    return ConstraintDef("PK_T", "T", "PK", columns=columns)


def unique(name, *columns):
    return ConstraintDef(name, "T", "UNIQUE", columns=columns)


def check(name, text):
    return check_constraint(name, SCHEMA, parse_standalone_predicate(text))


def notnull(name, column):
    return ConstraintDef(name, "T", "NOTNULL", columns=(column,))


def row(a=None, b=None, c=None):
    def conv(v):
        return Decimal(v) if isinstance(v, int) else v
    return [conv(a), conv(b), c]


def test_clean_row_passes():
    cat = build_catalog(pk("A"))
    assert check_row(cat, "T", row(a=1), []) is None


def test_not_null_flags_fire_in_column_order():
    cat = build_catalog(notnull("N_A", "A"), notnull("N_B", "B"))
    v = check_row(cat, "T", row(), [row(a=0, b=0)])
    assert v.reason == NULL_COLUMN
    assert v.constraint.name == "N_A"
    assert v.row_ordinal == 1


def test_null_in_pk_column_reports_pk_constraint():
    cat = build_catalog(pk("A"))
    v = check_row(cat, "T", row(b=2), [])
    assert v.reason == NULL_COLUMN
    assert v.constraint.name == "PK_T"


def test_null_reports_first_constraint_covering_column():
    for first, second in ((notnull("N_A", "A"), pk("A")),
                          (pk("A"), notnull("N_A", "A"))):
        cat = build_catalog(first, second)
        v = check_row(cat, "T", row(), [])
        assert v.reason == NULL_COLUMN
        assert v.constraint is first


def test_not_null_outranks_unique_scan():
    cat = build_catalog(unique("U_B", "B"), notnull("N_C", "C"))
    v = check_row(cat, "T", row(b=7), [row(b=7, c="x")])
    assert v.reason == NULL_COLUMN
    assert v.constraint.name == "N_C"


def test_duplicate_key_reports_clashing_ordinal():
    cat = build_catalog(pk("A"))
    existing = [row(a=1), row(a=2), row(a=3)]
    v = check_row(cat, "T", row(a=2), existing)
    assert v.reason == DUPLICATE_KEY
    assert v.row_ordinal == 1


def test_unique_ignores_null_keys():
    cat = build_catalog(unique("U_B", "B"))
    existing = [row(b=None), row(b=None)]
    assert check_row(cat, "T", row(b=None), existing) is None


def test_composite_unique_ignores_partial_null():
    cat = build_catalog(unique("U_BC", "B", "C"))
    existing = [row(b=1, c=None)]
    assert check_row(cat, "T", row(b=1, c=None), existing) is None
    v = check_row(cat, "T", row(b=1, c="x"), existing + [row(b=1, c="x")])
    assert v.reason == DUPLICATE_KEY


def test_check_unknown_passes_and_false_fails():
    cat = build_catalog(check("CH", "B >= 60"))
    assert check_row(cat, "T", row(b=None), []) is None
    assert check_row(cat, "T", row(b=60), []) is None
    v = check_row(cat, "T", row(b=59), [])
    assert v.reason == FAILED_PREDICATE
    assert v.constraint.name == "CH"


def test_constraints_scan_in_creation_order():
    cat = build_catalog(check("FIRST", "B >= 10"), unique("U_B", "B"))
    v = check_row(cat, "T", row(b=5), [row(b=5)])
    assert v.constraint.name == "FIRST"
    cat2 = build_catalog(unique("U_B", "B"), check("LAST", "B >= 10"))
    v2 = check_row(cat2, "T", row(b=5), [row(b=5)])
    assert v2.constraint.name == "U_B"


def test_validate_existing_notnull():
    cat = build_catalog()
    v = validate_existing(cat, "T", notnull("N_B", "B"),
                          [row(b=1), row(), row(b=2)])
    assert v.reason == NULL_COLUMN
    assert v.row_ordinal == 1
    assert validate_existing(cat, "T", notnull("N_B", "B"),
                             [row(b=1)]) is None


def test_validate_existing_check():
    cat = build_catalog()
    rows = [row(b=80), row(b=None), row(b=50)]
    v = validate_existing(cat, "T", check("CH", "B >= 60"), rows)
    assert v.reason == FAILED_PREDICATE
    assert v.row_ordinal == 2


def test_validate_existing_pk_rejects_null_before_dups():
    cat = build_catalog()
    rows = [row(a=1), row(), row(a=1)]
    v = validate_existing(cat, "T", pk("A"), rows)
    assert v.reason == NULL_COLUMN
    assert v.row_ordinal == 1


def test_validate_existing_pk_duplicate():
    cat = build_catalog()
    rows = [row(a=1), row(a=2), row(a=1)]
    v = validate_existing(cat, "T", pk("A"), rows)
    assert v.reason == DUPLICATE_KEY
    assert v.row_ordinal == 2


def test_validate_existing_unique_allows_nulls():
    cat = build_catalog()
    rows = [row(b=None), row(b=None), row(b=4)]
    assert validate_existing(cat, "T", unique("U_B", "B"), rows) is None


# Numbers spelled at several scales, so equal keys differ in Decimal form.
_NUMBERS = ("0", "1", "1.0", "1.00", "-1", "-1.0", "2.5", "2.50")
_REASONS = {NULL_COLUMN: "null", DUPLICATE_KEY: "duplicate"}
KEY_TABLE = Table("T", [
    ColumnSchema("A", NumberType(5, 2)),
    ColumnSchema("B", NumberType(5, 2)),
    ColumnSchema("C", Varchar2Type(10)),
    ColumnSchema("D", DateType()),
])


@st.composite
def key_tables(draw):
    """Rows of KEY_TABLE as dicts, and a key, NOT NULL or not over them."""
    kind = draw(st.sampled_from(["PK", "UNIQUE", "NOTNULL"]))
    columns = draw(st.lists(st.sampled_from("ABCD"), min_size=1,
                            max_size=1 if kind == "NOTNULL" else 4,
                            unique=True))
    cell = {"A": st.sampled_from(_NUMBERS).map(Decimal),
            "B": st.sampled_from(_NUMBERS).map(Decimal),
            "C": st.sampled_from(("x", "y")),
            "D": st.dates(datetime.date(2020, 1, 1),
                          datetime.date(2020, 1, 3))}
    rows = draw(st.lists(st.fixed_dictionaries(
        {c: st.one_of(st.none(), cell[c]) for c in "ABCD"}), max_size=30))
    return kind, tuple(columns), rows


@settings(max_examples=300)
@given(key_tables())
def test_validate_existing_keys_match_reference(table):
    kind, columns, rows = table
    candidate = ConstraintDef("K_T", "T", kind, columns=columns)
    violation = validate_existing(
        Database(tables={"T": KEY_TABLE}), "T", candidate,
        [[r["A"], r["B"], r["C"], r["D"]] for r in rows])
    as_fractions = [{c: Fraction(v) if isinstance(v, Decimal) else v
                     for c, v in r.items()} for r in rows]
    if kind == "NOTNULL":
        expected = next((("null", i) for i, r in enumerate(as_fractions)
                         if reference.null_violation(r, columns)), None)
    else:
        expected = reference.existing_key_violation(as_fractions, columns,
                                                    kind == "PK")
    if expected is None:
        assert violation is None
    else:
        assert violation is not None and violation.constraint is candidate
        assert (_REASONS[violation.reason], violation.row_ordinal) == expected


# CHECK predicates over KEY_TABLE, as SQL and as reference tuples.
_CHECKS = (
    ("A >= 0", ("cmp", ">=", ("col", "A"), ("lit", 0))),
    ("A < B OR D IS NULL",
     ("or", ("cmp", "<", ("col", "A"), ("col", "B")),
      ("isnull", ("col", "D"), False))),
    ("NOT (C = 'x')", ("not", ("cmp", "=", ("col", "C"), ("lit", "x")))),
)
_ROW_REASONS = {NULL_COLUMN: "null", DUPLICATE_KEY: "duplicate",
                FAILED_PREDICATE: "check"}


@st.composite
def checked_rows(draw):
    """Constraints on KEY_TABLE, stored rows and a candidate row.

    Each constraint comes with its reference.row_violation triple.
    Keys span one or two columns and at most one is a PRIMARY KEY.
    Rows need not meet the constraints, and the candidate is often a
    stored row with its numbers at another scale.
    """
    constraints = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["NOTNULL", "PK", "UNIQUE", "CHECK"]))
        if kind == "PK" and any(c.kind == "PK" for c, _ in constraints):
            kind = "UNIQUE"
        name = f"C{i}"
        if kind == "CHECK":
            text, pred = draw(st.sampled_from(_CHECKS))
            constraints.append((check_constraint(
                name, KEY_TABLE, parse_standalone_predicate(text)),
                ("check", (), pred)))
            continue
        columns = tuple(draw(st.lists(
            st.sampled_from("ABCD"), min_size=1,
            max_size=1 if kind == "NOTNULL" else 2, unique=True)))
        constraints.append((ConstraintDef(name, "T", kind, columns=columns),
                            (kind.lower(), columns, None)))
    cell = {"A": st.sampled_from(_NUMBERS).map(Decimal),
            "B": st.sampled_from(_NUMBERS).map(Decimal),
            "C": st.sampled_from(("x", "y")),
            "D": st.dates(datetime.date(2020, 1, 1),
                          datetime.date(2020, 1, 2))}
    # A quarter of the cells are NULL.
    row = st.tuples(*(st.one_of(st.none(), cell[c], cell[c], cell[c])
                      for c in "ABCD")).map(list)
    existing = draw(st.lists(row, max_size=12))
    if existing and draw(st.booleans()):
        candidate = [v.quantize(Decimal("0.001")) if isinstance(v, Decimal)
                     else v for v in draw(st.sampled_from(existing))]
    else:
        candidate = draw(row)
    return constraints, existing, candidate


def _as_dict(row):
    return {c: Fraction(v) if isinstance(v, Decimal) else v
            for c, v in zip("ABCD", row)}


@settings(max_examples=400)
@given(checked_rows())
def test_check_row_matches_brute_force_oracle(case):
    """check_row reports reference.row_violation's constraint and ordinal."""
    constraints, existing, candidate = case
    db = Database(tables={"T": KEY_TABLE},
                  constraints=[c for c, _ in constraints])
    violation = check_row(db, "T", candidate, existing)
    expected = reference.row_violation(
        [triple for _, triple in constraints], "ABCD",
        [_as_dict(r) for r in existing], _as_dict(candidate))
    if expected is None:
        assert violation is None
    else:
        assert violation is not None
        index = next(i for i, (c, _) in enumerate(constraints)
                     if c is violation.constraint)
        assert (index, _ROW_REASONS[violation.reason],
                violation.row_ordinal) == expected
