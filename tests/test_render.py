from handysql.parser import parse_text
from handysql.render import render_predicate
from reference import render_statement


def round_trips(text):
    tree = parse_text(text)
    rendered = render_statement(tree)
    assert parse_text(rendered) == tree
    return rendered


def test_create_table_rendering():
    assert round_trips(
        "create table t(a number(2), b varchar(20), c integer)"
    ) == "CREATE TABLE T (A NUMBER(2), B VARCHAR(20), C INTEGER)"


def test_describe_rendering():
    assert round_trips("desc students") == "DESC STUDENTS"


def test_insert_rendering_escapes_quotes():
    assert round_trips(
        "insert into t values(1, 'it''s', null)"
    ) == "INSERT INTO T VALUES (1, 'it''s', NULL)"


def test_insert_with_column_list():
    assert round_trips(
        "insert into t(a, b) values(-2.5, 'X')"
    ) == "INSERT INTO T (A, B) VALUES (-2.5, 'X')"


def test_select_star_and_where():
    assert round_trips(
        "select * from t where a >= 1 and b is not null"
    ) == "SELECT * FROM T WHERE A >= 1 AND B IS NOT NULL"


def test_select_aliases():
    assert round_trips(
        'select count(s_marks) as toal_marks, a x, b as "Why" from t'
    ) == 'SELECT COUNT(S_MARKS) TOAL_MARKS, A X, B "Why" FROM T'


def test_join_forms():
    assert round_trips(
        "select * from students s, course c where s.s_roll = c.c_sroll"
    ) == ("SELECT * FROM STUDENTS S, COURSE C "
          "WHERE S.S_ROLL = C.C_SROLL")
    assert round_trips(
        "select * from students s inner join course c on s.s_roll=c.c_sroll"
    ) == ("SELECT * FROM STUDENTS S INNER JOIN COURSE C "
          "ON S.S_ROLL = C.C_SROLL")


def test_alter_forms():
    assert round_trips(
        "alter table t add constraint pk primary key(a, b)"
    ) == "ALTER TABLE T ADD CONSTRAINT PK PRIMARY KEY (A, B)"
    assert round_trips(
        "alter table t add constraint c check(a > 0 or a is null)"
    ) == "ALTER TABLE T ADD CONSTRAINT C CHECK (A > 0 OR A IS NULL)"
    assert round_trips(
        "alter table t modify a number(10,4) not null"
    ) == "ALTER TABLE T MODIFY A NUMBER(10,4) NOT NULL"


def test_fallback_body_rendering():
    assert round_trips(
        "alter table t add constraint nn dob notnull"
    ) == "ALTER TABLE T ADD CONSTRAINT NN DOB NOTNULL"


RENDERED_PREDICATES = [
    ("A = 1 OR B = 2 AND C = 3", "A = 1 OR B = 2 AND C = 3"),
    ("(A = 1 OR B = 2) AND C = 3", "(A = 1 OR B = 2) AND C = 3"),
    ("(A = 1 AND B = 2) OR C = 3", "A = 1 AND B = 2 OR C = 3"),
    ("NOT (A = 1 AND B = 2)", "NOT (A = 1 AND B = 2)"),
    ("NOT A = 1", "NOT A = 1"),
    ("NOT (A = 1) OR NOT (B = 2 OR C IS NULL)",
     "NOT A = 1 OR NOT (B = 2 OR C IS NULL)"),
    # A group of its chain's own op joins the chain.
    ("A = 1 OR (B = 2 OR C = 3)", "A = 1 OR B = 2 OR C = 3"),
    ("A = 1 AND (B = 2 AND C = 3) AND D = 4",
     "A = 1 AND B = 2 AND C = 3 AND D = 4"),
    ("A = 1 AND ((B = 2 OR (C = 3 OR D = 4)) AND E = 5)",
     "A = 1 AND (B = 2 OR C = 3 OR D = 4) AND E = 5"),
]


def test_predicate_parenthesization_preserves_shape():
    for text, rendered in RENDERED_PREDICATES:
        tree = parse_text(f"SELECT * FROM T WHERE {text}").where
        assert render_predicate(tree) == rendered, text
        reparsed = parse_text(f"SELECT * FROM T WHERE {rendered}").where
        assert reparsed == tree, (text, rendered)


def test_canonical_operator_spelling():
    assert round_trips("select * from t where a<>1") == \
        "SELECT * FROM T WHERE A != 1"


def test_multiline_input_renders_on_one_line():
    rendered = round_trips(
        "CREATE TABLE STUDENTS(S_ROLL NUMBER(2),\n"
        "S_NAME VARCHAR(20),\nS_ADDRESS VARCHAR(20),\n"
        "S_PHONE NUMBER(10),\nDOB DATE,\nS_MARKS INTEGER)")
    assert "\n" not in rendered
