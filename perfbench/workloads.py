"""Seeded workload generators.

Each generator turns a seed into the exact text the engine will see,
plus the outcome every statement should have, computed from the
benchmark's own model (model.py).  Sizes and statement counts are fixed
per workload; the seed only chooses values and their order, so runs
with different seeds measure the same amount of work.
"""

from __future__ import annotations

import datetime
import hashlib
import random
from dataclasses import dataclass
from decimal import Decimal

from model import (
    ALTERED, TABLE_CREATED, Column, Table, avg, cell_text, count,
    date_literal, eq, grid, greatest, join, least, ora, total,
)

SIZES = {
    "full": {
        "lab_session": {"labs": 8, "students": 24, "courses": 12},
        "bulk_load": {"rows": 1000},
        "join_report": {"cust": 300, "orders": 300, "ship": 100},
    },
    "smoke": {
        "lab_session": {"labs": 1, "students": 6, "courses": 4},
        "bulk_load": {"rows": 60},
        "join_report": {"cust": 50, "orders": 50, "ship": 50},
    },
}

SYS_NAME_SEED = 5545

NAMES = ("ASHA", "ROHI", "JUHI", "KIRAN", "MEERA", "VIVEK", "TANISH",
         "ANIL", "SUNITA", "RAVI", "NEHA", "AMIT", "POOJA", "SAGAR",
         "DEEPA", "NIKHIL", "KAVYA", "ARJUN", "ISHA", "MANOJ")
CITIES = ("PUNE", "THANE", "DADAR", "KURLA", "CHEMBUR", "NASHIK")
REPORT_CITIES = CITIES[:5]
COURSES = ("MCA", "EXTC", "CHPN", "INFT", "COMP", "MECH", "CIVIL", "ELEC")
DEPTS = ("CS", "IT", "EXTC", "MECH", "CIVIL", "ELEC", "CHEM", "MATHS")
CARRIERS = ("BLUEDART", "DTDC", "FEDEX", "DELHIVERY", "EKART")
STATUSES = ("OPEN", "SHIPPED", "HELD", "CANCELLED")
STATUS_MIX = ("OPEN", "SHIPPED", "SHIPPED", "HELD", "OPEN", "SHIPPED",
              "CANCELLED", "HELD", "OPEN", "SHIPPED")


@dataclass
class Stmt:
    text: str
    binds: list[tuple[str, str]]
    expect: tuple
    kind: str  # "insert" | "select" | "other"


@dataclass
class Workload:
    name: str
    setup: list[Stmt]  # run on an empty Database() when snapshot is None
    snapshot: str | None  # loaded with persistence.loads otherwise
    statements: list[Stmt]
    via_script: bool  # replay through shell.run_script
    round_trip: bool  # check saves(loads(saves(db))) == saves(db)

    def script_text(self) -> str:
        """The statements as a script file for shell.run_script."""
        out = []
        for stmt in self.statements:
            out.extend(f"-- bind {name}={value}" for name, value in stmt.binds)
            out.append(stmt.text + ";")
        return "\n".join(out) + "\n"

    def digest(self) -> str:
        """SHA-256 of everything the engine is given."""
        h = hashlib.sha256()
        h.update(self.snapshot.encode() if self.snapshot else b"")
        for stmt in [*self.setup, *self.statements]:
            h.update(b"\x1e" + stmt.text.encode())
            for name, value in stmt.binds:
                h.update(f"\x1f{name}={value}".encode())
        return h.hexdigest()


def _kind(text: str) -> str:
    word = text.split(None, 1)[0].upper()
    return word.lower() if word in ("INSERT", "SELECT") else "other"


def _stmt(text: str, expect: tuple, binds=()) -> Stmt:
    return Stmt(text, list(binds), expect, _kind(text))


def _sql(value) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, Decimal):
        return format(value, "f")
    if isinstance(value, int):
        return str(value)
    if isinstance(value, datetime.date):
        return f"'{date_literal(value)}'"
    return f"'{value}'"


def _literal_insert(table: Table, values: list, columns=None) -> Stmt:
    """INSERT with literal values; omitted columns become NULL."""
    if columns is None:
        text = (f"INSERT INTO {table.name} VALUES\n"
                f"({', '.join(_sql(v) for v in values)})")
        full = values
    else:
        given = dict(zip(columns, values))
        full = [given.get(c.name) for c in table.columns]
        text = (f"INSERT INTO {table.name} ({', '.join(columns)})\n"
                f"VALUES ({', '.join(_sql(v) for v in values)})")
    return _stmt(text, table.insert(full))


def _bound_insert(table: Table, values: list) -> Stmt:
    """INSERT whose every value arrives through a &NAME substitution."""
    marks, binds = [], []
    for col, value in zip(table.columns, values):
        text = (date_literal(value) if isinstance(value, datetime.date)
                else str(value))
        binds.append((col.name.lower(), text))
        mark = f"&{col.name}"
        marks.append(mark if col.kind == "num" else f"'{mark}'")
    text = f"INSERT INTO {table.name} VALUES ({', '.join(marks)})"
    return _stmt(text, table.insert(values), binds)


def _date(rng: random.Random, first: int, last: int) -> datetime.date:
    start = datetime.date(first, 1, 1).toordinal()
    end = datetime.date(last, 12, 31).toordinal()
    return datetime.date.fromordinal(rng.randint(start, end))


def _spread(rng: random.Random, values, n: int) -> list:
    """n values cycling through `values`, shuffled: fixed counts per value."""
    out = [values[i % len(values)] for i in range(n)]
    rng.shuffle(out)
    return out


def _pick(rows: list[list], *idxs: int) -> list[list]:
    return [[row[i] for i in idxs] for row in rows]


# -- lab_session --------------------------------------------------------


def lab_session(seed: int, size: str = "full") -> Workload:
    """A classroom lab script: many small tables, DDL, binds, planted errors."""
    p = SIZES[size]["lab_session"]
    rng = random.Random(seed)
    dept = Table("DEPT", [Column("DNO", "num", 2), Column("DNAME", "str", 10)])
    setup = [_stmt(dept.create_sql(), TABLE_CREATED),
             _stmt("ALTER TABLE DEPT ADD CONSTRAINT PK_DEPT PRIMARY KEY (DNO)",
                   dept.add_key("PK", "PK_DEPT", ["DNO"]))]
    out: list[Stmt] = []
    for dno, dname in enumerate(DEPTS, start=1):
        out.append(_literal_insert(dept, [dno, dname]))
    sys_counter = SYS_NAME_SEED
    for k in range(p["labs"]):
        stu = Table(f"STU{k}", [
            Column("ROLL", "num", 4), Column("NAME", "str", 12),
            Column("CITY", "str", 10), Column("PHONE", "num", 10),
            Column("DOB", "date"), Column("MARKS", "num", 3)])
        crs = Table(f"CRS{k}", [
            Column("CID", "num", 3), Column("CNAME", "str", 8),
            Column("SROLL", "num", 4), Column("DNO", "num", 2)])
        out += [_stmt(stu.create_sql(), TABLE_CREATED),
                _stmt(crs.create_sql(), TABLE_CREATED),
                _stmt(f"DESC {stu.name}", stu.describe())]
        rolls = rng.sample(range(1, 10000), p["students"] + 1)
        phones = rng.sample(range(9_000_000_000, 9_999_999_999),
                            p["students"] + 1)
        for i in range(p["students"]):
            values = [rolls[i], rng.choice(NAMES), rng.choice(CITIES),
                      phones[i], _date(rng, 1988, 1993), rng.randint(40, 99)]
            if i % 2 == 0:
                out.append(_bound_insert(stu, values))
            elif i % 6 == 1:
                out.append(_literal_insert(
                    stu, [values[0], values[1], values[4], values[5]],
                    ["ROLL", "NAME", "DOB", "MARKS"]))
            else:
                out.append(_literal_insert(stu, values))
        cids = rng.sample(range(1, 1000), p["courses"])
        for j in range(p["courses"]):
            sroll = rolls[j % p["students"]] if j % 4 else 9999 - j
            out.append(_literal_insert(
                crs, [cids[j], COURSES[j % len(COURSES)], sroll,
                      rng.randint(1, len(DEPTS))]))
        out += [
            _stmt(f"ALTER TABLE {stu.name} ADD CONSTRAINT\n"
                  f"PK_{stu.name} PRIMARY KEY (ROLL)",
                  stu.add_key("PK", f"PK_{stu.name}", ["ROLL"])),
            _stmt(f"ALTER TABLE {stu.name}\nADD CONSTRAINT\n"
                  f"UK_{stu.name} UNIQUE(PHONE)",
                  stu.add_key("UNIQUE", f"UK_{stu.name}", ["PHONE"])),
            _stmt(f"ALTER TABLE {stu.name} ADD CONSTRAINT\n"
                  f"CK_{stu.name} CHECK(MARKS >= 35)",
                  stu.add_check(f"CK_{stu.name}",
                                lambda r: None if r[5] is None
                                else r[5] >= 35)),
            _stmt(f"ALTER TABLE {stu.name} MODIFY DOB DATE\nNOT NULL",
                  stu.set_not_null("DOB")),
        ]
        sys_name = f"SYS_C{sys_counter:06d}"
        sys_counter += 1
        stu.columns[1].size = 20
        out += [_stmt(f"ALTER TABLE {stu.name} MODIFY NAME VARCHAR2(20)",
                      ALTERED),
                _stmt(f"DESC {stu.name}", stu.describe())]
        # Planted constraint violations, then one insert that succeeds.
        dob = _date(rng, 1988, 1993)
        out += [
            _literal_insert(stu, [rolls[3], "DUPROLL", "PUNE",
                                  phones[-1], dob, 70]),
            _literal_insert(stu, [rolls[-1], "LOWMARK", "PUNE",
                                  phones[-1], dob, 20]),
            _literal_insert(stu, [rolls[-1], "BIGMARK", "PUNE",
                                  phones[-1], dob, 1000]),
            _bound_insert(stu, [rolls[-1], "LATEJOIN", "THANE",
                                phones[-1], dob, 66]),
        ]
        # Planted syntax and name errors, as a student would type them.
        out += [
            _stmt(f"DELETE FROM {stu.name} WHERE ROLL = {rolls[0]}", ora(900)),
            _stmt(f"SELECT GRADE FROM {stu.name}", ora(904)),
            _stmt(f"SELECT NAME 'TOPPER' FROM {stu.name}", ora(923)),
            _stmt(f"SELECT FROM {stu.name}", ora(936)),
            _stmt(f"SELECT * FROM STUX{k}", ora(942)),
        ]
        out += _lab_queries(rng, stu, crs, dept, sys_name)
    return Workload("lab_session", setup, None, out, via_script=True,
                    round_trip=False)


def _lab_queries(rng, stu, crs, dept, sys_name) -> list[Stmt]:
    s, c = stu.rows, crs.rows
    city = rng.choice(CITIES)
    top = [r for r in s if r[5] >= 70]
    in_city = _pick([r for r in s if eq(r[2], city)], 1, 5)
    marks = [r[5] for r in s]
    both = join(s, c, lambda a, b: eq(a[0], b[2]))
    by_dept = join(c, dept.rows, lambda a, b: eq(a[3], b[0]) and b[0] <= 4)
    return [
        _stmt(f"SELECT * FROM {stu.name} WHERE MARKS >= 70",
              grid(stu.headers(), top)),
        _stmt(f"SELECT NAME, MARKS\nFROM {stu.name}\nWHERE CITY = '{city}'",
              grid(["NAME", "MARKS"], in_city)),
        _stmt(f"SELECT COUNT(*) FROM {stu.name}",
              grid(["COUNT(*)"], [[Decimal(len(s))]])),
        _stmt(f"SELECT AVG(MARKS) AS AVG_MARKS, MAX(MARKS) TOP,\n"
              f"MIN(DOB) AS OLDEST FROM {stu.name}",
              grid(["AVG_MARKS", "TOP", "OLDEST"],
                   [[avg(marks), greatest(marks), least(r[4] for r in s)]])),
        _stmt(f"SELECT S.NAME, C.CNAME FROM {stu.name} S, {crs.name} C\n"
              f"WHERE S.ROLL = C.SROLL",
              grid(["NAME", "CNAME"], _pick(both, 1, 7))),
        _stmt(f"SELECT * FROM {stu.name} S INNER JOIN {crs.name} C\n"
              f"ON S.ROLL = C.SROLL",
              grid(stu.headers() + crs.headers(), both)),
        _stmt(f"SELECT C.CNAME, D.DNAME FROM {crs.name} C, DEPT D\n"
              f"WHERE C.DNO = D.DNO AND D.DNO <= 4",
              grid(["CNAME", "DNAME"], _pick(by_dept, 1, 5))),
        _stmt(f"SELECT CONSTRAINT_NAME FROM\nUSER_CONSTRAINTS WHERE\n"
              f"TABLE_NAME='{stu.name}'",
              grid(["CONSTRAINT_NAME"],
                   [[name] for name in (f"PK_{stu.name}", f"UK_{stu.name}",
                                        f"CK_{stu.name}", sys_name)])),
    ]


# -- bulk_load ----------------------------------------------------------


def bulk_load(seed: int, size: str = "full") -> Workload:
    """Bound INSERTs into one constrained table, point reads beside."""
    n = SIZES[size]["bulk_load"]["rows"]
    rng = random.Random(seed)
    t = Table("READINGS", [
        Column("ID", "num", 8), Column("SENSOR", "str", 12),
        Column("SERIAL", "str", 16), Column("VAL", "num", 6),
        Column("TAKEN", "date")])
    setup = [
        _stmt(t.create_sql(), TABLE_CREATED),
        _stmt("ALTER TABLE READINGS ADD CONSTRAINT PK_READINGS "
              "PRIMARY KEY (ID)", t.add_key("PK", "PK_READINGS", ["ID"])),
        _stmt("ALTER TABLE READINGS ADD CONSTRAINT UK_READINGS "
              "UNIQUE (SERIAL)", t.add_key("UNIQUE", "UK_READINGS",
                                           ["SERIAL"])),
        _stmt("ALTER TABLE READINGS ADD CONSTRAINT CK_READINGS "
              "CHECK (VAL >= 0 AND VAL <= 99999)",
              t.add_check("CK_READINGS", lambda r: None if r[3] is None
                          else 0 <= r[3] <= 99999)),
        _stmt("ALTER TABLE READINGS MODIFY SENSOR VARCHAR2(12) NOT NULL",
              t.set_not_null("SENSOR")),
    ]
    ids = rng.sample(range(1, 10**8), n)
    serials = [f"SN{x:010d}" for x in rng.sample(range(10**10), n)]
    # About 5% of inserts are planted violations, at fixed counts per
    # kind, never before row 20 so every kind has rows to collide with.
    planted = dict(zip(rng.sample(range(20, n), n // 20),
                       _spread(rng, ("dup_id", "dup_serial", "check",
                                     "null"), n // 20)))
    out: list[Stmt] = []
    for i in range(n):
        row = [ids[i], f"S{rng.randint(1, 64):03d}", serials[i],
               rng.randint(0, 99999), _date(rng, 2020, 2024)]
        bad = planted.get(i)
        if bad == "dup_id":
            row[0] = rng.choice(t.rows)[0]
        elif bad == "dup_serial":
            row[2] = rng.choice(t.rows)[2]
        elif bad == "check":
            row[3] = -rng.randint(1, 500)
        elif bad == "null":
            row[1] = None
        if bad == "null" or i % 5 == 4:
            out.append(_literal_insert(t, row[:4],
                                       ["ID", "SENSOR", "SERIAL", "VAL"]))
        else:
            out.append(_bound_insert(t, row))
        if i % 9 == 8:
            key = rng.choice(t.rows)[0] if i % 10 else ids[-1] + 1
            hits = [r for r in t.rows if r[0] == key]
            out.append(_stmt(f"SELECT * FROM READINGS WHERE ID = {key}",
                             grid(t.headers(), hits)))
    return Workload("bulk_load", setup, None, out, via_script=False,
                    round_trip=True)


# -- join_report --------------------------------------------------------


def _snapshot(tables: list[Table], constraints: list[str]) -> str:
    """A database in the engine's snapshot format (HANDYDB 1)."""
    lines = ["HANDYDB 1"]
    for t in tables:
        lines.append(f"TABLE {t.name}")
        for col in t.columns:
            null = "NOTNULL" if col.name in t.not_null else "NULL"
            lines.append(f"COL {col.name} {col.display()} {null}")
    lines += constraints
    lines.append(f"COUNTER {SYS_NAME_SEED}")
    for t in tables:
        lines.append(f"ROWS {t.name}")
        for row in t.rows:
            lines.append("\t".join(
                "\\N" if v is None
                else v.isoformat() if isinstance(v, datetime.date)
                else cell_text(v) for v in row))
    return "\n".join(lines) + "\n"


def join_report(seed: int, size: str = "full") -> Workload:
    """A fixed report of joins, aggregates and scans over a loaded snapshot."""
    p = SIZES[size]["join_report"]
    rng = random.Random(seed)
    cust = Table("CUST", [
        Column("CID", "num", 6), Column("CNAME", "str", 16),
        Column("CITY", "str", 10), Column("TIER", "num", 2)])
    orders = Table("ORDERS", [
        Column("OID", "num", 8), Column("CID", "num", 6),
        Column("AMOUNT", "num", 9, 2), Column("STATUS", "str", 9),
        Column("ODATE", "date")])
    ship = Table("SHIP", [
        Column("SID", "num", 8), Column("OID", "num", 8),
        Column("CARRIER", "str", 10), Column("DAYS", "num", 3)])
    constraints = []
    for t, kind, name, cols in (
            (cust, "PK", "PK_CUST", ["CID"]),
            (cust, "UNIQUE", "UK_CUST", ["CNAME"]),
            (orders, "PK", "PK_ORDERS", ["OID"]),
            (ship, "PK", "PK_SHIP", ["SID"]),
            (ship, "UNIQUE", "UK_SHIP", ["OID"])):
        t.add_key(kind, name, cols)
        constraints.append(f"CONSTRAINT {name} {t.name} {kind} {cols[0]}")

    nc, no, ns = p["cust"], p["orders"], p["ship"]
    cids = rng.sample(range(1, 10**6), nc)
    names = [f"{rng.choice(NAMES)}{x:05d}" for x in rng.sample(range(10**5),
                                                               nc)]
    # Values that filters select on are dealt from fixed combinations,
    # so every section returns the same number of rows for every seed.
    for row in zip(cids, names, _spread(rng, [(c, t) for c in REPORT_CITIES
                                              for t in (None, 1, 2, 3, 4)],
                                        nc)):
        cust.insert([row[0], row[1], *row[2]])
    # Every customer has exactly one order, so join sizes do not depend
    # on the seed either; only which rows pair up does.
    oids = rng.sample(range(1, 10**8), no)
    owners = rng.sample(cids, nc)
    # Amount band 0 is NULL; band k holds amounts from k*200 to k*200+199.99.
    deals = _spread(rng, [(st, band) for st in STATUS_MIX
                          for band in range(5)], no)
    for i, (status, band) in enumerate(deals):
        amount = (None if band == 0
                  else Decimal(band * 20000 + rng.randint(0, 19999)).scaleb(-2))
        orders.insert([oids[i], owners[i % nc], amount, status,
                       _date(rng, 2021, 2023)])
    shipped = rng.sample(oids, ns)
    legs = _spread(rng, [(c, d) for c in CARRIERS
                         for d in (None, *range(1, 10))], ns)
    for sid, oid, (carrier, days) in zip(rng.sample(range(1, 10**8), ns),
                                         shipped, legs):
        ship.insert([sid, oid, carrier, days])
    log = Table("REPORT_LOG", [
        Column("SECTION", "num", 3), Column("TITLE", "str", 12),
        Column("ROWS_OUT", "num", 6)])
    log.add_key("PK", "PK_REPORT_LOG", ["SECTION"])
    constraints.append("CONSTRAINT PK_REPORT_LOG REPORT_LOG PK SECTION")
    snapshot = _snapshot([cust, orders, ship, log], constraints)
    # The report logs each section it has produced, except the last, so
    # insert latency is measured on this workload too (42 small INSERTs
    # beside 43 queries).
    out: list[Stmt] = []
    queries = _report(cust, orders, ship)
    for section, query in enumerate(queries, start=1):
        out.append(query)
        if section < len(queries):
            out.append(_bound_insert(log, [section, f"SECTION{section:02d}",
                                           query.expect[1]]))
    return Workload("join_report", [], snapshot, out, via_script=False,
                    round_trip=True)


def _report(cust: Table, orders: Table, ship: Table) -> list[Stmt]:
    c, o, s = cust.rows, orders.rows, ship.rows
    co = join(c, o, lambda a, b: eq(a[0], b[1]))
    os_ = join(o, s, lambda a, b: eq(a[0], b[1]))
    open_co = _pick([r for r in co if r[7] == "OPEN"], 1, 4, 6)
    slow = _pick([r for r in os_ if r[8] is not None and r[8] > 5], 0, 7, 8)
    shipped = [r[2] for r in o if r[3] == "SHIPPED"]
    not_pune = [r for r in c if r[2] != "PUNE"]
    untiered = [r[6] for r in co if r[3] is None]
    return [
        _stmt("SELECT C.CNAME, O.OID, O.AMOUNT FROM CUST C, ORDERS O\n"
              "WHERE C.CID = O.CID AND O.STATUS = 'OPEN'",
              grid(["CNAME", "OID", "AMOUNT"], open_co)),
        _stmt("SELECT C.CNAME, O.OID, O.AMOUNT FROM CUST C\n"
              "INNER JOIN ORDERS O ON C.CID = O.CID\n"
              "WHERE O.STATUS = 'OPEN'",
              grid(["CNAME", "OID", "AMOUNT"], open_co)),
        _stmt("SELECT O.OID, S.CARRIER, S.DAYS FROM ORDERS O, SHIP S\n"
              "WHERE O.OID = S.OID AND S.DAYS > 5",
              grid(["OID", "CARRIER", "DAYS"], slow)),
        _stmt("SELECT O.OID, S.CARRIER, S.DAYS FROM ORDERS O\n"
              "INNER JOIN SHIP S ON O.OID = S.OID WHERE S.DAYS > 5",
              grid(["OID", "CARRIER", "DAYS"], slow)),
        _stmt("SELECT COUNT(*) AS N, COUNT(AMOUNT) AS PRICED,\n"
              "SUM(AMOUNT) AS TOTAL, AVG(AMOUNT) AS MEAN,\n"
              "MIN(AMOUNT) AS LO, MAX(AMOUNT) AS HI\n"
              "FROM ORDERS WHERE STATUS = 'SHIPPED'",
              grid(["N", "PRICED", "TOTAL", "MEAN", "LO", "HI"],
                   [[Decimal(len(shipped)), count(shipped), total(shipped),
                     avg(shipped), least(shipped), greatest(shipped)]])),
        _stmt("SELECT COUNT(TIER) AS TIERED, AVG(TIER) AS MEAN_TIER,\n"
              "MIN(CNAME) AS FIRST_NAME, MAX(CITY) AS LAST_CITY\n"
              "FROM CUST WHERE CITY != 'PUNE'",
              grid(["TIERED", "MEAN_TIER", "FIRST_NAME", "LAST_CITY"],
                   [[count([r[3] for r in not_pune]),
                     avg([r[3] for r in not_pune]),
                     least([r[1] for r in not_pune]),
                     greatest([r[2] for r in not_pune])]])),
        _stmt("SELECT COUNT(*), SUM(O.AMOUNT) FROM CUST C, ORDERS O\n"
              "WHERE C.CID = O.CID AND C.TIER IS NULL",
              grid(["COUNT(*)", "SUM(O.AMOUNT)"],
                   [[Decimal(len(untiered)), total(untiered)]])),
        _stmt("SELECT MIN(O.ODATE) AS FIRST_ORDER,\n"
              "MAX(O.ODATE) AS LAST_ORDER, AVG(S.DAYS) AS MEAN_DAYS\n"
              "FROM ORDERS O INNER JOIN SHIP S ON O.OID = S.OID",
              grid(["FIRST_ORDER", "LAST_ORDER", "MEAN_DAYS"],
                   [[least([r[4] for r in os_]),
                     greatest([r[4] for r in os_]),
                     avg([r[8] for r in os_])]])),
        _stmt("SELECT * FROM ORDERS", grid(orders.headers(), o)),
        _stmt("SELECT * FROM CUST", grid(cust.headers(), c)),
        _stmt("SELECT * FROM SHIP", grid(ship.headers(), s)),
        _stmt("SELECT * FROM CUST C INNER JOIN ORDERS O ON C.CID = O.CID",
              grid(cust.headers() + orders.headers(), co)),
        _stmt("SELECT CNAME, CITY, TIER FROM CUST\n"
              "WHERE TIER >= 3 OR TIER IS NULL",
              grid(["CNAME", "CITY", "TIER"],
                   _pick([r for r in c if r[3] is None or r[3] >= 3],
                         1, 2, 3))),
        _stmt("SELECT OID, AMOUNT FROM ORDERS\n"
              "WHERE AMOUNT IS NULL OR (AMOUNT > 600 AND\n"
              "STATUS != 'CANCELLED')",
              grid(["OID", "AMOUNT"],
                   _pick([r for r in o if r[2] is None
                          or (r[2] > 600 and r[3] != "CANCELLED")], 0, 2))),
        _stmt("SELECT C.CITY, O.STATUS, O.AMOUNT FROM CUST C, ORDERS O\n"
              "WHERE C.CID = O.CID AND NOT (C.CITY = 'PUNE')\n"
              "AND O.AMOUNT IS NOT NULL",
              grid(["CITY", "STATUS", "AMOUNT"],
                   _pick([r for r in co if r[2] != "PUNE"
                          and r[6] is not None], 2, 7, 6))),
        *_sections(c, o, s, os_),
    ]


def _sections(c, o, s, os_) -> list[Stmt]:
    """Per-city, per-status and per-carrier sections of the report."""
    out = []
    for city in REPORT_CITIES:
        here = [r for r in c if r[2] == city]
        tiers = [r[3] for r in here]
        out += [
            _stmt(f"SELECT CNAME, TIER FROM CUST WHERE CITY = '{city}'\n"
                  "AND (TIER IS NULL OR TIER >= 2)",
                  grid(["CNAME", "TIER"],
                       _pick([r for r in here
                              if r[3] is None or r[3] >= 2], 1, 3))),
            _stmt("SELECT COUNT(*) AS N, COUNT(TIER) AS TIERED,\n"
                  f"AVG(TIER) AS MEAN_TIER FROM CUST WHERE CITY = '{city}'",
                  grid(["N", "TIERED", "MEAN_TIER"],
                       [[Decimal(len(here)), count(tiers), avg(tiers)]])),
        ]
    for status in STATUSES:
        here = [r for r in o if r[3] == status]
        amounts = [r[2] for r in here]
        days = [r[4] for r in here]
        out += [
            _stmt("SELECT COUNT(*) AS N, SUM(AMOUNT) AS TOTAL,\n"
                  "AVG(AMOUNT) AS MEAN, MIN(ODATE) AS FIRST_DAY,\n"
                  "MAX(ODATE) AS LAST_DAY FROM ORDERS\n"
                  f"WHERE STATUS = '{status}'",
                  grid(["N", "TOTAL", "MEAN", "FIRST_DAY", "LAST_DAY"],
                       [[Decimal(len(here)), total(amounts), avg(amounts),
                         least(days), greatest(days)]])),
            _stmt("SELECT OID, AMOUNT, ODATE FROM ORDERS\n"
                  f"WHERE STATUS = '{status}' AND AMOUNT >= 600",
                  grid(["OID", "AMOUNT", "ODATE"],
                       _pick([r for r in here if r[2] is not None
                              and r[2] >= 600], 0, 2, 4))),
        ]
    for carrier in CARRIERS:
        here = [r for r in s if r[2] == carrier]
        days = [r[3] for r in here]
        out += [
            _stmt("SELECT O.OID, O.STATUS, S.DAYS FROM ORDERS O\n"
                  "INNER JOIN SHIP S ON O.OID = S.OID\n"
                  f"WHERE S.CARRIER = '{carrier}'",
                  grid(["OID", "STATUS", "DAYS"],
                       _pick([r for r in os_ if r[7] == carrier],
                             0, 3, 8))),
            _stmt("SELECT COUNT(*) AS N, COUNT(DAYS) AS TIMED,\n"
                  "AVG(DAYS) AS MEAN_DAYS, MAX(DAYS) AS WORST\n"
                  f"FROM SHIP WHERE CARRIER = '{carrier}'",
                  grid(["N", "TIMED", "MEAN_DAYS", "WORST"],
                       [[Decimal(len(here)), count(days), avg(days),
                         greatest(days)]])),
        ]
    return out


GENERATORS = {
    "lab_session": lab_session,
    "bulk_load": bulk_load,
    "join_report": join_report,
}
