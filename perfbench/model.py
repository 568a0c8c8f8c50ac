"""The benchmark's own model of the data, and the outcomes it expects.

Every statement the generators emit carries an expected outcome that is
computed here, in plain Python, from the benchmark's own copy of the
rows.  Nothing in this module imports the engine.  An outcome is one of

    ("feedback", text)           e.g. ("feedback", "1 row created.")
    ("ora", code)                e.g. ("ora", 1) for ORA-00001
    ("rows", count, checksum)    a result grid or a DESC listing

where the checksum is a SHA-256 over the header cells and then every
cell of every row, in order, as the shell displays them.
"""

from __future__ import annotations

import datetime
import hashlib
import re
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal, localcontext
from fractions import Fraction

MONTHS = ("JAN", "FEB", "MAR", "APR", "MAY", "JUN",
          "JUL", "AUG", "SEP", "OCT", "NOV", "DEC")

CREATED = ("feedback", "1 row created.")
TABLE_CREATED = ("feedback", "Table created.")
ALTERED = ("feedback", "Table altered.")


def ora(code: int) -> tuple:
    return ("ora", code)


def date_text(d: datetime.date) -> str:
    """The shell's output form, DD-MON-YY."""
    return f"{d.day:02d}-{MONTHS[d.month - 1]}-{d.year % 100:02d}"


def date_literal(d: datetime.date) -> str:
    """An input form the engine accepts, DD-MON-YYYY."""
    return f"{d.day:02d}-{MONTHS[d.month - 1]}-{d.year:04d}"


def cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Decimal):
        return format(value, "f")
    if isinstance(value, datetime.date):
        return date_text(value)
    return value


def grid(headers: list[str], rows: list[list]) -> tuple:
    """Expected outcome of a result grid with these headers and cells."""
    return grid_of_text(headers, [[cell_text(v) for v in row] for row in rows])


def grid_of_text(headers: list[str], rows: list[list[str]]) -> tuple:
    """("rows", count, checksum); "no rows selected" shows no headers."""
    if not rows:
        return ("rows", 0, "")
    h = hashlib.sha256()
    h.update("\x1f".join(headers).encode())
    for row in rows:
        h.update(b"\x1e")
        h.update("\x1f".join(row).encode())
    return ("rows", len(rows), h.hexdigest())


def observed(block: list[str]) -> tuple:
    """The outcome the shell's output block shows, in grid() terms."""
    lines = [line for line in block if not line.startswith("Enter value for ")]
    for line in lines:
        if line.startswith("ORA-"):
            return ora(int(line[4:9]))
    for i, line in enumerate(lines):
        if i and "-" in line and not line.strip("- "):
            cols = [(m.start(), m.end()) for m in re.finditer(r"-+", line)]
            rows = []
            for text in lines[i + 1:]:
                if not text:
                    break
                rows.append([text[a:b].strip() for a, b in cols])
            return grid_of_text([lines[i - 1][a:b].strip() for a, b in cols],
                                rows)
    shown = [line for line in lines if line]
    if shown == ["no rows selected"]:
        return ("rows", 0, "")
    return ("feedback", " ".join(shown))


def avg(values: list[Decimal]) -> Decimal | None:
    """AVG: exact rational mean rounded half-up to 38 significant digits."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    mean = sum(Fraction(v) for v in present) / len(present)
    with localcontext() as ctx:
        ctx.prec = 38
        ctx.rounding = ROUND_HALF_UP
        return Decimal(mean.numerator) / Decimal(mean.denominator)


def total(values: list[Decimal]) -> Decimal | None:
    present = [v for v in values if v is not None]
    if not present:
        return None
    with localcontext() as ctx:
        ctx.prec = 200
        return sum(present, Decimal(0))


def count(values: list) -> Decimal:
    return Decimal(sum(v is not None for v in values))


def least(values: list):
    present = [v for v in values if v is not None]
    return min(present) if present else None


def greatest(values: list):
    present = [v for v in values if v is not None]
    return max(present) if present else None


@dataclass
class Column:
    name: str
    kind: str  # "num" | "str" | "date"
    size: int = 0  # precision for numbers, max length for strings
    scale: int = 0

    def display(self) -> str:
        if self.kind == "num":
            if self.scale:
                return f"NUMBER({self.size},{self.scale})"
            return f"NUMBER({self.size})"
        if self.kind == "str":
            return f"VARCHAR2({self.size})"
        return "DATE"

    def fit(self, value):
        """The stored form of a value, or the ORA code it raises."""
        if value is None:
            return value, None
        if self.kind == "num":
            stored = Decimal(value).quantize(Decimal(1).scaleb(-self.scale),
                                             rounding=ROUND_HALF_UP)
            if abs(stored) >= Decimal(10) ** (self.size - self.scale):
                return None, 1438
            return stored, None
        if self.kind == "str" and len(value) > self.size:
            return None, 12899
        return value, None


@dataclass
class Table:
    """A table as the benchmark expects the engine to hold it."""

    name: str
    columns: list[Column]
    rows: list[list] = field(default_factory=list)
    not_null: set[str] = field(default_factory=set)
    # (kind, name, column indexes or check function); kind is PK,
    # UNIQUE or CHECK.  A check function returns True, False or None
    # (UNKNOWN); only False rejects a row.
    constraints: list[tuple] = field(default_factory=list)
    _keys: dict[str, set] = field(default_factory=dict)

    def index(self, name: str) -> int:
        return [c.name for c in self.columns].index(name)

    def create_sql(self) -> str:
        cols = ", ".join(f"{c.name} {c.display()}" for c in self.columns)
        return f"CREATE TABLE {self.name} ({cols})"

    def add_key(self, kind: str, name: str, cols: list[str]) -> tuple:
        idxs = [self.index(c) for c in cols]
        keys = set()
        for row in self.rows:
            key = tuple(row[i] for i in idxs)
            if kind == "PK" and None in key:
                return ora(1400)
            if None in key:
                continue
            if key in keys:
                return ora(1)
            keys.add(key)
        self.constraints.append((kind, name, idxs))
        self._keys[name] = keys
        if kind == "PK":
            self.not_null.update(cols)
        return ALTERED

    def add_check(self, name: str, check) -> tuple:
        if any(check(row) is False for row in self.rows):
            return ora(2290)
        self.constraints.append(("CHECK", name, check))
        return ALTERED

    def set_not_null(self, col: str) -> tuple:
        i = self.index(col)
        if any(row[i] is None for row in self.rows):
            return ora(2296)
        self.not_null.add(col)
        return ALTERED

    def insert(self, values: list) -> tuple:
        """Apply an insert to the model; return its expected outcome.

        Order: type fit per column, NOT NULL in column order, then
        constraints in the order they were added.
        """
        row = []
        for value, col in zip(values, self.columns):
            stored, code = col.fit(value)
            if code is not None:
                return ora(code)
            row.append(stored)
        for col, value in zip(self.columns, row):
            if col.name in self.not_null and value is None:
                return ora(1400)
        pending = []
        for kind, name, how in self.constraints:
            if kind == "CHECK":
                if how(row) is False:
                    return ora(2290)
                continue
            key = tuple(row[i] for i in how)
            if None in key:
                continue
            if key in self._keys[name]:
                return ora(1)
            pending.append((name, key))
        for name, key in pending:
            self._keys[name].add(key)
        self.rows.append(row)
        return CREATED

    def describe(self) -> tuple:
        rows = [[c.name, "NOT NULL" if c.name in self.not_null else "",
                 c.display()] for c in self.columns]
        return grid(["Name", "Null?", "Type"], rows)

    def headers(self) -> list[str]:
        return [c.name for c in self.columns]


def join(left: list[list], right: list[list], keep) -> list[list]:
    """Nested-loop join in left-major order, as the engine scans."""
    return [lrow + rrow for lrow in left for rrow in right
            if keep(lrow, rrow)]


def eq(a, b) -> bool:
    """SQL '=' under three-valued logic, folded to 'row kept'."""
    return a is not None and b is not None and a == b
