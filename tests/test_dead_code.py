"""Every top-level function and class in src/handysql is used there.

Code that only tests call belongs in tests/, as the oracles in
reference.py do.  A definition counts as used when some other top-level
statement of some module names it: as a name, as an attribute, or as a
string equal to it (as __all__ lists names).  Importing a name does not
count; using it does.
"""

import ast
from collections import Counter
from pathlib import Path

import handysql

SRC = Path(handysql.__file__).parent
# The error registry's public view, part of the contract the tests pin.
ALLOWED = {"registered_codes"}


def names_in(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            found.add(sub.value)
    return found


def test_no_top_level_definition_is_unused():
    statements = [stmt for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text()).body]
    named = [names_in(stmt) for stmt in statements]
    # In how many top-level statements each name appears.
    spread = Counter(name for names in named for name in names)
    unused = [
        stmt.name for stmt, names in zip(statements, named)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and stmt.name not in ALLOWED
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
        and spread[stmt.name] == (stmt.name in names)]
    assert unused == []
