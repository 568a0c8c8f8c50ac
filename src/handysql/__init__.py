"""A small Oracle-flavored SQL engine with a sqlplus-style shell."""

from .errors import OraError, render_error
from .executor import Database, Feedback, Listing, ResultSet, execute
from .parser import parse_text

__version__ = "0.1.0"

__all__ = [
    "Database",
    "Feedback",
    "Listing",
    "OraError",
    "ResultSet",
    "Session",
    "execute",
    "execute_statement",
    "parse_text",
    "render_error",
    "__version__",
]


def __getattr__(name: str):
    # The shell is imported on first use, not with the package, so that
    # "python -m handysql.shell" runs a module not yet in sys.modules.
    if name in ("Session", "execute_statement"):
        from . import shell
        return getattr(shell, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
