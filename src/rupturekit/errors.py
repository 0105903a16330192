"""Shared exception types, each carrying the exit code the CLI maps it to.

The CLI's one error handler exits with `exc.exit_code` for a
`RupturekitError`, and with 3 for an unreadable file or a click usage error
(a missing or unknown option, a bad choice or number).  Any other exception
is a bug: it propagates with its traceback.
"""


class RupturekitError(Exception):
    """Base class for all toolkit errors; a subclass sets `exit_code`."""
    exit_code: int


class InfeasibleError(RupturekitError):
    """No feasible solution exists for the requested problem (exit code 2)."""
    exit_code = 2


class InputError(RupturekitError):
    """Malformed instance data or invalid user input (exit code 3)."""
    exit_code = 3


class SizeLimitError(RupturekitError):
    """Instance exceeds a configured enumeration/export cap (exit code 4)."""
    exit_code = 4


class OracleMismatchError(RupturekitError):
    """A solver answer differs from its enumeration oracle (exit code 5)."""
    exit_code = 5
