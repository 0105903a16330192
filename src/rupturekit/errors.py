"""Shared exception types and exit-code mapping."""


class RupturekitError(Exception):
    """Base class for all toolkit errors."""


class InputError(RupturekitError):
    """Malformed instance data or invalid user input (exit code 3)."""


class SizeLimitError(RupturekitError):
    """Instance exceeds a configured enumeration/export cap (exit code 4)."""


class InfeasibleError(RupturekitError):
    """No feasible solution exists for the requested problem (exit code 2)."""


class OracleMismatchError(RupturekitError):
    """A solver answer differs from its enumeration oracle (exit code 5)."""


EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_INPUT = 3
EXIT_SIZE = 4
EXIT_ORACLE = 5
