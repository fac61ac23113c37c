"""Exception types and structured validation violations."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Violation:
    """One validation failure: a code plus the offending edge/element/vertex."""

    code: str
    args: tuple = ()

    def __str__(self) -> str:
        if not self.args:
            return self.code
        return self.code + " " + " ".join(str(a) for a in self.args)


class ValidationError(Exception):
    """Raised with the full list of violations found in an input structure."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class SelfLoopError(ValueError):
    pass


class OddCardinalityError(ValueError):
    pass


class EvenLengthError(ValueError):
    pass


class TooLargeError(ValueError):
    pass


class UnknownFixtureError(KeyError):
    pass


class BudgetExceededError(Exception):
    """A search ran out of its node budget; the answer is unknown, not negative.

    ``interval`` is (lower, upper) when the search had narrowed the answer
    to that range, as the exact colorer does for chi; else None.
    """

    def __init__(self, budget: int, interval: tuple[int, int] | None = None):
        self.budget = budget
        self.interval = interval
        message = f"search budget of {budget} nodes exceeded"
        if interval is not None:
            message += f"; {interval[0]} <= chi <= {interval[1]}"
        super().__init__(message)


class VertexInOneElementError(Exception):
    """Conversion to a quasicluster needs every vertex in at least two elements."""

    def __init__(self, vertex):
        self.vertex = vertex
        super().__init__(f"vertex {vertex} lies in exactly one element")


class EdgeBecomesEmptyError(Exception):
    def __init__(self, edge_index: int):
        self.edge_index = edge_index
        super().__init__(f"edge {edge_index} has no vertices left after stripping")


class TheoremViolationError(Exception):
    """A certified result failed verification.

    This is never expected; it signals either an implementation bug or a
    corrupted certificate. For an improper coloring it carries the full
    conflict list for diagnosis; other failures pass no conflicts and say
    what went wrong in ``message``.
    """

    def __init__(self, conflicts, message: str | None = None):
        self.conflicts = tuple(conflicts)
        super().__init__(
            message
            or f"certified coloring is improper: {len(self.conflicts)}"
            " conflicting pairs"
        )


class ParseError(Exception):
    """A text that breaks its format, at the line and column of the fault.

    A fault that no line holds, such as a missing header, has line and
    column None and is reported by its message alone.
    """

    def __init__(self, line: int | None, column: int | None, message: str):
        self.line = line
        self.column = column
        self.message = message
        where = "" if line is None else f"line {line}, column {column}: "
        super().__init__(where + message)
