"""Exception types and the search budget shared across the package.

Every exception here reports an input: a value that breaks a precondition, a
budget that the input spends, or text that does not parse.  A constructor
raises none of them about its own result; what holds by construction is
proved in its docstring and checked by the tests.
"""

# Work units one public call to an exhaustive search may spend unless it is
# given a budget of its own: automorphism-search nodes, eqrel DFS pops and
# quad-mask words, and palette nodes.  A spent budget is reported in units.
# It also bounds how much one structure may list: subsets of a table and
# tuples of a relational view.
SEARCH_BUDGET = 10**6


class ExtensorError(Exception):
    """Base class for all errors raised by this package."""


class InputError(ExtensorError):
    """A caller-supplied value violates a documented precondition."""


class BoundExceededError(ExtensorError):
    """An exhaustive search spent its whole budget before it finished."""


class ParseError(ExtensorError):
    """Malformed structure text; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class _Meter:
    """The work units left to one public call.

    Every search the call runs is handed the same meter and spends from it;
    a search that finds it empty raises :meth:`exhausted`.
    """

    def __init__(self, budget=None):
        if budget is None:
            budget = SEARCH_BUDGET
        if budget <= 0:
            raise InputError(f"search budget must be positive, got {budget}")
        self.budget = self.left = budget

    def exhausted(self, what):
        return BoundExceededError(f"{what} spent its budget of {self.budget} units")
