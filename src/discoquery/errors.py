"""Exception types shared across the package."""


class DiscoError(Exception):
    """Base class for all discoquery errors."""


class ShapeMismatch(DiscoError):
    """Matrix shapes are incompatible for the requested operation."""


class SemiringMismatch(DiscoError):
    """Operands live over different semirings."""


class BudgetExceeded(DiscoError):
    """A dense allocation would exceed the configured scalar budget."""

    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"allocation of {required} scalars exceeds budget of {budget}")


class VerbOverflow(DiscoError):
    """A verb matrix entry overflowed to a non-finite value."""

    def __init__(self, relation: str):
        self.relation = relation
        super().__init__(f"verb matrix of relation {relation!r} "
                         "overflows to a non-finite value")


class LoadError(DiscoError):
    """A data file could not be parsed."""

    def __init__(self, path, line: int, msg: str):
        self.path = path
        self.line = line
        super().__init__(f"{path}:{line}: {msg}")


class GrammarError(DiscoError):
    """Input text does not conform to the controlled-language fragment."""

    def __init__(self, msg: str, position: int | None = None):
        self.position = position
        if position is not None:
            msg = f"{msg} (at token {position})"
        super().__init__(msg)
