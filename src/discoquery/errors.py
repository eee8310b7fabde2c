"""Exception types shared across the package, and the UTF-8 file reader
that reports a decoding error as a LoadError."""


class DiscoError(Exception):
    """Base class for all discoquery errors."""


class ShapeMismatch(DiscoError):
    """Matrix shapes are incompatible for the requested operation."""


class SemiringMismatch(DiscoError):
    """Operands live over different semirings."""


class DomainError(DiscoError, ValueError):
    """An entry lies outside its semiring's carrier set.

    It is not finite (an overflow), negative, or a fuzzy value above 1.
    Also a ValueError, so callers that validate input can catch either.
    """


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


class utf8_text:
    """``with utf8_text(path) as fh``: the file opened as UTF-8 text.

    A decoding error raised in the body becomes a LoadError naming the
    first line that is not UTF-8, found by re-reading the file as bytes on
    that error path only.
    """

    def __init__(self, path):
        self.path = path

    def __enter__(self):
        self.fh = open(self.path, encoding="utf-8")
        return self.fh

    def __exit__(self, exc_type, exc, tb):
        self.fh.close()
        if not isinstance(exc, UnicodeDecodeError):
            return False
        with open(self.path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as err:
            line = data.count(b"\n", 0, err.start) + 1
        else:
            line = 0
        raise LoadError(self.path, line, "not valid UTF-8") from None


class GrammarError(DiscoError):
    """Input text does not conform to the controlled-language fragment."""

    def __init__(self, msg: str, position: int | None = None):
        self.position = position
        if position is not None:
            msg = f"{msg} (at token {position})"
        super().__init__(msg)
