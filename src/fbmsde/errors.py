"""Exception types shared across the package, and the one check of a rule table.

A class whose values have admissible ranges states each rule once, as a
``(key, message, test)`` entry of its ``rules`` table: the test's parameters
name the keys it reads, a broken rule is reported on ``key``, and
``message`` is a format string over the keys the test reads, or a function
of them.  The class's constructor raises for the first rule its values
break (:func:`require`); the config reports every rule a file breaks
(:func:`broken_rules`), each on its own key.

Every invalid input, a value that breaks a rule or an argument of the wrong
shape or kind, raises :class:`ParameterError`; a CLI run reports it as a
validation error with exit code 1.
"""

import inspect


class FbmsdeError(Exception):
    """Base class for every error raised by this package."""


class ParameterError(FbmsdeError, ValueError):
    """An invalid input value or argument.

    Either a value outside its admissible range, or an argument of the wrong
    shape or kind, such as a noise array of the wrong size or an order fit
    over fewer than three levels.
    """


class NumericalError(FbmsdeError, ArithmeticError):
    """A numerical procedure failed (non-finite values, lost definiteness, ...)."""


class FactorizationError(NumericalError):
    """Cholesky factorization lost positive definiteness.

    ``pivot`` is the 1-based index of the failing leading minor when the
    backend reports it.
    """

    def __init__(self, message: str, pivot: int | None = None):
        super().__init__(message)
        self.pivot = pivot


class EmbeddingError(NumericalError):
    """Circulant embedding produced an eigenvalue below the clamp tolerance."""

    def __init__(self, message: str, most_negative: float, tolerance: float):
        super().__init__(message)
        self.most_negative = most_negative
        self.tolerance = tolerance


class RootBracketError(NumericalError):
    """No sign change found for the implicit-step equation.

    At runtime this is how a violated unique-positive-root hypothesis
    manifests; ``interval`` is the range that was searched.
    """

    def __init__(self, message: str, interval: tuple[float, float]):
        super().__init__(message)
        self.interval = interval


class IntegrationError(FbmsdeError, RuntimeError):
    """An implicit step failed during trajectory integration.

    ``step`` is the 0-based index of the step that failed.
    """

    def __init__(self, message: str, step: int):
        super().__init__(message)
        self.step = step


class ConfigError(FbmsdeError, ValueError):
    """Configuration text failed validation; ``errors`` lists every problem."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


def reads(test) -> tuple[str, ...]:
    """The keys a rule's test reads: its parameter names."""
    return tuple(inspect.signature(test).parameters)


def broken_rules(rules, values: dict) -> list[str]:
    """``<key>: <message>`` for each rule of ``rules`` that ``values`` break.

    A rule that reads a key ``values`` lacks is not checked.
    """
    broken = []
    for key, message, test in rules:
        names = reads(test)
        if all(name in values for name in names):
            read = {name: values[name] for name in names}
            if not test(**read):
                text = message(**read) if callable(message) else message.format(**read)
                broken.append(f"{key}: {text}")
    return broken


def require(rules, values: dict) -> None:
    """Raise :class:`ParameterError` for the first rule of ``rules`` that ``values`` break."""
    if broken := broken_rules(rules, values):
        raise ParameterError(broken[0])
