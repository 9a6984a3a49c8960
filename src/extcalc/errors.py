"""Exception types shared across the package; each class sets its CLI exit code.

Also the checks of JSON input files, which raise ParseError: this module
imports nothing, so the verbs that read only JSON load no expression engine.
"""


class ExtcalcError(Exception):
    """Base class for all errors raised by extcalc."""

    exit_code = 1


class ParseError(ExtcalcError):
    """Malformed input: text, an input file, or an argument outside its
    documented domain; carries the offending position when there is one."""

    exit_code = 2

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class DimensionMismatch(ExtcalcError):
    """Operands live in incompatible spaces."""


class DegreeError(ExtcalcError):
    """Form degree does not match what the operation requires."""


class SingularityError(ExtcalcError):
    """Evaluation hit a pole or a log/sqrt domain violation."""


class NotPolynomialError(ExtcalcError):
    """Expression is not polynomial in the required variable."""


class NotClosedError(ExtcalcError):
    """A closed form was required but d(form) != 0, or a closed chain was
    required but its boundary does not cancel."""


class RankDeficientError(ExtcalcError):
    """Surface parametrization is not an immersion at the requested point."""


class InconsistentSequenceError(ExtcalcError):
    """Exact-sequence data admits no solution."""


def json_fields(data, what, *required, **optional):
    """Values of the keys of a JSON object read from an input file: the
    required keys in order, then the optional ones or their defaults.
    ParseError when data is not an object or a required key is missing."""
    if not isinstance(data, dict):
        raise ParseError(f"{what} must be a JSON object")
    for key in required:
        if key not in data:
            raise ParseError(f"{what} is missing the key {key!r}")
    return [data[key] for key in required] + [data.get(k, v) for k, v in optional.items()]


def json_list(value, what):
    """value itself, or ParseError when it is not a JSON list."""
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a JSON list")
    return value


def json_number(value, what):
    """value, or ParseError unless it is a JSON number (true is a bool, not 1)."""
    if type(value) not in (int, float):
        raise ParseError(f"{what} {value!r} is not a number")
    return value
