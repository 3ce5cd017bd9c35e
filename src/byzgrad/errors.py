"""Exception types shared across the package, and the one integer-argument test."""


def is_int(value) -> bool:
    """True for an `int` that is not a `bool`: what every integer argument must be."""
    return isinstance(value, int) and not isinstance(value, bool)


class InvalidInput(ValueError):
    """Malformed vectors or arguments: dimension mismatch, non-finite values, bad weights."""


class InvalidView(InvalidInput):
    """An adversary view is missing information the attack needs."""


class PreconditionViolation(ValueError):
    """A rule was invoked outside its validity condition (e.g. 2f + 2 < n for Krum)."""


class AttackInapplicable(ValueError):
    """The attack cannot be mounted with the given number of Byzantine workers."""


class UnsupportedCombination(ValueError):
    """Estimator and cost function that are not defined together."""


class InvalidSchedule(ValueError):
    """Learning-rate parameters violating the step-size series conditions."""


class ConfigError(ValueError):
    """Experiment configuration rejected during validation."""


class DivergenceDetected(RuntimeError):
    """An SGD round produced a non-finite parameter component or metric.

    Expected when a non-resilient rule meets an unbounded attack; the
    simulator records it as an outcome instead of crashing.  `record`
    holds the metrics of the round that diverged, `last_x` the last
    finite parameter vector.
    """

    def __init__(self, message, record=None, last_x=None):
        super().__init__(message)
        self.record = record
        self.last_x = last_x
