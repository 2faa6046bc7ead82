"""Shared error types, and the one function that raises ConsistencyError."""

from typing import Iterable, NamedTuple


class ConsistencyError(RuntimeError):
    """Two independent routes to the same invariant disagreed.

    This is a tripwire for internal bugs, never a user input error: the
    pipeline computes key invariants both from assembled pairing data and
    from closed formulas, and refuses to emit certificates when they differ.
    """


class InadmissibleError(ValueError):
    """A requested triple fails the admissibility predicate."""


class Check(NamedTuple):
    """One named identity: the value a formula or theorem demands, and the
    value computed."""

    name: str
    expected: object
    observed: object

    @property
    def passed(self) -> bool:
        return self.expected == self.observed

    def __str__(self) -> str:
        return f"{self.name} expected {self.expected}, observed {self.observed}"


def enforce(subject, checks: Iterable[tuple[str, object, object]]) -> None:
    """Raise :class:`ConsistencyError` at the first ``(name, expected,
    observed)`` whose values differ, naming ``subject.label`` and that check.

    Every certificate path, from the Wang bases of a mapping torus to a
    recipe, raises through here. The label is rendered only when a check
    fails.
    """
    for name, expected, observed in checks:
        if expected != observed:
            raise ConsistencyError(f"{subject.label}: {Check(name, expected, observed)}")
