"""Shared error types, the text of a failed ``(name, expected, observed)``
check, and the one function that raises ConsistencyError."""

from typing import Iterable


class ConsistencyError(RuntimeError):
    """Two independent routes to the same invariant disagreed.

    This is a tripwire for internal bugs, never a user input error: the
    pipeline computes key invariants both from assembled pairing data and
    from closed formulas, and refuses to emit certificates when they differ.
    """


class InadmissibleError(ValueError):
    """A requested triple fails the admissibility predicate."""


def mismatch(name: str, expected: object, observed: object) -> str:
    """The text of a failed check: ``<name> expected <x>, observed <y>``."""
    return f"{name} expected {expected}, observed {observed}"


def enforce(subject, checks: Iterable[tuple[str, object, object]]) -> None:
    """Raise :class:`ConsistencyError` at the first ``(name, expected,
    observed)`` whose values differ, naming ``subject.label`` and that check.

    Every certificate path, from the Wang bases of a mapping torus to a
    recipe, raises through here. The label is rendered only when a check
    fails.
    """
    for name, expected, observed in checks:
        if expected != observed:
            raise ConsistencyError(f"{subject.label}: {mismatch(name, expected, observed)}")
