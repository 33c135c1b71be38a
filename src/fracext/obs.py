"""Library-side counters: how much work a layer did, not how long it took.

A layer reports work with count(name, n), once per call rather than once per
inner step.  Outside a recording() block count does nothing beyond one
context-variable lookup.  Inside one, the counts add up in the Counter the
block yields; a nested block collects its own counts and hides them from the
enclosing one.  The variable is a ContextVar, so threads and tasks record
separately.

    with obs.recording() as counts:
        geom.section_interval(z0, R)
    counts["geometry.endpoint_lanes"]
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar

_counts: ContextVar[Counter | None] = ContextVar("fracext_counts", default=None)


def count(name, n=1):
    """Add n to counter `name` of the innermost active recording(), if any."""
    counts = _counts.get()
    if counts is not None:
        counts[name] += n


@contextmanager
def recording():
    """Collect the counts made inside the block; yields the Counter."""
    counts = Counter()
    token = _counts.set(counts)
    try:
        yield counts
    finally:
        _counts.reset(token)
