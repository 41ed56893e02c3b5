"""The oracle gate: sampled timed results against the serial engine.

Each workload keeps a seeded sample of the results it produced inside
the timed window (:class:`loads.Reservoir`).  After the window closes
every sample is parsed again by the ``serial`` engine and compared bit
for bit.  Any mismatch fails the run before a metric is printed.
"""

from __future__ import annotations

import numpy as np

from repro.pipeline import ParserSession

#: Results kept per workload for the gate.
SAMPLE_SIZE = 32


def compare(result, reference) -> "list[str]":
    """Fields on which *result* differs from *reference* (empty when equal)."""
    diffs = []
    for name in ("alive_bits", "matrix_bits"):
        ours = getattr(result.network, name)
        theirs = getattr(reference.network, name)
        if ours.shape != theirs.shape or not np.array_equal(ours, theirs):
            diffs.append(name)
    for name in ("locally_consistent", "ambiguous"):
        if bool(getattr(result, name)) != bool(getattr(reference, name)):
            diffs.append(name)
    return diffs


def check(grammar, samples: "list[tuple[str, object]]") -> "list[str]":
    """One line per sampled result that disagrees with the serial engine."""
    serial = ParserSession(grammar, engine="serial")
    failures = []
    for sentence, result in samples:
        diffs = compare(result, serial.parse(sentence))
        if diffs:
            failures.append(f"{sentence!r}: {', '.join(diffs)} differ from serial")
    return failures
