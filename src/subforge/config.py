"""Numerical tolerances and the package version.

All root-space solvers share one Tolerances instance.  The defaults are
deliberate engineering choices (double precision leaves little headroom below
1e-13 for the gap test); callers that need looser or tighter behaviour pass
their own instance rather than mutating the module default.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # absolute accuracy of an isolated interior root
    root: float = 1e-12
    # relative accuracy of a potential-equation solve
    phi: float = 1e-10
    # minimal admissible distance between a barrier and the largest root
    gap: float = 1e-13
    # roots closer than cluster * max(1, |value|) count as one multiple root
    cluster: float = 1e-10
    # slack allowed when re-checking certificate inequalities
    certificate: float = 1e-8
    # entrywise deviation allowed from exact conjugate symmetry
    hermitian: float = 1e-12


DEFAULT = Tolerances()

VERSION = "0.1.0"


def worker_count() -> int:
    """Always 1: candidate eigensolves run serially on the calling thread.

    Kept as a public name because run reports (the benchmark's traced
    `worker_threads` field) still read it.
    """
    return 1
