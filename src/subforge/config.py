"""The package version.

Numerical tolerances are not configurable.  Each is a named module constant
beside the one routine that reads it (for example `realroot._ROOT_TOL` or
`submatrix._CERTIFICATE_SLACK`).
"""

from __future__ import annotations

VERSION = "0.1.0"


def worker_count() -> int:
    """Always 1: candidate eigensolves run serially on the calling thread.

    Kept as a public name because run reports (the benchmark's traced
    `worker_threads` field) still read it.
    """
    return 1
