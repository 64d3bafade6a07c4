"""cProfile plumbing for the CLI's ``--profile`` flag.

One context manager: profile the enclosed block when given a destination
path, dump the pstats file there, and print the top entries by cumulative
time to stderr.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from typing import Iterator, Optional

__all__ = ["maybe_profiled"]


@contextmanager
def maybe_profiled(path, top: int = 20, stream=None) -> Iterator[Optional[object]]:
    """Profile the enclosed block when ``path`` is truthy; no-op otherwise.

    On exit the profile is dumped to ``path`` (loadable with
    :mod:`pstats`) and the top ``top`` entries by cumulative time are
    printed to ``stream`` (stderr by default).  Yields the active
    ``cProfile.Profile`` — or ``None`` when disabled — so callers can
    assert on it in tests.
    """
    if not path:
        yield None
        return
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        yield profiler
    finally:
        profiler.disable()
        destination = os.fspath(path)
        profiler.dump_stats(destination)
        output = stream if stream is not None else sys.stderr
        print(f"profile written to {destination}; top {top} by cumulative time:", file=output)
        pstats.Stats(profiler, stream=output).sort_stats("cumulative").print_stats(top)
