"""Monotonic-clock span tracing with a no-op recorder as the default.

A :class:`Telemetry` object bundles a :class:`~repro.obs.metrics.
MetricsRegistry` with a Chrome-trace-event recorder.  Spans are recorded
as complete (``ph: "X"``) events with microsecond ``ts``/``dur`` taken
from ``time.monotonic()`` — on Linux that is ``CLOCK_MONOTONIC``, which
is boot-relative and therefore *comparable across processes on one
machine*: frontier workers stamp their spans with their own clock and
real ``os.getpid()``, ship them back inside their batch answers, and the
coordinator's merge produces a single timeline Perfetto renders with one
track per process.

The default is :data:`NO_TELEMETRY`, a :class:`NullTelemetry` whose
``enabled`` is ``False`` and whose every method is a no-op — hot paths
gate on ``telemetry.enabled`` (one attribute check) and never pay for
disabled instrumentation.  The ``REPRO_TRACE`` environment variable
flips the process-wide default on (``1``/``on`` records in memory; any
other value is treated as a path the trace is written to at interpreter
exit), which is how the CI traced test leg proves exploration results
stay bit-identical under instrumentation.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.obs.metrics import MetricsRegistry, current_rss_kb

__all__ = [
    "NO_TELEMETRY",
    "NullTelemetry",
    "Telemetry",
    "default_telemetry",
    "use_telemetry",
    "write_chrome_trace",
]

#: Cap on recorded events per Telemetry instance.  Past the cap new
#: events are counted in ``dropped_events`` instead of recorded, so a
#: fully traced test suite or campaign bounds its memory.
MAX_EVENTS = 100_000


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _NullMetrics:
    """Inert registry so accidental unguarded metric calls stay cheap."""

    __slots__ = ()

    def counter(self, name: str, **labels: object) -> "_NullInstrument":
        return _NULL_INSTRUMENT

    gauge = counter

    def histogram(self, name: str, bounds=(), **labels: object) -> "_NullInstrument":
        return _NULL_INSTRUMENT

    def snapshot(self, include_series: bool = False) -> Dict[str, object]:
        return {}

    def export(self, drain: bool = False) -> List[Dict[str, object]]:
        return []

    def absorb(self, entries, **extra_labels: object) -> None:
        pass

    def __len__(self) -> int:
        return 0


class _NullInstrument:
    __slots__ = ()
    value = 0
    samples: List[Tuple[float, float]] = []

    def inc(self, amount: float = 1) -> None:
        pass

    def set(self, value: float, sample: bool = False, ts: Optional[float] = None) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()


class NullTelemetry:
    """The disabled recorder: every method is a no-op.

    Hot paths should gate on :attr:`enabled` and skip instrumentation
    entirely; the remaining methods exist so coarse, once-per-phase call
    sites (``with telemetry.span(...)``) need no branching at all.
    """

    enabled = False
    process = "disabled"
    pid = 0
    dropped_events = 0
    metrics = _NullMetrics()
    __slots__ = ()

    def now(self) -> float:
        return 0.0

    def span(self, name: str, **args: object) -> _NullSpan:
        return _NULL_SPAN

    def end_span(self, name: str, started: float, **args: object) -> float:
        return 0.0

    def instant(self, name: str, **args: object) -> None:
        pass

    def counter_value(self, name: str, **values: object) -> None:
        pass

    def sample_rss(self, **extra: float) -> int:
        return 0

    def merge_remote(self, payload: Mapping[str, object]) -> None:
        pass

    def export_payload(self, drain: bool = True) -> Dict[str, object]:
        return {}

    def events(self) -> List[Dict[str, object]]:
        return []

    def snapshot(self) -> Dict[str, object]:
        return {}

    def write_chrome_trace(self, path) -> int:
        return write_chrome_trace(path, [])


NO_TELEMETRY = NullTelemetry()


class _Span:
    __slots__ = ("_telemetry", "_name", "_args", "_started")

    def __init__(self, telemetry: "Telemetry", name: str, args: Dict[str, object]):
        self._telemetry = telemetry
        self._name = name
        self._args = args

    def __enter__(self) -> "_Span":
        self._started = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._args = dict(self._args, error=exc_type.__name__)
        self._telemetry.end_span(self._name, self._started, **self._args)
        return False


class Telemetry:
    """An enabled recorder: metrics registry + span/event buffer."""

    enabled = True

    def __init__(
        self,
        process: str = "coordinator",
        pid: Optional[int] = None,
        max_events: int = MAX_EVENTS,
    ):
        self.process = process
        self.pid = os.getpid() if pid is None else pid
        self.metrics = MetricsRegistry()
        self.dropped_events = 0
        self._max_events = max_events
        self._events: List[Dict[str, object]] = []
        self._known_processes: Set[Tuple[int, str]] = set()
        self._announce(self.pid, self.process)

    # -- recording -----------------------------------------------------

    def now(self) -> float:
        """Span clock (seconds).  ``CLOCK_MONOTONIC`` — see module doc."""
        return time.monotonic()

    def _announce(self, pid: int, name: str) -> None:
        key = (pid, name)
        if key in self._known_processes:
            return
        self._known_processes.add(key)
        self._events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0, "args": {"name": name}}
        )

    def _record(self, event: Dict[str, object]) -> None:
        if len(self._events) >= self._max_events:
            self.dropped_events += 1
            return
        self._events.append(event)

    def span(self, name: str, **args: object) -> _Span:
        """Context manager recording a complete-event span around a block."""
        return _Span(self, name, args)

    def end_span(self, name: str, started: float, **args: object) -> float:
        """Record a span that began at ``started`` (from :meth:`now`)."""
        elapsed = time.monotonic() - started
        self._record(
            {
                "ph": "X",
                "name": name,
                "cat": "repro",
                "ts": int(started * 1e6),
                "dur": max(0, int(elapsed * 1e6)),
                "pid": self.pid,
                "tid": 0,
                "args": args,
            }
        )
        return elapsed

    def instant(self, name: str, **args: object) -> None:
        self._record(
            {
                "ph": "i",
                "s": "p",
                "name": name,
                "cat": "repro",
                "ts": int(time.monotonic() * 1e6),
                "pid": self.pid,
                "tid": 0,
                "args": args,
            }
        )

    def counter_value(self, name: str, **values: object) -> None:
        """Record a Chrome counter (``ph: "C"``) sample."""
        self._record(
            {
                "ph": "C",
                "name": name,
                "ts": int(time.monotonic() * 1e6),
                "pid": self.pid,
                "args": values,
            }
        )

    def sample_rss(self, **extra: float) -> int:
        """Sample current RSS (and any extra gauges) into metrics + trace."""
        kb = current_rss_kb()
        self.metrics.gauge("rss_kb").set(kb, sample=True)
        self.counter_value("rss_kb", kb=kb)
        for name, value in extra.items():
            self.metrics.gauge(name).set(value, sample=True)
            self.counter_value(name, **{name: value})
        return kb

    # -- cross-process aggregation ------------------------------------

    def export_payload(self, drain: bool = True) -> Dict[str, object]:
        """JSON-safe payload for the telemetry part of a worker answer.

        With ``drain`` (the default — one export per worker batch) the
        event buffer empties and counters/histograms reset to deltas; see
        :meth:`repro.obs.metrics.MetricsRegistry.export`.
        """
        events = self._events if not drain else list(self._events)
        payload = {
            "process": self.process,
            "pid": self.pid,
            "events": events,
            "metrics": self.metrics.export(drain=drain),
            "dropped": self.dropped_events,
        }
        if drain:
            self._events = []
            self.dropped_events = 0
            self._known_processes.clear()
            self._announce(self.pid, self.process)
        return payload

    def merge_remote(self, payload: Mapping[str, object]) -> None:
        """Merge a worker's :meth:`export_payload` into this recorder.

        Events land on the shared timeline (process-name metadata deduped
        per pid); metric deltas accumulate under an extra
        ``worker=<suffix>`` label so per-worker series like
        ``guard_eval_seconds{worker=3}`` stay distinguishable.
        """
        if not payload:
            return
        pid = payload.get("pid")
        for event in payload.get("events") or ():
            if not isinstance(event, dict):
                continue
            if event.get("ph") == "M":
                args = event.get("args")
                name = args.get("name") if isinstance(args, dict) else None
                if isinstance(name, str):
                    self._announce(int(event.get("pid") or pid or 0), name)
                continue
            self._record(event)
        process = str(payload.get("process") or pid or "remote")
        label = process.rsplit("-", 1)[-1] if "-" in process else process
        self.metrics.absorb(payload.get("metrics") or (), worker=label)
        self.dropped_events += int(payload.get("dropped") or 0)

    # -- output --------------------------------------------------------

    def events(self) -> List[Dict[str, object]]:
        return list(self._events)

    def snapshot(self) -> Dict[str, object]:
        """Flat summary merged into ``stats_snapshot()["obs"]``."""
        return {
            "process": self.process,
            "events": len(self._events),
            "dropped_events": self.dropped_events,
            "metrics": self.metrics.snapshot(include_series=True),
        }

    def write_chrome_trace(self, path) -> int:
        return write_chrome_trace(path, self._events)


def write_chrome_trace(path, events: Sequence[Mapping[str, object]]) -> int:
    """Write events as a Chrome trace-event JSON array, one per line.

    The result is a valid JSON array (Perfetto/``chrome://tracing``
    loadable) that degrades to parseable line-per-event output if a run
    is killed mid-write.  Returns the number of events written.
    """
    with open(os.fspath(path), "w", encoding="utf-8") as fh:
        fh.write("[\n")
        last = len(events) - 1
        for index, event in enumerate(events):
            fh.write(json.dumps(event, separators=(",", ":"), sort_keys=True, default=str))
            fh.write(",\n" if index < last else "\n")
        fh.write("]\n")
    return len(events)


# -- process-wide default ---------------------------------------------

_default_stack: List[object] = []
_env_telemetry: Optional[Telemetry] = None
_env_checked = False


def _write_env_trace(path: str, telemetry: Telemetry) -> None:
    try:
        telemetry.write_chrome_trace(path)
    except OSError:
        pass


def _telemetry_from_env() -> Optional[Telemetry]:
    global _env_telemetry, _env_checked
    if not _env_checked:
        _env_checked = True
        value = os.environ.get("REPRO_TRACE", "").strip()
        if value and value.lower() not in ("0", "off", "false", "no"):
            _env_telemetry = Telemetry(process="coordinator")
            if value.lower() not in ("1", "on", "true", "yes"):
                atexit.register(_write_env_trace, value, _env_telemetry)
    return _env_telemetry


def default_telemetry():
    """The recorder engines use when none is passed explicitly.

    Resolution order: innermost :func:`use_telemetry` context, then the
    ``REPRO_TRACE`` environment default, then :data:`NO_TELEMETRY`.
    """
    if _default_stack:
        return _default_stack[-1]
    env = _telemetry_from_env()
    return env if env is not None else NO_TELEMETRY


@contextmanager
def use_telemetry(telemetry) -> Iterator[object]:
    """Make ``telemetry`` the process default for the enclosed block.

    ``None`` is a no-op context (the CLI passes its optional recorder
    straight through); engines built anywhere inside the block — e.g. by
    the invariant/workflow dispatchers — pick the recorder up via
    :func:`default_telemetry` without signature changes.
    """
    if telemetry is None:
        yield NO_TELEMETRY
        return
    _default_stack.append(telemetry)
    try:
        yield telemetry
    finally:
        _default_stack.pop()
