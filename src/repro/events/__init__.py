"""Events, abstract histories and event graphs (paper §3).

``history`` and ``graph`` are imported lazily: they depend on the
points-to package, which itself needs the light-weight event
primitives from :mod:`repro.events.events`.
"""

from repro._lazy import lazy_exports
from repro.events.events import RET, Event, Pos, Site

__all__ = [
    "RET",
    "Event",
    "EventGraph",
    "Histories",
    "HistoryBuilder",
    "HistoryOptions",
    "Pos",
    "Site",
    "build_event_graph",
]

_LAZY = {
    "Histories": "repro.events.history",
    "HistoryBuilder": "repro.events.history",
    "HistoryOptions": "repro.events.history",
    "EventGraph": "repro.events.graph",
    "build_event_graph": "repro.events.graph",
}

__getattr__ = lazy_exports(__name__, _LAZY)
