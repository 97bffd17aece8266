"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a layer, recorded from the benchmark's side
of the call: name (``<layer>.<stage>``, the layer being the ``repro``
module), start and end in monotonic nanoseconds, and the index of the
enclosing span.  Spans stay in memory and are written once, at the
end of the run, as Chrome trace-event JSON (open it in
``chrome://tracing`` or https://ui.perfetto.dev).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional


class Recorder:
    def __init__(self) -> None:
        #: [name, start_ns, end_ns, parent index or None]
        self.spans: List[list] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent: Optional[int] = self._open[-1] if self._open else None
        record = [name, time.perf_counter_ns(), 0, parent]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def seconds(self) -> Dict[str, float]:
        """Total seconds per span name."""
        totals: Dict[str, float] = defaultdict(float)
        for name, start, end, _ in self.spans:
            totals[name] += (end - start) / 1e9
        return dict(totals)

    def durations(self, name: str) -> List[float]:
        return [(end - start) / 1e9
                for span_name, start, end, _ in self.spans
                if span_name == name]

    def wall(self, names: Optional[set] = None) -> float:
        """Seconds from the first span's start to the last one's end
        (over spans named in ``names``, or all of them)."""
        chosen = [s for s in self.spans if names is None or s[0] in names]
        if not chosen:
            return 0.0
        return (max(s[2] for s in chosen) - min(s[1] for s in chosen)) / 1e9

    def covered(self, names: Optional[set] = None) -> float:
        """Seconds inside top-level spans (named in ``names``)."""
        return sum((end - start) / 1e9
                   for name, start, end, parent in self.spans
                   if parent is None and (names is None or name in names))

    def write_chrome(self, path: Path, process: str) -> None:
        origin = min((s[1] for s in self.spans), default=0)
        pid = os.getpid()
        events = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": process},
        }]
        for index, (name, start, end, parent) in enumerate(self.spans):
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "pid": pid,
                "tid": 0,
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"id": index, "parent": parent},
            })
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms"}))
