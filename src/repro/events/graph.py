"""Event graphs (paper §3.3).

The abstract histories of a program induce a directed graph whose nodes
are events and where an edge ``(e1, e2)`` exists iff the two events
occur together in at least one history and ``e1`` precedes ``e2`` in
*every* history containing both.  Edges are transitively closed within
each history by construction (all ordered pairs of a history are
edges), which is what the paper relies on.

The graph answers all queries needed downstream:

* ``parents``/``children`` and allocation events,
* ``alloc(e)`` — the points-to set of an event (set of allocation
  events), giving event-level may-alias,
* ``val(e)`` — the value set of an event (paper §5.1), used for the
  argument-equality predicate of pattern matching,
* ``contexts(e, k)`` — the paths of length ≤ k through ``e``
  (``ctx_{G,k}``), the raw material of the probabilistic features,
* receiver-ordered call-site pairs with bounded history distance, the
  candidate enumeration domain of Alg. 1.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.events.events import RET, Event, Site
from repro.events.history import Histories, History
from repro.ir.instructions import Alloc, Call, Const
from repro.pointsto.objects import AllocVal, LitVal, Value


@dataclass(frozen=True)
class ReceiverPair:
    """Call sites ``(m1, m2)`` sharing a receiver, ``m2`` called first.

    ``distance`` is the number of events separating the two receiver
    events in the receiver object's history (Alg. 1 bounds it by 10).
    """

    m1: Site  # the later call (pattern target position)
    m2: Site  # the earlier call (pattern source position)
    distance: int


class EventGraph:
    """The event graph ``G_P = (V, E)`` of one program."""

    def __init__(self, histories: Histories) -> None:
        self.histories = histories
        self.events: Set[Event] = set()
        self._succ: Dict[Event, Set[Event]] = defaultdict(set)
        self._pred: Dict[Event, Set[Event]] = defaultdict(set)
        self._val_cache: Dict[Event, FrozenSet[Value]] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction

    def _build(self) -> None:
        forward: Set[Tuple[Event, Event]] = set()
        backward: Set[Tuple[Event, Event]] = set()
        for history in self.histories.all_histories():
            n = len(history)
            for i in range(n):
                self.events.add(history[i])
                for j in range(i + 1, n):
                    e1, e2 = history[i], history[j]
                    if e1 == e2:
                        continue
                    forward.add((e1, e2))
                    backward.add((e2, e1))
        keys = {e: e.sort_key for e in self.events}
        ordered = sorted(forward, key=lambda p: (keys[p[0]], keys[p[1]]))
        for pair in ordered:
            if pair in backward:
                continue  # inconsistent ordering across histories: no edge
            e1, e2 = pair
            self._succ[e1].add(e2)
            self._pred[e2].add(e1)

    # ------------------------------------------------------------------
    # basic queries

    def has_edge(self, e1: Event, e2: Event) -> bool:
        return e2 in self._succ.get(e1, ())

    def parents(self, e: Event) -> FrozenSet[Event]:
        return frozenset(self._pred.get(e, ()))

    def children(self, e: Event) -> FrozenSet[Event]:
        return frozenset(self._succ.get(e, ()))

    def is_allocation(self, e: Event) -> bool:
        """``e`` is an allocation event: a ``ret`` event without parents."""
        return e.pos == RET and not self._pred.get(e)

    def alloc(self, e: Event) -> FrozenSet[Event]:
        """``alloc_G(e)`` — allocation events among parents(e) ∪ {e}."""
        candidates = set(self._pred.get(e, ()))
        candidates.add(e)
        return frozenset(c for c in candidates if self.is_allocation(c))

    def may_alias(self, e1: Event, e2: Event) -> bool:
        """Event-level may-alias: overlapping allocation sets."""
        return bool(self.alloc(e1) & self.alloc(e2))

    # ------------------------------------------------------------------
    # values (paper §5.1)

    def val(self, e: Event) -> FrozenSet[Value]:
        """``val_G(e)`` — the set of values the event's object may hold."""
        cached = self._val_cache.get(e)
        if cached is not None:
            return cached
        result = self._val_uncached(e)
        self._val_cache[e] = result
        return result

    def _val_uncached(self, e: Event) -> FrozenSet[Value]:
        instr = e.site.instr
        if e.pos == RET and isinstance(instr, Const):
            return frozenset({LitVal(instr.value)})
        if e.pos == RET and isinstance(instr, Alloc):
            return frozenset({AllocVal(instr)})
        values: Set[Value] = set()
        for alloc_event in self.alloc(e):
            if alloc_event == e:
                continue  # API return allocation events carry no value
            values.update(self._val_uncached(alloc_event))
        return frozenset(values)

    # ------------------------------------------------------------------
    # path contexts (paper §4.1)

    def contexts(self, e: Event, k: int = 2) -> FrozenSet[Tuple[Event, ...]]:
        """``ctx_{G,k}(e)`` — all paths of length ≤ k that include ``e``."""
        paths: Set[Tuple[Event, ...]] = set()
        # backward extensions of length a, forward extensions of length b,
        # with a + 1 + b ≤ k
        back = self._paths_backward(e, k - 1)
        for bpath in back:
            remaining = k - len(bpath)
            for fpath in self._paths_forward(e, remaining):
                paths.add(bpath[:-1] + fpath)
        return frozenset(paths)

    def _paths_backward(self, e: Event, budget: int) -> List[Tuple[Event, ...]]:
        """Paths ending at ``e`` with ≤ budget events before it."""
        results: List[Tuple[Event, ...]] = [(e,)]
        if budget <= 0:
            return results
        for p in self._pred.get(e, ()):
            for sub in self._paths_backward(p, budget - 1):
                results.append(sub + (e,))
        return results

    def _paths_forward(self, e: Event, budget: int) -> List[Tuple[Event, ...]]:
        """Paths starting at ``e`` with ≤ budget events after it."""
        results: List[Tuple[Event, ...]] = [(e,)]
        if budget <= 0:
            return results
        for s in self._succ.get(e, ()):
            for sub in self._paths_forward(s, budget - 1):
                results.append((e,) + sub)
        return results

    # ------------------------------------------------------------------
    # candidate enumeration support (Alg. 1)

    def receiver_pairs(self, max_distance: int = 10) -> Iterator[ReceiverPair]:
        """Call-site pairs with a shared receiver, earlier-first order.

        For every object history, yields pairs of API call sites whose
        receiver events both appear in it (``m2`` before ``m1``), with
        history distance at most ``max_distance``.  Pairs may repeat
        across histories; callers deduplicate as needed.
        """
        seen: Set[Tuple[Site, Site]] = set()
        for history in self.histories.all_histories():
            receiver_events = [
                (idx, ev) for idx, ev in enumerate(history)
                if ev.pos == 0 and isinstance(ev.site.instr, Call)
            ]
            for a in range(len(receiver_events)):
                for b in range(a + 1, len(receiver_events)):
                    idx2, ev2 = receiver_events[a]  # earlier: m2
                    idx1, ev1 = receiver_events[b]  # later: m1
                    distance = idx1 - idx2
                    if distance > max_distance:
                        continue
                    if ev1.site == ev2.site:
                        continue
                    key = (ev1.site, ev2.site)
                    if key in seen:
                        continue
                    seen.add(key)
                    yield ReceiverPair(ev1.site, ev2.site, distance)

    # ------------------------------------------------------------------

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def edges(self) -> Iterator[Tuple[Event, Event]]:
        """All edges, in a deterministic order."""
        for e1, succs in self._succ.items():
            for e2 in sorted(succs, key=lambda e: e.sort_key):
                yield (e1, e2)

    def __repr__(self) -> str:
        return f"<EventGraph {len(self.events)} events, {self.edge_count} edges>"


def build_event_graph(histories: Histories) -> EventGraph:
    """Construct the event graph of a program from its histories."""
    return EventGraph(histories)
