"""Features of event pairs (paper §4.1).

``ftr(e1, e2) = (x1, x2, ctx_{G,2}(e1), ctx_{G,2}(e2), γ(e1, e2))``

* the contexts are the bounded path sets of the event graph, rendered
  as generalisable string tokens (method identifier + position per
  path element, so literal occurrences collapse to ``lc:str`` etc.);
* γ carries (i) the static argument types at both call sites and
  (ii) the relation of the two sites to guarding control-flow
  conditions (same guard / one nested under the other / unguarded) via
  a :class:`GuardIndex` computed from the program structure.

Encoding follows the paper's Vowpal Wabbit setup: every token is
hashed into a sparse binary feature vector (``FeatureConfig.dim``,
``2^18`` dimensions by default, deterministic CRC32 hashing).  Because
a linear model over a *union* of per-side tokens cannot express the
co-occurrence of a ``c1`` path with a ``c2`` path, we optionally add
bounded conjunction tokens (``pair_features``, default on — see
DESIGN.md; an ablation benchmark measures the effect).

Two implementations compute the same indices:

* :class:`FeatureTable` — the one the pipeline runs.  It numbers one
  program's events once, renders each event's labels, ``ctx_{G,k}``
  paths and tokens once, and encodes a pair of event ids straight to
  hashed indices through the run's :class:`FeatureHasher`;
* :func:`extract_feature` + :func:`encode_feature` — the string
  reference: a :class:`PairFeature` of token sets, then one CRC per
  namespaced token string.  Tests hold the table to it.
"""

from __future__ import annotations

import itertools
import zlib
from array import array
from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.events.events import Event, Pos
from repro.events.graph import EventGraph
from repro.ir.instructions import Call, Instruction
from repro.ir.program import If, Program, Stmt, While
from repro.ir.traversal import iter_statements


@dataclass(frozen=True)
class FeatureConfig:
    """Feature extraction and encoding parameters."""

    context_k: int = 2
    #: hashed feature-space dimension (paper: >100M for Java; we use a
    #: far smaller corpus, so 2^18 suffices and keeps the per-position
    #: dense weight vectors small)
    dim: int = 1 << 18
    #: include c1×c2 conjunction tokens
    pair_features: bool = True
    #: cap on paths per side entering the conjunction product
    max_paths: int = 12
    #: additionally emit bare-method-name path tokens ("getName" instead
    #: of "java.io.File.getName"), bridging qualified and unqualified
    #: method identifiers across typed and untyped receivers
    name_tokens: bool = True


class GuardIndex:
    """Maps call instructions to their enclosing control-flow guards.

    Used by the γ component to relate two call sites to guarding
    conditions: calls under the same ``if``/``while`` node get a
    "same-guard" token, nesting yields "guarded-vs-unguarded" tokens.
    """

    def __init__(self, program: Program) -> None:
        self._guards: Dict[Instruction, Tuple[int, ...]] = {}
        for fn in program.functions.values():
            self._index_body(fn.body, ())

    def _index_body(self, body: Sequence[Stmt], guards: Tuple[int, ...]) -> None:
        for stmt in body:
            if isinstance(stmt, If):
                inner = guards + (id(stmt),)
                self._index_body(stmt.then_body, inner)
                self._index_body(stmt.else_body, inner)
            elif isinstance(stmt, While):
                self._index_body(stmt.body, guards + (id(stmt),))
            else:
                self._guards[stmt] = guards

    def guards_of(self, instr: Instruction) -> Tuple[int, ...]:
        return self._guards.get(instr, ())

    def relation(self, a: Instruction, b: Instruction) -> str:
        return _guard_relation(self.guards_of(a), self.guards_of(b))


def _guard_relation(ga: Tuple[int, ...], gb: Tuple[int, ...]) -> str:
    """How two call sites' guard chains relate (the γ guard token)."""
    if ga == gb:
        return "same-guard" if ga else "both-unguarded"
    shared = 0
    for x, y in zip(ga, gb):
        if x != y:
            break
        shared += 1
    if shared == len(ga):
        return "first-encloses"
    if shared == len(gb):
        return "second-encloses"
    return "divergent-guards"


@dataclass(frozen=True)
class PairFeature:
    """The structured feature of one event pair, pre-encoding."""

    x1: Pos
    x2: Pos
    c1: FrozenSet[str]  # path tokens around e1
    c2: FrozenSet[str]  # path tokens around e2
    gamma: FrozenSet[str]

    @property
    def position_key(self) -> Tuple[str, str]:
        """The (x1, x2) key selecting the per-position model ψ."""
        return (_pos_token(self.x1), _pos_token(self.x2))


def _pos_token(pos: Pos) -> str:
    if pos == "ret":
        return "ret"
    if isinstance(pos, int) and pos > 4:
        return "arg5+"
    return str(pos)


def _path_token(path: Tuple[Event, ...]) -> str:
    return "→".join(f"{e.site.method_id}:{_pos_token(e.pos)}" for e in path)


def _bare_name(method_id: str) -> str:
    return method_id.rsplit(".", 1)[-1]


def _name_path_token(path: Tuple[Event, ...]) -> str:
    return "~".join(f"{_bare_name(e.site.method_id)}:{_pos_token(e.pos)}"
                    for e in path)


def _context_tokens(
    graph: EventGraph, e: Event, k: int, exclude: Optional[Event],
    name_tokens: bool,
) -> FrozenSet[str]:
    tokens: Set[str] = set()
    for path in graph.contexts(e, k):
        if exclude is not None and exclude in path:
            # §4.2: drop paths revealing the other event, so the model
            # does not simply learn the transitive closure
            continue
        tokens.add(_path_token(path))
        if name_tokens:
            tokens.add(_name_path_token(path))
    return frozenset(tokens)


def _gamma_tokens(e1: Event, e2: Event,
                  guard_index: Optional[GuardIndex]) -> FrozenSet[str]:
    tokens: Set[str] = set()
    for tag, event in (("a", e1), ("b", e2)):
        instr = event.site.instr
        if isinstance(instr, Call):
            for i, t in enumerate(instr.arg_types):
                tokens.add(f"type:{tag}:{i}:{t}")
            tokens.add(f"nargs:{tag}:{instr.nargs}")
    if guard_index is not None:
        i1, i2 = e1.site.instr, e2.site.instr
        tokens.add(f"guard:{guard_index.relation(i1, i2)}")
    return frozenset(tokens)


def extract_feature(
    graph: EventGraph,
    e1: Event,
    e2: Event,
    guard_index: Optional[GuardIndex] = None,
    config: FeatureConfig = FeatureConfig(),
    hide_pair: bool = False,
) -> PairFeature:
    """Compute ``ftr(e1, e2)``.

    With ``hide_pair=True`` (used when building *positive* training
    samples), paths through the other event are removed from each
    context so the edge itself is not leaked into the feature.
    """
    c1 = _context_tokens(graph, e1, config.context_k,
                         e2 if hide_pair else None, config.name_tokens)
    c2 = _context_tokens(graph, e2, config.context_k,
                         e1 if hide_pair else None, config.name_tokens)
    return PairFeature(e1.pos, e2.pos, c1, c2,
                       _gamma_tokens(e1, e2, guard_index))


@dataclass(frozen=True)
class EncodedSample:
    """One training sample after the hashing trick.

    The fully-hashed form of a :class:`PairFeature` plus its label, as
    one object: what :func:`encode_sample` returns and what a
    :class:`SampleBlock` iterates back as.  Samples on their way to
    training travel packed in a block instead.
    """

    position_key: Tuple[str, str]
    indices: Tuple[int, ...]
    label: int


class SampleBlock:
    """Hashed samples packed flat, in order.

    The form samples take from
    :func:`~repro.model.dataset.encode_bundle_samples` to training:
    each program's samples are one block in its journal record (the
    ``StoredProgram`` a worker streams to the parent) and in the
    :class:`~repro.model.logistic.SufficientStats`, and the
    training stream is one block.  Per sample it holds a position-key
    id, a label and a length, and its indices sit in one flat int32
    array, each a stdlib ``array``: about 4 bytes per index, where an
    :class:`EncodedSample` tuple holds a Python int per index.  A
    block pickles natively (an ``array`` pickles as its raw bytes),
    and the trainer reads its arrays as zero-copy numpy views.  An
    index that does not fit int32 raises ``OverflowError``.

    ``keys`` maps each position key to its id, in the order the keys
    first appear in the block.  A block is not changed once built:
    :meth:`concat` and :meth:`permuted` return new blocks.
    """

    __slots__ = ("keys", "key_ids", "labels", "lengths", "indices")

    def __init__(self) -> None:
        self.keys: Dict[Tuple[str, str], int] = {}
        self.key_ids = array("i")
        self.labels = array("b")
        self.lengths = array("i")
        self.indices = array("i")

    def append(self, position_key: Tuple[str, str],
               indices: Sequence[int], label: int) -> None:
        """Add one sample at the end (while building the block)."""
        # fromlist adds every index or, on overflow, none, and takes
        # half the time of extend over a tuple
        self.indices.fromlist(list(indices))
        keys = self.keys
        self.key_ids.append(keys.setdefault(position_key, len(keys)))
        self.labels.append(label)
        self.lengths.append(len(indices))

    @classmethod
    def pack(cls, samples: Iterable[EncodedSample]) -> "SampleBlock":
        """The block of ``samples``, in their order."""
        block = cls()
        for sample in samples:
            block.append(sample.position_key, sample.indices, sample.label)
        return block

    @classmethod
    def of(cls, samples: Union["SampleBlock", Iterable[EncodedSample]]
           ) -> "SampleBlock":
        """``samples`` itself if it is a block, else its :meth:`pack`."""
        return samples if isinstance(samples, cls) else cls.pack(samples)

    @classmethod
    def concat(cls, blocks: Iterable["SampleBlock"]) -> "SampleBlock":
        """One block of every sample of ``blocks``, in order."""
        whole = cls()
        keys = whole.keys
        for block in blocks:
            ids = [keys.setdefault(key, len(keys)) for key in block.keys]
            whole.key_ids.extend([ids[k] for k in block.key_ids])
            whole.labels.extend(block.labels)
            whole.lengths.extend(block.lengths)
            whole.indices.extend(block.indices)
        return whole

    def permuted(self, order: Sequence[int]) -> "SampleBlock":
        """A block of sample ``order[0]``, then ``order[1]``, …"""
        starts = list(itertools.accumulate(self.lengths, initial=0))
        table = list(self.keys)
        copy = SampleBlock()
        keys = copy.keys
        for i in order:
            copy.key_ids.append(
                keys.setdefault(table[self.key_ids[i]], len(keys)))
            copy.labels.append(self.labels[i])
            copy.lengths.append(self.lengths[i])
            # an array slice extends by one copy of its bytes
            copy.indices.extend(self.indices[starts[i]:starts[i + 1]])
        return copy

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[EncodedSample]:
        table = list(self.keys)
        indices = self.indices
        start = 0
        for key_id, label, n in zip(self.key_ids, self.labels,
                                    self.lengths):
            yield EncodedSample(table[key_id],
                                tuple(indices[start:start + n]), label)
            start += n


def encode_sample(feature: PairFeature, label: int,
                  config: FeatureConfig = FeatureConfig()) -> EncodedSample:
    """Hash one labelled pair feature into an :class:`EncodedSample`."""
    return EncodedSample(feature.position_key,
                         encode_feature(feature, config), label)


def _hash_token(token: str, dim: int) -> int:
    return zlib.crc32(token.encode("utf-8")) % dim


def encode_feature(feature: PairFeature,
                   config: FeatureConfig = FeatureConfig()) -> Tuple[int, ...]:
    """Hash a :class:`PairFeature` into sparse binary indices.

    Tokens are namespaced per side (``c1:``/``c2:``/``g:``), the
    conjunction product is bounded by ``max_paths`` per side.
    """
    dim = config.dim
    indices: Set[int] = {_hash_token("bias", dim)}
    for token in feature.c1:
        indices.add(_hash_token(f"c1:{token}", dim))
    for token in feature.c2:
        indices.add(_hash_token(f"c2:{token}", dim))
    for token in feature.gamma:
        indices.add(_hash_token(f"g:{token}", dim))
    if config.pair_features:
        left = sorted(feature.c1)[: config.max_paths]
        right = sorted(feature.c2)[: config.max_paths]
        for p1 in left:
            for p2 in right:
                indices.add(_hash_token(f"x:{p1}|{p2}", dim))
    return tuple(sorted(indices))


# ----------------------------------------------------------------------
# the integer featurizer

#: entries per memo of a :class:`FeatureHasher`.  A full memo is
#: cleared rather than grown, so an adversarial vocabulary costs misses,
#: never memory; a generated 200-file corpus has under 2,000 distinct
#: context tokens.
MEMO_LIMIT = 1 << 16

#: one context token hashed every way a pair uses it: its ``c1:`` and
#: ``c2:`` indices, the CRC state after the conjunction prefix
#: ``x:<token>|``, and its UTF-8 bytes (a conjunction's suffix)
PathHash = Tuple[int, int, int, bytes]


class FeatureHasher:
    """The hashing trick of one run, memoised per token.

    A run (a mining task, a pipeline) owns one and hands it to every
    :class:`FeatureTable` it builds, so each distinct token is encoded
    and CRC'd once per run whatever the number of pairs it appears in.

    A conjunction ``x:<p1>|<p2>`` is never rendered: CRC32 is a running
    checksum, so ``crc32(p2, crc32(b"x:" + p1 + b"|"))`` equals the
    CRC of the concatenation, and :func:`encode_feature`'s index.
    """

    def __init__(self, config: FeatureConfig = FeatureConfig()) -> None:
        self.config = config
        self._indices: Dict[str, int] = {}
        self._paths: Dict[str, PathHash] = {}
        self._gammas: Dict[Tuple[Tuple[str, ...], int],
                           Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
        self.bias = self.index("bias")

    def index(self, token: str) -> int:
        """The index of one whole token (``"bias"``, ``"g:…"``)."""
        hashed = self._indices.get(token)
        if hashed is None:
            if len(self._indices) >= MEMO_LIMIT:
                self._indices.clear()
            hashed = _hash_token(token, self.config.dim)
            self._indices[token] = hashed
        return hashed

    def path(self, token: str) -> PathHash:
        """The :data:`PathHash` of one context token."""
        entry = self._paths.get(token)
        if entry is None:
            if len(self._paths) >= MEMO_LIMIT:
                self._paths.clear()
            raw = token.encode("utf-8")
            dim = self.config.dim
            entry = (zlib.crc32(b"c1:" + raw) % dim,
                     zlib.crc32(b"c2:" + raw) % dim,
                     zlib.crc32(b"x:" + raw + b"|"), raw)
            self._paths[token] = entry
        return entry

    def gamma(self, call: Call) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """A call's γ indices (argument types and arity), as the first
        event of a pair (tag ``a``) and as the second (tag ``b``)."""
        key = (call.arg_types, call.nargs)
        entry = self._gammas.get(key)
        if entry is None:
            if len(self._gammas) >= MEMO_LIMIT:
                self._gammas.clear()
            a, b = (tuple([self.index(f"g:type:{tag}:{n}:{t}")
                           for n, t in enumerate(call.arg_types)]
                          + [self.index(f"g:nargs:{tag}:{call.nargs}")])
                    for tag in ("a", "b"))
            entry = self._gammas[key] = (a, b)
        return entry


class _EventFeatures(NamedTuple):
    """Everything a pair needs from one event, computed once."""

    #: its context tokens in string order, each hashed and with the
    #: event ids on every path that renders it (hiding any of them
    #: drops the token)
    tokens: List[Tuple[PathHash, Tuple[int, ...]]]
    #: γ indices with the event first (tag ``a``) and second (``b``)
    gamma_a: Tuple[int, ...]
    gamma_b: Tuple[int, ...]
    #: as ``e1``: its ``c1:`` and γ indices plus the bias, and the
    #: conjunction prefix states of its first ``max_paths`` tokens
    left: FrozenSet[int]
    prefixes: Tuple[int, ...]
    #: as ``e2``: its ``c2:`` and γ indices, and the conjunction suffixes
    right: FrozenSet[int]
    suffixes: Tuple[bytes, ...]
    #: the guards around its call site (:class:`GuardIndex`)
    guards: Tuple[int, ...]


class FeatureTable:
    """One analysed program, featurized once, on integers (§4.1–4.2).

    Events are numbered ``0 … n-1`` in ``sort_key`` order
    (:attr:`events`, :attr:`index`), so sorting ids sorts events.  The
    first pair that involves an event computes its ``ctx_{G,k}`` paths,
    their tokens (each path rendered once per table), its γ and all
    their hashes; later pairs reuse them.  ``hide_pair`` is an id
    membership test.  :meth:`encode` returns exactly
    ``encode_sample(extract_feature(…))``'s position key and indices.
    """

    def __init__(self, graph: EventGraph, guard_index: GuardIndex,
                 hasher: FeatureHasher) -> None:
        self.graph = graph
        self.guard_index = guard_index
        self.hasher = hasher
        self.config = hasher.config
        self.events: List[Event] = sorted(graph.events,
                                          key=lambda e: e.sort_key)
        self.index: Dict[Event, int] = {
            e: i for i, e in enumerate(self.events)}
        index = self.index
        #: successor ids of every event
        self.children: List[FrozenSet[int]] = [
            frozenset([index[c] for c in graph.children(e)])
            for e in self.events]
        self._parents: List[Tuple[int, ...]] = [
            tuple([index[p] for p in graph.parents(e)]) for e in self.events]
        self._pos_tokens: List[str] = []
        #: every event as a path element, qualified and bare
        self._labels: List[Tuple[str, str]] = []
        for e in self.events:
            method_id, pos = e.site.method_id, _pos_token(e.pos)
            self._pos_tokens.append(pos)
            self._labels.append((f"{method_id}:{pos}",
                                 f"{_bare_name(method_id)}:{pos}"))
        self._rendered: Dict[Tuple[int, ...], Tuple[str, ...]] = {}
        self._features: List[Optional[_EventFeatures]] = (
            [None] * len(self.events))

    def edges(self) -> List[Tuple[int, int]]:
        """The graph's edges as ids, in :meth:`EventGraph.edges` order."""
        return [(i, j) for i, succ in enumerate(self.children)
                for j in sorted(succ)]

    def has_edge(self, i: int, j: int) -> bool:
        return j in self.children[i]

    # ------------------------------------------------------------------
    # per-event data, computed once

    def _backward(self, i: int, budget: int) -> List[Tuple[int, ...]]:
        results = [(i,)]
        if budget > 0:
            for p in self._parents[i]:
                results.extend(sub + (i,)
                               for sub in self._backward(p, budget - 1))
        return results

    def _forward(self, i: int, budget: int) -> List[Tuple[int, ...]]:
        results = [(i,)]
        if budget > 0:
            for c in self.children[i]:
                results.extend((i,) + sub
                               for sub in self._forward(c, budget - 1))
        return results

    def _event(self, i: int) -> _EventFeatures:
        features = self._features[i]
        if features is not None:
            return features
        k = self.config.context_k
        # ctx_{G,k}(e_i), as EventGraph.contexts builds it
        paths = {back[:-1] + fwd
                 for back in self._backward(i, k - 1)
                 for fwd in self._forward(i, k - len(back))}
        rendered, labels = self._rendered, self._labels
        common: Dict[str, Tuple[int, ...]] = {}
        for path in paths:
            tokens = rendered.get(path)
            if tokens is None:
                # _path_token and _name_path_token
                tokens = ("→".join([labels[x][0] for x in path]),)
                if self.config.name_tokens:
                    tokens += ("~".join([labels[x][1] for x in path]),)
                rendered[path] = tokens
            for token in tokens:
                shared = common.get(token)
                common[token] = path if shared is None else tuple(
                    [x for x in shared if x in path])
        hash_path = self.hasher.path
        ordered = [(hash_path(token), ids)
                   for token, ids in sorted(common.items())]
        instr = self.events[i].site.instr
        gamma_a, gamma_b = self.hasher.gamma(instr) \
            if isinstance(instr, Call) else ((), ())
        head = ordered[:self.config.max_paths] \
            if self.config.pair_features else ()
        features = _EventFeatures(
            ordered, gamma_a, gamma_b,
            frozenset([h[0] for h, _ in ordered]).union(
                gamma_a, (self.hasher.bias,)),
            tuple([h[2] for h, _ in head]),
            frozenset([h[1] for h, _ in ordered]).union(gamma_b),
            tuple([h[3] for h, _ in head]),
            self.guard_index.guards_of(instr),
        )
        self._features[i] = features
        return features

    # ------------------------------------------------------------------

    def encode(self, i: int, j: int,
               hide_pair: bool = False) -> Tuple[Tuple[str, str],
                                                 Tuple[int, ...]]:
        """``ftr(e_i, e_j)`` as its position key and hashed indices."""
        first, second = self._event(i), self._event(j)
        left, prefixes = first.left, first.prefixes
        right, suffixes = second.right, second.suffixes
        if hide_pair:
            # §4.2: no path of either context may reveal the other event
            kept = [h for h, ids in first.tokens if j not in ids]
            if len(kept) < len(first.tokens):
                left = frozenset([h[0] for h in kept]).union(
                    first.gamma_a, (self.hasher.bias,))
                prefixes = tuple([h[2] for h in kept[:len(prefixes)]])
            kept = [h for h, ids in second.tokens if i not in ids]
            if len(kept) < len(second.tokens):
                right = frozenset([h[1] for h in kept]).union(second.gamma_b)
                suffixes = tuple([h[3] for h in kept[:len(suffixes)]])
        dim = self.config.dim
        crc32 = zlib.crc32
        extra = [crc32(suffix, prefix) % dim
                 for prefix in prefixes for suffix in suffixes]
        extra.append(self.hasher.index(
            "g:guard:" + _guard_relation(first.guards, second.guards)))
        return ((self._pos_tokens[i], self._pos_tokens[j]),
                tuple(sorted(left.union(right, extra))))
