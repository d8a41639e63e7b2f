"""Deterministic discrete-event message network for the chain substrate.

`chain/network.py` answers "how many bytes cross the wire" (the paper's
Table VI analytic model); this module answers "when — and whether — each
message arrives". It simulates the cross-shard message plane as a
discrete-event system in *block* time:

- :class:`NetworkSpec` — a named, frozen fault/latency plan: per-link
  extra latency and jitter, iid drop probability, duplicate and reorder
  injection, a bandwidth term (serialization delay per message size),
  periodic link outages, periodic partitions, and per-message-class
  :class:`RetryPolicy` overrides. Presets: ``ideal``, ``lan``, ``wan``
  and ``lossy`` (degraded WAN).
- :class:`NetworkModel` — a spec plus a seeded RNG. All randomness flows
  through one ``numpy`` PCG64 Generator consumed in attempt order, so a
  run is a pure function of ``(spec, seed, send sequence)``. The bus
  reads that stream in bulk through :class:`_StreamReader`, which
  decodes raw words exactly as the scalar ``random()`` /
  ``integers(0, n)`` calls would and leaves the Generator where they
  would have left it.
- :class:`MessageBus` — the event loop. In-flight messages (relay
  receipts, beacon MR-batch announcements, workload-vector gossip) are
  rows of columns keyed by sequence number and sized to the messages in
  flight; a pending attempt is one integer on a heap, and deliveries
  and expiries wait in per-block buckets off the heap; batches are
  enqueued with one column write and :meth:`MessageBus.advance` returns
  arrays. Dropped transmissions retransmit with bounded exponential
  backoff in blocks; a message whose deadline passes undelivered
  expires.
- :class:`ReceiptTransport` — the bridge between the
  :class:`~repro.chain.crossshard.CrossShardExecutor` and the bus.
  Receipts ride the bus with their payload as extra columns; settlement
  keys off *delivered* blocks, redelivered copies are recognised by the
  bus's duplicate flag (idempotent settle), and expired
  receipts turn into sender refunds so value is conserved under every
  fault plan.

The per-object formulation this replaced is the test oracle
``tests/netsim_reference.py``: property tests drive both with the same
sends and compare delivery streams, ledgers and the Generator state.

The ideal model
---------------
The ``ideal`` spec is a *null model*, and ``CrossShardExecutor``'s
default: :meth:`MessageBus.send_many` only bumps counters (no events,
no RNG draws), and :meth:`ReceiptTransport.issue` appends receipts to
the :class:`~repro.chain.receipts.ReceiptLedger` at issue with
``due_block = block + relay_delay_blocks``. Its settlement schedule is
therefore exactly the relay schedule — pinned by the settlement golden
``tests/test_golden_settlement.py`` — rather than a sample of a
distribution whose parameters happen to be zero.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from math import fsum
from operator import length_hint
from typing import DefaultDict, Dict, List, NamedTuple, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.chain.network import MR_RECORD_BYTES, OMEGA_ENTRY_BYTES

__all__ = [
    "MSG_RECEIPT",
    "MSG_BEACON_ANNOUNCE",
    "MSG_GOSSIP",
    "MESSAGE_CLASSES",
    "NETWORK_IDEAL",
    "NETWORK_SPEC_NAMES",
    "RECEIPT_MESSAGE_BYTES",
    "BEACON_SHARD",
    "RetryPolicy",
    "LinkOutage",
    "Partition",
    "NetworkSpec",
    "network_spec",
    "NetworkModel",
    "BusStats",
    "Deliveries",
    "Expiries",
    "MessageBus",
    "ReceiptTransport",
]

#: Typed message classes carried by the bus. The bus stores a class as
#: its index in :data:`MESSAGE_CLASSES`.
MSG_RECEIPT = "receipt"
MSG_BEACON_ANNOUNCE = "beacon-announce"
MSG_GOSSIP = "workload-gossip"
MESSAGE_CLASSES = (MSG_RECEIPT, MSG_BEACON_ANNOUNCE, MSG_GOSSIP)

#: Wire size of one relay receipt: the beacon MR record (Table VI) plus
#: amount, fee and shard-routing fields.
RECEIPT_MESSAGE_BYTES = MR_RECORD_BYTES + 23

#: Pseudo shard id for messages originating at the beacon chain. Beacon
#: announcements into a partitioned group still cross the cut (the
#: beacon sits outside every group), so partitions delay them too.
BEACON_SHARD = -1

NETWORK_IDEAL = "ideal"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmit schedule for one message class.

    A message is transmitted up to ``max_attempts`` times; attempt
    ``n`` (1-based) retransmits ``backoff_blocks * 2**(n-1)`` blocks
    after attempt ``n`` fails. If no copy is delivered by
    ``send_block + deadline_blocks`` the message expires at the deadline
    block; transmissions that would land past the deadline are not
    delivered — the sender has already timed out.
    """

    max_attempts: int = 3
    backoff_blocks: int = 2
    deadline_blocks: int = 24

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_blocks < 1:
            raise ConfigurationError(
                f"backoff_blocks must be >= 1, got {self.backoff_blocks}"
            )
        if self.deadline_blocks < 1:
            raise ConfigurationError(
                f"deadline_blocks must be >= 1, got {self.deadline_blocks}"
            )

    def backoff(self, failed_attempts: int) -> int:
        """Blocks to wait after ``failed_attempts`` failures (>= 1)."""
        return self.backoff_blocks << (failed_attempts - 1)


@dataclass(frozen=True)
class LinkOutage:
    """Periodic outage of every link touching ``shard``.

    The link is down when ``(block - phase) % period_blocks <
    down_blocks``. Periodic (rather than absolute-block) schedules keep
    fault plans trace-agnostic: any workload, any block range.
    """

    shard: int
    period_blocks: int
    down_blocks: int
    phase: int = 0

    def __post_init__(self) -> None:
        if self.period_blocks < 1:
            raise ConfigurationError(
                f"period_blocks must be >= 1, got {self.period_blocks}"
            )
        if not 0 <= self.down_blocks <= self.period_blocks:
            raise ConfigurationError(
                "down_blocks must lie in [0, period_blocks], got "
                f"{self.down_blocks}"
            )

    def active(self, block: int) -> bool:
        return (block - self.phase) % self.period_blocks < self.down_blocks

    def cuts(self, src: int, dst: int) -> bool:
        return src == self.shard or dst == self.shard

    def down(self, src: int, dst: int, block: int) -> bool:
        return self.cuts(src, dst) and self.active(block)


@dataclass(frozen=True)
class Partition:
    """Periodic partition cutting ``group`` off from the rest.

    A message is blocked while the partition is active iff exactly one
    endpoint lies inside ``group`` (intra-group and outside-group
    traffic is unaffected). The beacon (:data:`BEACON_SHARD`) is outside
    every group, so announcements into a partitioned group are blocked.
    """

    group: Tuple[int, ...]
    period_blocks: int
    down_blocks: int
    phase: int = 0

    def __post_init__(self) -> None:
        if not self.group:
            raise ConfigurationError("partition group must be non-empty")
        if self.period_blocks < 1:
            raise ConfigurationError(
                f"period_blocks must be >= 1, got {self.period_blocks}"
            )
        if not 0 <= self.down_blocks <= self.period_blocks:
            raise ConfigurationError(
                "down_blocks must lie in [0, period_blocks], got "
                f"{self.down_blocks}"
            )

    def active(self, block: int) -> bool:
        return (block - self.phase) % self.period_blocks < self.down_blocks

    def cuts(self, src: int, dst: int) -> bool:
        return (src in self.group) != (dst in self.group)

    def down(self, src: int, dst: int, block: int) -> bool:
        return self.cuts(src, dst) and self.active(block)


_DEFAULT_RETRIES: Tuple[Tuple[str, RetryPolicy], ...] = (
    (MSG_RECEIPT, RetryPolicy(max_attempts=4, backoff_blocks=2, deadline_blocks=24)),
    (MSG_BEACON_ANNOUNCE, RetryPolicy(max_attempts=3, backoff_blocks=1, deadline_blocks=12)),
    (MSG_GOSSIP, RetryPolicy(max_attempts=2, backoff_blocks=1, deadline_blocks=8)),
)


@dataclass(frozen=True)
class NetworkSpec:
    """A named, frozen latency/fault plan for the message plane.

    All latencies are integers in block units and *additional* to the
    protocol's relay delay — the spec models network degradation on top
    of the consensus schedule, so receipt staleness is
    ``delivered - issued - relay_delay_blocks`` and the ideal spec adds
    exactly zero.
    """

    name: str
    extra_latency_blocks: int = 0
    jitter_blocks: int = 0
    drop_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0
    reorder_jitter_blocks: int = 0
    #: Serialization delay: ``size_bytes // bandwidth`` extra blocks
    #: per message. 0 means unconstrained.
    bandwidth_bytes_per_block: float = 0.0
    outages: Tuple[LinkOutage, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    retries: Tuple[Tuple[str, RetryPolicy], ...] = _DEFAULT_RETRIES

    def __post_init__(self) -> None:
        for label, p in (
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("reorder_prob", self.reorder_prob),
        ):
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{label} must lie in [0, 1], got {p}")
        for label, n in (
            ("extra_latency_blocks", self.extra_latency_blocks),
            ("jitter_blocks", self.jitter_blocks),
            ("reorder_jitter_blocks", self.reorder_jitter_blocks),
        ):
            if n < 0:
                raise ConfigurationError(f"{label} must be >= 0, got {n}")
        if self.bandwidth_bytes_per_block < 0:
            raise ConfigurationError(
                "bandwidth_bytes_per_block must be >= 0, got "
                f"{self.bandwidth_bytes_per_block}"
            )
        known = {cls for cls, _ in self.retries}
        for cls in known:
            if cls not in MESSAGE_CLASSES:
                raise ConfigurationError(f"unknown message class in retries: {cls!r}")

    @property
    def is_ideal(self) -> bool:
        """True when the spec cannot delay, drop, or duplicate anything."""
        return (
            self.extra_latency_blocks == 0
            and self.jitter_blocks == 0
            and self.drop_prob == 0.0
            and self.duplicate_prob == 0.0
            and self.reorder_prob == 0.0
            and self.bandwidth_bytes_per_block == 0.0
            and not self.outages
            and not self.partitions
        )

    def retry_for(self, message_class: str) -> RetryPolicy:
        for cls, policy in self.retries:
            if cls == message_class:
                return policy
        return RetryPolicy()


_SPECS: Dict[str, NetworkSpec] = {
    spec.name: spec
    for spec in (
        # Null model: counters only, no events; receipts settle on the
        # relay schedule exactly (see module docstring).
        NetworkSpec(name=NETWORK_IDEAL),
        # Same-datacenter links: sub-block jitter only.
        NetworkSpec(name="lan", jitter_blocks=1, drop_prob=0.001),
        # Healthy wide-area links: steady extra latency, light loss,
        # occasional reordering, finite serialization bandwidth.
        NetworkSpec(
            name="wan",
            extra_latency_blocks=2,
            jitter_blocks=2,
            drop_prob=0.01,
            duplicate_prob=0.002,
            reorder_prob=0.05,
            reorder_jitter_blocks=3,
            bandwidth_bytes_per_block=64_000.0,
        ),
        # Degraded WAN: heavy loss, frequent reordering, duplicate
        # echo, periodic outage of shard 0's links and a periodic
        # partition isolating shard 1. The model of the network-smoke
        # matrix preset.
        NetworkSpec(
            name="lossy",
            extra_latency_blocks=3,
            jitter_blocks=4,
            drop_prob=0.12,
            duplicate_prob=0.02,
            reorder_prob=0.10,
            reorder_jitter_blocks=6,
            bandwidth_bytes_per_block=16_000.0,
            outages=(LinkOutage(shard=0, period_blocks=97, down_blocks=6),),
            partitions=(Partition(group=(1,), period_blocks=149, down_blocks=5),),
        ),
    )
}

NETWORK_SPEC_NAMES: Tuple[str, ...] = tuple(_SPECS)


def network_spec(name: str) -> NetworkSpec:
    """Look up a preset :class:`NetworkSpec` by name."""
    try:
        return _SPECS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown network spec {name!r}; expected one of "
            f"{', '.join(NETWORK_SPEC_NAMES)}"
        ) from None


class NetworkModel:
    """A :class:`NetworkSpec` plus a seeded RNG stream.

    One ``numpy`` Generator serves every sample, consumed in event
    order, so two models built from the same ``(spec, seed)`` replay
    identical fault sequences for identical send sequences.
    """

    def __init__(self, spec: Union[str, NetworkSpec], seed: int = 0) -> None:
        self.spec = spec if isinstance(spec, NetworkSpec) else network_spec(spec)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    @property
    def is_ideal(self) -> bool:
        return self.spec.is_ideal

    @property
    def name(self) -> str:
        return self.spec.name


@dataclass
class BusStats:
    """Cumulative bus counters (monotone; consumers diff snapshots)."""

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    retransmissions: int = 0
    duplicates: int = 0
    expired: int = 0

    def snapshot(self) -> Tuple[int, int, int, int, int, int]:
        return (
            self.sent,
            self.delivered,
            self.dropped,
            self.retransmissions,
            self.duplicates,
            self.expired,
        )


class Deliveries(NamedTuple):
    """Delivered copies from one :meth:`MessageBus.advance`, in
    ``(block, seq)`` order; ``duplicate`` marks the echo that follows
    the first copy of its message."""

    blocks: np.ndarray
    seqs: np.ndarray
    duplicate: np.ndarray


class Expiries(NamedTuple):
    """Messages that expired undelivered, in ``(deadline, seq)`` order."""

    blocks: np.ndarray
    seqs: np.ndarray


#: A pending attempt is the heap key ``block << _SEQ_BITS | seq``.
_SEQ_BITS = 40
_SEQ_MASK = (1 << _SEQ_BITS) - 1

#: Outcome kinds, the low two bits of a ``seq << 2 | kind`` outcome tag:
#: a message's first copy, its duplicate one block later, its expiry.
_DELIVER = 0
_ECHO = 1
_EXPIRE = 2

#: Raw 64-bit words a :class:`_StreamReader` pulls per refill.
_CHUNK_WORDS = 256
_U32 = 0xFFFF_FFFF
_DOUBLE_SCALE = 2.0**-53


class _StreamReader:
    """Bulk reader of a PCG64 Generator's stream, value for value the
    scalar calls it replaces.

    Raw words come from ``bit_generator.random_raw`` in chunks of
    :data:`_CHUNK_WORDS` and are decoded in Python exactly as numpy
    decodes them: :meth:`random` is ``Generator.random()`` (the top 53
    bits of one word) and :meth:`integers` is ``int(Generator.integers(0,
    n))`` (Lemire's bounded method on 32-bit halves, rejection loop
    included), with PCG64's buffered half-word (``has_uint32`` /
    ``uinteger``) carried across both. :meth:`close` rewinds the
    Generator to the snapshot taken at construction, advances it by the
    words actually decoded and restores the half-word, so the Generator
    ends exactly where the scalar calls would have left it; reading
    ahead is invisible.
    """

    __slots__ = ("_bits", "_start", "_words", "_drawn", "_has_half", "_half")

    def __init__(self, rng: np.random.Generator) -> None:
        self._bits = rng.bit_generator
        self._start = self._bits.state
        self._words = iter(())
        self._drawn = 0
        self._has_half = self._start["has_uint32"]
        self._half = self._start["uinteger"]

    def _refill(self) -> int:
        words = self._bits.random_raw(_CHUNK_WORDS).tolist()
        self._drawn += _CHUNK_WORDS
        self._words = iter(words)
        return next(self._words)

    def random(self) -> float:
        """``Generator.random()``: a double in ``[0, 1)``."""
        try:
            word = next(self._words)
        except StopIteration:
            word = self._refill()
        return (word >> 11) * _DOUBLE_SCALE

    def _uint32(self) -> int:
        if self._has_half:
            self._has_half = 0
            return self._half
        try:
            word = next(self._words)
        except StopIteration:
            word = self._refill()
        self._has_half = 1
        self._half = word >> 32
        return word & _U32

    def integers(self, n: int) -> int:
        """``int(Generator.integers(0, n))`` for ``2 <= n <= 2**32``."""
        m = self._uint32() * n
        if m & _U32 < n:
            threshold = (_U32 + 1 - n) % n
            while m & _U32 < threshold:
                m = self._uint32() * n
        return m >> 32

    def close(self) -> None:
        """Leave the Generator where the scalar calls would have."""
        # Words pulled, less those still unread in the current chunk.
        used = self._drawn - length_hint(self._words)
        bits = self._bits
        bits.state = self._start
        # ``advance`` clears the half-word; put the reader's back.
        state = bits.advance(used).state
        state["has_uint32"], state["uinteger"] = self._has_half, self._half
        bits.state = state


class MessageBus:
    """Discrete-event loop over columnar message state.

    A pending transmission attempt is one integer on a heap, ``block <<
    _SEQ_BITS | seq``, so attempts pop in ``(block, seq)`` order: within
    a block they run in the deterministic send order, and the attempt
    sequence — and therefore the RNG consumption order — is a pure
    function of the send sequence. No tie-breaker is needed because a
    message has at most one attempt pending (a dropped attempt schedules
    the next, a landed one none), so no two keys share ``(block, seq)``.
    Sequence numbers must fit :data:`_SEQ_BITS` bits; :meth:`send_many`
    refuses the send that would overflow them.

    Outcomes draw nothing and no attempt reads them, so they stay off
    the heap: an attempt files its delivery (and the duplicate, one
    block later) or its expiry as a ``seq << 2 | kind`` tag in the
    bucket of the outcome's block, and :meth:`advance` emits the due
    buckets in ``(block, seq)`` order once its attempts have run. A
    bucket holds at most one tag per message, and a duplicate always
    follows its message's one first copy, so the duplicate flag is the
    tag's kind and no copy counter is kept.

    Message ``seq`` is row ``seq - base`` of every column: numpy arrays
    for what is read in bulk (class, endpoints, issue block, resolved
    flag, caller payload), Python lists for the per-attempt scalars of
    the sequential attempt loop. Rows older than the oldest message
    with a pending event have resolved and are dropped when the rows run
    out, so storage tracks the messages in flight, not the messages
    sent.

    Under the ideal model :meth:`send_many` is a counter bump: no rows,
    no events, no RNG draws, nothing for :meth:`advance` to do.
    """

    def __init__(self, model: NetworkModel) -> None:
        if model.spec.jitter_blocks > _U32:
            # The jitter draw is ``integers(0, jitter + 1)`` on 32-bit halves.
            raise ConfigurationError(
                f"jitter_blocks must be < 2**32, got {model.spec.jitter_blocks}"
            )
        self.model = model
        self.stats = BusStats()
        #: Highest block this bus has been advanced to.
        self.clock = 0
        self._heap: List[int] = []
        #: Outcome block -> ``seq << 2 | kind`` tags due then.
        self._outcomes: DefaultDict[int, List[int]] = defaultdict(list)
        self._next_seq = 0
        self._base = 0
        self._max_deadline = 0
        self._retries = [model.spec.retry_for(cls) for cls in MESSAGE_CLASSES]
        self._faults = model.spec.outages + model.spec.partitions
        self._columns: Dict[str, np.ndarray] = {
            name: np.zeros(256, dtype=dtype)
            for name, dtype in (
                ("class", np.int8),
                ("src", np.int64),
                ("dst", np.int64),
                ("issued", np.int64),
                ("resolved", bool),
            )
        }
        #: Attempt-loop rows: deadline, fixed delay (relay + extra
        #: latency + serialization), (max_attempts, backoff_blocks),
        #: attempts so far.
        self._rows: Tuple[List, ...] = ([], [], [], [])

    def __len__(self) -> int:
        """Pending events: attempts and outcomes."""
        return len(self._heap) + sum(map(len, self._outcomes.values()))

    @property
    def horizon(self) -> int:
        """Latest block at which this bus can still produce an event
        (every event of a message falls on or before its deadline)."""
        return max(self._max_deadline, self.clock)

    def send_many(
        self,
        message_class: str,
        src: Union[int, np.ndarray],
        dst: np.ndarray,
        block: int,
        base_delay: int = 0,
        size_bytes: float = 0.0,
        **payload: np.ndarray,
    ) -> None:
        """Enqueue ``len(dst)`` messages sent at ``block``, in row order.

        ``src`` is an array or one shard for every row. Each ``payload``
        array becomes a same-named column, read back with
        :meth:`gather`. Rows take consecutive sequence numbers, so a
        batch draws exactly as the same sends one at a time. The class
        and delay are checked on every model, the ideal one included,
        before anything is counted.
        """
        if message_class not in MESSAGE_CLASSES:
            raise ConfigurationError(f"unknown message class {message_class!r}")
        if base_delay < 0:
            raise ConfigurationError(f"base_delay must be >= 0, got {base_delay}")
        count = len(dst)
        if self.model.is_ideal:
            # Null model: instant, reliable, unobserved by the heap.
            self.stats.sent += count
            self.stats.delivered += count
            return
        first = self._next_seq
        if first + count > 1 << _SEQ_BITS:
            raise ConfigurationError(
                f"bus sequence numbers are limited to {_SEQ_BITS} bits"
            )
        self.stats.sent += count
        spec = self.model.spec
        block = int(block)
        code = MESSAGE_CLASSES.index(message_class)
        policy = self._retries[code]
        deadline = block + policy.deadline_blocks
        delay = int(base_delay) + spec.extra_latency_blocks
        if spec.bandwidth_bytes_per_block:
            delay += int(float(size_bytes) // spec.bandwidth_bytes_per_block)
        self._reserve(count)
        rows = slice(first - self._base, first - self._base + count)
        columns = self._columns
        for name, values in (
            ("class", code), ("src", src), ("dst", dst), ("issued", block),
            ("resolved", False), *payload.items(),
        ):
            if name not in columns:
                columns[name] = np.zeros(len(columns["class"]), np.asarray(values).dtype)
            columns[name][rows] = values
        retry = (policy.max_attempts, policy.backoff_blocks)
        for column, value in zip(self._rows, (deadline, delay, retry, 0)):
            column.extend([value] * count)
        self._max_deadline = max(self._max_deadline, deadline)
        at, heap, push = block << _SEQ_BITS, self._heap, heapq.heappush
        for seq in range(first, first + count):
            push(heap, at | seq)
        self._next_seq = first + count

    def gather(self, name: str, seqs: np.ndarray) -> np.ndarray:
        """Column ``name`` at ``seqs`` — valid for the sequence numbers
        of the latest :meth:`advance` until the next send."""
        return self._columns[name][seqs - self._base]

    def unresolved(self, message_class: str) -> np.ndarray:
        """Sequence numbers of ``message_class`` messages neither
        delivered nor expired."""
        live = slice(0, self._next_seq - self._base)
        columns = self._columns
        mask = ~columns["resolved"][live] & (
            columns["class"][live] == MESSAGE_CLASSES.index(message_class)
        )
        return self._base + np.flatnonzero(mask)

    def advance(self, block: int) -> Tuple[Deliveries, Expiries]:
        """Process every event scheduled at or before ``block``.

        Attempts run one at a time in ``(block, seq)`` order, each
        drawing from the model's Generator: a drop test (skipped while
        the link is down), the jitter, the reorder test, and — for a
        copy that lands by the deadline — the duplicate test. The draws
        go through a :class:`_StreamReader`, which reads the Generator's
        stream in bulk and leaves it exactly where these scalar calls
        would have. The outcomes due by ``block`` then come out as
        arrays.
        """
        block = int(block)
        self.clock = max(self.clock, block)
        limit = (block + 1) << _SEQ_BITS
        if self._heap and self._heap[0] < limit:
            self._run_attempts(limit)
        return self._emit_outcomes(block)

    # -- internals ----------------------------------------------------

    def _run_attempts(self, limit: int) -> None:
        """Run every attempt whose heap key is below ``limit``."""
        spec = self.model.spec
        stream = _StreamReader(self.model._rng)
        random, integers = stream.random, stream.integers
        drop_p, duplicate_p, reorder_p = (
            spec.drop_prob, spec.duplicate_prob, spec.reorder_prob
        )
        jitter_stop = spec.jitter_blocks + 1 if spec.jitter_blocks else 0
        faults, fault_block, cutting = self._faults, None, []
        deadlines, delays, retries, attempts = self._rows
        srcs, dsts = self._columns["src"], self._columns["dst"]
        heap, pop, push = self._heap, heapq.heappop, heapq.heappush
        outcomes, base = self._outcomes, self._base
        dropped = retransmissions = 0
        while heap and heap[0] < limit:
            key = pop(heap)
            at, seq = key >> _SEQ_BITS, key & _SEQ_MASK
            row = seq - base
            n = attempts[row] + 1
            attempts[row] = n
            deadline = deadlines[row]
            if faults and at != fault_block:
                fault_block = at
                cutting = [f for f in faults if f.active(at)]
            if (
                cutting and any(f.cuts(srcs[row], dsts[row]) for f in cutting)
            ) or (drop_p > 0.0 and random() < drop_p):
                dropped += 1
                max_attempts, backoff = retries[row]
                retry_at = at + (backoff << (n - 1))
                if n < max_attempts and retry_at <= deadline:
                    retransmissions += 1
                    push(heap, retry_at << _SEQ_BITS | seq)
                else:
                    # Out of attempts (or the backoff overshoots): the
                    # timeout fires at the protocol deadline.
                    outcomes[deadline].append(seq << 2 | _EXPIRE)
                continue
            deliver_at = at + delays[row]
            if jitter_stop:
                deliver_at += integers(jitter_stop)
            if reorder_p > 0.0 and random() < reorder_p:
                deliver_at += spec.reorder_jitter_blocks
            if deliver_at > deadline:
                # Arrived too late to matter: the sender already timed
                # out, so the copy is discarded in flight.
                outcomes[deadline].append(seq << 2 | _EXPIRE)
                continue
            outcomes[deliver_at].append(seq << 2 | _DELIVER)
            if duplicate_p > 0.0 and random() < duplicate_p and deliver_at < deadline:
                outcomes[deliver_at + 1].append(seq << 2 | _ECHO)
        stream.close()
        self.stats.dropped += dropped
        self.stats.retransmissions += retransmissions

    def _emit_outcomes(self, block: int) -> Tuple[Deliveries, Expiries]:
        """Pop the outcome buckets due by ``block`` as arrays."""
        outcomes = self._outcomes
        due = sorted(at for at in outcomes if at <= block)
        buckets = [sorted(outcomes.pop(at)) for at in due]
        blocks = np.repeat(np.array(due, dtype=np.int64), [len(b) for b in buckets])
        tags = np.array(list(chain.from_iterable(buckets)), dtype=np.int64)
        seqs, kinds = tags >> 2, tags & 3
        self._columns["resolved"][seqs[kinds != _ECHO] - self._base] = True
        landed = kinds != _EXPIRE
        echo = kinds[landed] == _ECHO
        stats = self.stats
        stats.delivered += len(echo)
        stats.duplicates += int(np.count_nonzero(echo))
        stats.expired += len(tags) - len(echo)
        return (
            Deliveries(blocks[landed], seqs[landed], echo),
            Expiries(blocks[~landed], seqs[~landed]),
        )

    def _reserve(self, count: int) -> None:
        """Make room for ``count`` rows, dropping resolved ones first."""
        capacity = len(self._columns["class"])
        if self._next_seq + count - self._base <= capacity:
            return
        # A message with no pending event has resolved, so every row
        # older than the oldest pending message can go.
        base = min(
            chain(
                (key & _SEQ_MASK for key in self._heap),
                (tag >> 2 for tags in self._outcomes.values() for tag in tags),
            ),
            default=self._next_seq,
        )
        shift = base - self._base
        live = self._next_seq - base
        # Keep at least half the rows free so drops stay amortised O(1).
        while 2 * (live + count) > capacity:
            capacity *= 2
        for name, column in self._columns.items():
            moved = np.zeros(capacity, dtype=column.dtype)
            moved[:live] = column[shift : shift + live]
            self._columns[name] = moved
        for column in self._rows:
            del column[:shift]
        self._base = base


_NO_REFUNDS: Tuple[Tuple[int, int, float], ...] = ()
_RECEIPT = MESSAGE_CLASSES.index(MSG_RECEIPT)


class ReceiptTransport:
    """Routes withdraw-phase receipts through a :class:`MessageBus`.

    The executor issues every receipt here; :meth:`poll` (called at the
    top of every settle pass) drains the bus, appends first copies of
    delivered receipts to the ledger keyed by their *delivered* block,
    counts redelivered copies as deduplicated, and returns
    ``(tx_id, sender, amount)`` refund rows for expired receipts. A
    receipt's tx id comes from the executor's monotone counter, so each
    message carries a distinct receipt and the bus's duplicate flag is
    an exact dedup key.
    Undelivered value is an exact ``fsum`` over the bus's unresolved
    receipt amounts (no incremental float drift), so
    ``ledger total + pending_value`` keeps conservation checks tight at
    every block boundary.
    """

    def __init__(self, model: NetworkModel, relay_delay_blocks: int) -> None:
        self.model = model
        self.bus = MessageBus(model)
        self.relay_delay_blocks = int(relay_delay_blocks)
        self.duplicates_deduped = 0
        self.expired_receipts = 0
        self.refunded_value = 0.0
        self._staleness: List[int] = []

    @property
    def is_ideal(self) -> bool:
        return self.model.is_ideal

    def pending_count(self) -> int:
        """Receipts issued but neither delivered nor expired."""
        return len(self.bus.unresolved(MSG_RECEIPT))

    def pending_value(self) -> float:
        """Exact value carried by undelivered, unexpired receipts."""
        seqs = self.bus.unresolved(MSG_RECEIPT)
        if not len(seqs):
            return 0.0
        return fsum(self.bus.gather("amount", seqs).tolist())

    def horizon(self) -> int:
        """A block by which every in-flight message has resolved (0 on
        the ideal model, whose bus never holds a message)."""
        if self.model.is_ideal:
            return 0
        return self.bus.horizon + 1

    def drain_staleness(self) -> List[int]:
        """Per-receipt staleness (blocks late vs the relay schedule)
        accumulated since the last drain."""
        samples = self._staleness
        self._staleness = []
        return samples

    def issue(
        self,
        ledger,
        block: int,
        tx_ids: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        amounts: np.ndarray,
        source_shards: np.ndarray,
        target_shards: np.ndarray,
    ) -> None:
        """Put one block's withdraw receipts on the wire."""
        if len(tx_ids) == 0:
            return
        if self.model.is_ideal:
            # The relay schedule itself: the receipt joins the ledger
            # now, due a relay delay later. Only the counters move.
            self.bus.send_many(MSG_RECEIPT, source_shards, target_shards, block)
            ledger.append_batch(
                tx_ids=tx_ids,
                senders=senders,
                receivers=receivers,
                amounts=amounts,
                source_shards=source_shards,
                target_shards=target_shards,
                issued_block=block,
                due_block=block + self.relay_delay_blocks,
            )
            return
        self.bus.send_many(
            MSG_RECEIPT,
            source_shards,
            target_shards,
            block,
            base_delay=self.relay_delay_blocks,
            size_bytes=RECEIPT_MESSAGE_BYTES,
            tx_id=np.asarray(tx_ids, dtype=np.int64),
            sender=np.asarray(senders, dtype=np.int64),
            receiver=np.asarray(receivers, dtype=np.int64),
            amount=np.asarray(amounts, dtype=np.float64),
        )

    def poll(
        self, block: int, ledger
    ) -> Sequence[Tuple[int, int, float]]:
        """Drain the bus up to ``block``.

        Appends delivered receipts to ``ledger`` grouped by delivered
        block (which becomes their ``due_block``, so the unchanged
        ``pop_due`` settles them this pass) and returns refund rows
        ``(tx_id, sender, amount)`` for receipts that expired.
        """
        if self.model.is_ideal:
            return _NO_REFUNDS
        delivered, expired = self.bus.advance(block)
        if len(delivered.seqs):
            self._append_deliveries(delivered, ledger)
        seqs = expired.seqs[self.bus.gather("class", expired.seqs) == _RECEIPT]
        if not len(seqs):
            return _NO_REFUNDS
        tx_ids, senders, amounts = (
            self.bus.gather(name, seqs).tolist()
            for name in ("tx_id", "sender", "amount")
        )
        self.expired_receipts += len(amounts)
        for amount in amounts:
            self.refunded_value += amount
        return list(zip(tx_ids, senders, amounts))

    # -- internals ----------------------------------------------------

    def _append_deliveries(self, delivered: Deliveries, ledger) -> None:
        bus = self.bus
        receipt = bus.gather("class", delivered.seqs) == _RECEIPT
        self.duplicates_deduped += int(
            np.count_nonzero(receipt & delivered.duplicate)
        )
        first = receipt & ~delivered.duplicate
        seqs = delivered.seqs[first]
        if not len(seqs):
            return
        blocks = delivered.blocks[first]
        issued = bus.gather("issued", seqs)
        self._staleness.extend(
            (blocks - issued - self.relay_delay_blocks).tolist()
        )
        tx_ids, senders, receivers, amounts, sources, targets = (
            bus.gather(name, seqs)
            for name in ("tx_id", "sender", "receiver", "amount", "src", "dst")
        )
        # One ledger append per delivery block, in delivery order.
        bounds = [0, *(np.flatnonzero(np.diff(blocks)) + 1).tolist(), len(seqs)]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            ledger.append_batch(
                tx_ids=tx_ids[lo:hi],
                senders=senders[lo:hi],
                receivers=receivers[lo:hi],
                amounts=amounts[lo:hi],
                source_shards=sources[lo:hi],
                target_shards=targets[lo:hi],
                issued_block=issued[lo:hi],
                due_block=int(blocks[lo]),
            )
