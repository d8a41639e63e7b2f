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
  through one ``numpy`` Generator consumed in event order, so a run is a
  pure function of ``(spec, seed, send sequence)``.
- :class:`MessageBus` — the event loop. A heap ordered by
  ``(block, seq, event_no)`` carries typed messages (relay receipts,
  beacon MR-batch announcements, workload-vector gossip). Dropped
  transmissions retransmit with bounded exponential backoff in blocks;
  a message whose deadline passes undelivered is reported as a typed
  :class:`~repro.errors.DeliveryExpired` record.
- :class:`ReceiptTransport` — the bridge between the
  :class:`~repro.chain.crossshard.CrossShardExecutor` and the bus.
  Withdraw-phase receipts ride the bus; settlement keys off *delivered*
  blocks, duplicate deliveries are deduplicated by receipt id
  (idempotent settle), and expired receipts turn into sender refunds so
  value is conserved under every fault plan.

Ideal-model bit-identity
------------------------
The ``ideal`` spec is a *null model*: :meth:`MessageBus.send` only bumps
counters (no events, no RNG draws), and
:meth:`ReceiptTransport.issue` appends receipts to the
:class:`~repro.chain.receipts.ReceiptLedger` with exactly the direct
path's arguments (``due_block = block + relay_delay_blocks``). The ideal
path therefore produces byte-identical ledgers, settlement order, state
roots and digests to an executor built with ``network=None`` — enforced
by equivalence tests and a perf-gated overhead budget, not by sampling
a distribution whose parameters happen to be zero.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from math import fsum
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, DeliveryExpired
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
    "Delivery",
    "MessageBus",
    "ReceiptTransport",
]

#: Typed message classes carried by the bus.
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
    ``send_block + deadline_blocks`` the message expires (a
    :class:`~repro.errors.DeliveryExpired` record at the deadline
    block); transmissions that would land past the deadline are not
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

    def down(self, src: int, dst: int, block: int) -> bool:
        if src != self.shard and dst != self.shard:
            return False
        return (block - self.phase) % self.period_blocks < self.down_blocks


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

    def down(self, src: int, dst: int, block: int) -> bool:
        if (src in self.group) == (dst in self.group):
            return False
        return (block - self.phase) % self.period_blocks < self.down_blocks


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
        # Null model: counters only, no events. Bit-identical to the
        # direct-call path by construction (see module docstring).
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

    def retry_for(self, message_class: str) -> RetryPolicy:
        return self.spec.retry_for(message_class)

    def link_down(self, src: int, dst: int, block: int) -> bool:
        spec = self.spec
        for outage in spec.outages:
            if outage.down(src, dst, block):
                return True
        for partition in spec.partitions:
            if partition.down(src, dst, block):
                return True
        return False

    def sample_drop(self) -> bool:
        p = self.spec.drop_prob
        return p > 0.0 and self._rng.random() < p

    def sample_duplicate(self) -> bool:
        p = self.spec.duplicate_prob
        return p > 0.0 and self._rng.random() < p

    def sample_latency(self, size_bytes: float) -> int:
        """Extra delivery latency (blocks) beyond the relay delay."""
        spec = self.spec
        extra = spec.extra_latency_blocks
        if spec.jitter_blocks:
            extra += int(self._rng.integers(0, spec.jitter_blocks + 1))
        if spec.reorder_prob and self._rng.random() < spec.reorder_prob:
            extra += spec.reorder_jitter_blocks
        if spec.bandwidth_bytes_per_block:
            extra += int(size_bytes // spec.bandwidth_bytes_per_block)
        return extra


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


@dataclass(frozen=True)
class Delivery:
    """One delivered message copy, emitted in ``(block, seq)`` order."""

    block: int
    seq: int
    message_class: str
    src: int
    dst: int
    issued_block: int
    attempts: int
    duplicate: bool
    payload: object


class _Pending:
    """Mutable in-flight message state (bus-internal)."""

    __slots__ = (
        "seq",
        "message_class",
        "src",
        "dst",
        "issued_block",
        "deadline_block",
        "base_delay",
        "size_bytes",
        "payload",
        "attempts",
        "delivered_copies",
        "resolved",
    )

    def __init__(
        self,
        seq: int,
        message_class: str,
        src: int,
        dst: int,
        issued_block: int,
        deadline_block: int,
        base_delay: int,
        size_bytes: float,
        payload: object,
    ) -> None:
        self.seq = seq
        self.message_class = message_class
        self.src = src
        self.dst = dst
        self.issued_block = issued_block
        self.deadline_block = deadline_block
        self.base_delay = base_delay
        self.size_bytes = size_bytes
        self.payload = payload
        self.attempts = 0
        self.delivered_copies = 0
        self.resolved = False


_EVT_ATTEMPT = 0
_EVT_DELIVER = 1
_EVT_EXPIRE = 2


class MessageBus:
    """Heap-ordered discrete-event loop over a :class:`NetworkModel`.

    Events are keyed ``(block, seq, event_no)``: delivery order within a
    block is the deterministic send order, and the monotone event
    counter breaks residual ties, so the pop sequence — and therefore
    the RNG consumption order — is a pure function of the send sequence.

    Under the ideal model :meth:`send` is a counter bump: no heap entry,
    no RNG draw, nothing for :meth:`advance` to do.
    """

    def __init__(self, model: NetworkModel) -> None:
        self.model = model
        self.stats = BusStats()
        #: Highest block this bus has been advanced to.
        self.clock = 0
        self._heap: List[Tuple[int, int, int, int, _Pending]] = []
        self._next_seq = 0
        self._event_no = 0
        self._max_event_block = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def horizon(self) -> int:
        """Latest block at which this bus can still produce an event."""
        return max(self._max_event_block, self.clock)

    def record_bulk(self, message_class: str, count: int) -> None:
        """Ideal-model bulk accounting: ``count`` messages sent and
        (deterministically) delivered, no per-message event objects."""
        self.stats.sent += count
        self.stats.delivered += count

    def send(
        self,
        message_class: str,
        src: int,
        dst: int,
        block: int,
        base_delay: int = 0,
        size_bytes: float = 0.0,
        payload: object = None,
    ) -> int:
        """Enqueue one message; returns its bus sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        self.stats.sent += 1
        if self.model.is_ideal:
            # Null model: instant, reliable, unobserved by the heap.
            self.stats.delivered += 1
            return seq
        policy = self.model.retry_for(message_class)
        entry = _Pending(
            seq=seq,
            message_class=message_class,
            src=int(src),
            dst=int(dst),
            issued_block=int(block),
            deadline_block=int(block) + policy.deadline_blocks,
            base_delay=int(base_delay),
            size_bytes=float(size_bytes),
            payload=payload,
        )
        # Every event chain for this message (retries, delivery, expiry)
        # resolves by the deadline, so the horizon covers it even though
        # the later events are scheduled lazily.
        if entry.deadline_block > self._max_event_block:
            self._max_event_block = entry.deadline_block
        self._push(int(block), entry.seq, _EVT_ATTEMPT, entry)
        return seq

    def advance(
        self, block: int
    ) -> Tuple[List[Delivery], List[DeliveryExpired]]:
        """Process every event scheduled at or before ``block``.

        Returns ``(deliveries, expiries)``. Deliveries come out sorted
        by ``(delivery block, seq)``; expiries by ``(deadline, seq)``.
        """
        block = int(block)
        if block > self.clock:
            self.clock = block
        deliveries: List[Delivery] = []
        expiries: List[DeliveryExpired] = []
        heap = self._heap
        while heap and heap[0][0] <= block:
            event_block, _seq, _no, kind, entry = heapq.heappop(heap)
            if kind == _EVT_ATTEMPT:
                self._process_attempt(event_block, entry)
            elif kind == _EVT_DELIVER:
                first = entry.delivered_copies == 0
                entry.delivered_copies += 1
                self.stats.delivered += 1
                if not first:
                    self.stats.duplicates += 1
                deliveries.append(
                    Delivery(
                        block=event_block,
                        seq=entry.seq,
                        message_class=entry.message_class,
                        src=entry.src,
                        dst=entry.dst,
                        issued_block=entry.issued_block,
                        attempts=entry.attempts,
                        duplicate=not first,
                        payload=entry.payload,
                    )
                )
            else:  # _EVT_EXPIRE
                if entry.delivered_copies == 0 and not entry.resolved:
                    entry.resolved = True
                    self.stats.expired += 1
                    expiries.append(
                        DeliveryExpired(
                            entry.message_class,
                            entry.seq,
                            entry.src,
                            entry.dst,
                            entry.issued_block,
                            entry.deadline_block,
                            entry.payload,
                        )
                    )
        return deliveries, expiries

    # -- internals ----------------------------------------------------

    def _push(self, block: int, seq: int, kind: int, entry: _Pending) -> None:
        self._event_no += 1
        if block > self._max_event_block:
            self._max_event_block = block
        heapq.heappush(self._heap, (block, seq, self._event_no, kind, entry))

    def _process_attempt(self, block: int, entry: _Pending) -> None:
        model = self.model
        policy = model.retry_for(entry.message_class)
        entry.attempts += 1
        dropped = model.link_down(entry.src, entry.dst, block) or model.sample_drop()
        if dropped:
            self.stats.dropped += 1
            if entry.attempts < policy.max_attempts:
                retry_at = block + policy.backoff(entry.attempts)
                if retry_at <= entry.deadline_block:
                    self.stats.retransmissions += 1
                    self._push(retry_at, entry.seq, _EVT_ATTEMPT, entry)
                    return
            # Out of attempts (or the backoff overshoots): the timeout
            # fires at the protocol deadline, not at the last failure.
            self._push(entry.deadline_block, entry.seq, _EVT_EXPIRE, entry)
            return
        latency = entry.base_delay + model.sample_latency(entry.size_bytes)
        deliver_at = block + max(latency, 0)
        if deliver_at > entry.deadline_block:
            # Arrived too late to matter: the sender already timed out,
            # so the copy is discarded in flight.
            self._push(entry.deadline_block, entry.seq, _EVT_EXPIRE, entry)
            return
        self._push(deliver_at, entry.seq, _EVT_DELIVER, entry)
        if model.sample_duplicate():
            echo_at = deliver_at + 1
            if echo_at <= entry.deadline_block:
                self._push(echo_at, entry.seq, _EVT_DELIVER, entry)


_NO_REFUNDS: Tuple[Tuple[int, int, float], ...] = ()


class ReceiptTransport:
    """Routes withdraw-phase receipts through a :class:`MessageBus`.

    The executor issues receipts here instead of appending them to the
    ledger directly; :meth:`poll` (called at the top of every settle
    pass) drains the bus, appends delivered receipts to the ledger
    keyed by their *delivered* block, deduplicates redelivered copies by
    receipt id, and returns ``(tx_id, sender, amount)`` refund rows for
    expired receipts. Undelivered value is tracked per message (exact
    ``fsum``, no incremental float drift) so
    ``ledger total + pending_value`` keeps conservation checks tight at
    every block boundary.
    """

    def __init__(self, model: NetworkModel, relay_delay_blocks: int) -> None:
        self.model = model
        self.bus = MessageBus(model)
        self.relay_delay_blocks = int(relay_delay_blocks)
        self._live_amounts: Dict[int, float] = {}
        self._delivered_ids: set = set()
        # (prune_block, tx_id): a delivered id can only echo again up to
        # its deadline (+1 for the duplicate offset), after which it is
        # dropped from the dedup set to bound memory.
        self._dedup_window: Deque[Tuple[int, int]] = deque()
        self.duplicates_deduped = 0
        self.expired_receipts = 0
        self.refunded_value = 0.0
        self._staleness: List[int] = []

    @property
    def is_ideal(self) -> bool:
        return self.model.is_ideal

    def pending_count(self) -> int:
        """Receipts issued but neither delivered nor expired."""
        return len(self._live_amounts)

    def pending_value(self) -> float:
        """Exact value carried by undelivered, unexpired receipts."""
        if not self._live_amounts:
            return 0.0
        return fsum(self._live_amounts.values())

    def horizon(self) -> int:
        """A block by which every in-flight message has resolved."""
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
        count = len(tx_ids)
        if count == 0:
            return
        if self.model.is_ideal:
            # Bit-identical to the direct path: same append, same
            # arguments, same ledger bytes. Only the counters move.
            self.bus.record_bulk(MSG_RECEIPT, count)
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
        bus = self.bus
        live = self._live_amounts
        for i in range(count):
            amount = float(amounts[i])
            payload = (
                int(tx_ids[i]),
                int(senders[i]),
                int(receivers[i]),
                amount,
                int(source_shards[i]),
                int(target_shards[i]),
            )
            seq = bus.send(
                MSG_RECEIPT,
                src=payload[4],
                dst=payload[5],
                block=block,
                base_delay=self.relay_delay_blocks,
                size_bytes=RECEIPT_MESSAGE_BYTES,
                payload=payload,
            )
            live[seq] = amount

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
        deliveries, expiries = self.bus.advance(block)
        if deliveries:
            self._append_deliveries(deliveries, ledger)
        refunds: List[Tuple[int, int, float]] = []
        for expiry in expiries:
            if expiry.message_class != MSG_RECEIPT:
                continue
            tx_id, sender, _receiver, amount, _src, _dst = expiry.payload
            self._live_amounts.pop(expiry.seq, None)
            self.expired_receipts += 1
            self.refunded_value += amount
            refunds.append((tx_id, sender, amount))
        window = self._dedup_window
        delivered_ids = self._delivered_ids
        while window and window[0][0] < block:
            delivered_ids.discard(window.popleft()[1])
        return refunds

    # -- internals ----------------------------------------------------

    def _append_deliveries(self, deliveries: List[Delivery], ledger) -> None:
        relay = self.relay_delay_blocks
        deadline = self.model.retry_for(MSG_RECEIPT).deadline_blocks
        delivered_ids = self._delivered_ids
        live = self._live_amounts
        rows: List[Tuple[int, int, int, float, int, int, int]] = []
        group_block: Optional[int] = None

        def flush() -> None:
            if not rows:
                return
            ledger.append_batch(
                tx_ids=np.array([r[0] for r in rows], dtype=np.int64),
                senders=np.array([r[1] for r in rows], dtype=np.int64),
                receivers=np.array([r[2] for r in rows], dtype=np.int64),
                amounts=np.array([r[3] for r in rows], dtype=np.float64),
                source_shards=np.array([r[4] for r in rows], dtype=np.int64),
                target_shards=np.array([r[5] for r in rows], dtype=np.int64),
                issued_block=np.array([r[6] for r in rows], dtype=np.int64),
                due_block=group_block,
            )
            rows.clear()

        for d in deliveries:
            if d.message_class != MSG_RECEIPT:
                continue
            tx_id, sender, receiver, amount, src, dst = d.payload
            if tx_id in delivered_ids:
                # Redelivered copy: settle is idempotent by receipt id.
                self.duplicates_deduped += 1
                continue
            if d.block != group_block:
                flush()
                group_block = d.block
            delivered_ids.add(tx_id)
            self._dedup_window.append((d.issued_block + deadline + 2, tx_id))
            live.pop(d.seq, None)
            self._staleness.append(d.block - d.issued_block - relay)
            rows.append((tx_id, sender, receiver, amount, src, dst, d.issued_block))
        flush()
