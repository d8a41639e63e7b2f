"""Object-heap message bus and receipt transport (a test oracle).

Production moves messages through :class:`repro.chain.netsim.MessageBus`:
in-flight state lives in columns keyed by bus sequence number, heap
entries are plain integer tuples, and :meth:`advance` returns arrays.
This module keeps the per-object formulation it replaced — one
:class:`_Pending` per message, one :class:`Delivery` per delivered
copy, refunds read back from :class:`DeliveryExpired`
payloads, duplicate receipts deduplicated by tx id — so property tests
can drive both through the same sends and compare delivery streams,
expiries, :class:`~repro.chain.netsim.BusStats`, ledger columns and the
final ``numpy`` Generator state:

* :class:`ReferenceBus` — the heap-of-objects event loop, drawing from
  the :class:`~repro.chain.netsim.NetworkModel` generator in the same
  order as production (drop, jitter, reorder, duplicate);
* :class:`ReferenceTransport` — the per-receipt tuple transport with a
  tx-id dedup set and a per-seq dict of undelivered amounts.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from math import fsum
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.chain.netsim import (
    MSG_RECEIPT,
    RECEIPT_MESSAGE_BYTES,
    BusStats,
    NetworkModel,
)
from repro.errors import NetworkError


class DeliveryExpired(NetworkError):
    """A simulated message passed its delivery deadline undelivered.

    Every transmission attempt either dropped or would have landed past
    the message's retry-policy deadline. The production
    :class:`~repro.chain.netsim.MessageBus` reports expiries as arrays
    (:class:`~repro.chain.netsim.Expiries`); this is the per-message
    expiry record of the reference bus. Carries the message class, bus
    sequence number, endpoints, issue and deadline blocks, and the
    original payload.
    """

    def __init__(
        self,
        message_class: str,
        seq: int,
        src: int,
        dst: int,
        issued_block: int,
        deadline_block: int,
        payload: object = None,
    ) -> None:
        super().__init__(
            f"{message_class} message {seq} ({src} -> {dst}) expired at "
            f"block {deadline_block} (issued at block {issued_block})"
        )
        self.message_class = message_class
        self.seq = int(seq)
        self.src = int(src)
        self.dst = int(dst)
        self.issued_block = int(issued_block)
        self.deadline_block = int(deadline_block)
        self.payload = payload


def link_down(model: NetworkModel, src: int, dst: int, block: int) -> bool:
    spec = model.spec
    for outage in spec.outages:
        if outage.down(src, dst, block):
            return True
    for partition in spec.partitions:
        if partition.down(src, dst, block):
            return True
    return False


def sample_drop(model: NetworkModel) -> bool:
    p = model.spec.drop_prob
    return p > 0.0 and model._rng.random() < p


def sample_duplicate(model: NetworkModel) -> bool:
    p = model.spec.duplicate_prob
    return p > 0.0 and model._rng.random() < p


def sample_latency(model: NetworkModel, size_bytes: float) -> int:
    """Extra delivery latency (blocks) beyond the relay delay."""
    spec = model.spec
    extra = spec.extra_latency_blocks
    if spec.jitter_blocks:
        extra += int(model._rng.integers(0, spec.jitter_blocks + 1))
    if spec.reorder_prob and model._rng.random() < spec.reorder_prob:
        extra += spec.reorder_jitter_blocks
    if spec.bandwidth_bytes_per_block:
        extra += int(size_bytes // spec.bandwidth_bytes_per_block)
    return extra


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
    """Mutable in-flight message state."""

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


class ReferenceBus:
    """Heap of ``(block, seq, event_no, kind, _Pending)`` events."""

    def __init__(self, model: NetworkModel) -> None:
        self.model = model
        self.stats = BusStats()
        self.clock = 0
        self._heap: List[Tuple[int, int, int, int, _Pending]] = []
        self._next_seq = 0
        self._event_no = 0
        self._max_event_block = 0

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def horizon(self) -> int:
        return max(self._max_event_block, self.clock)

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
        seq = self._next_seq
        self._next_seq += 1
        self.stats.sent += 1
        if self.model.is_ideal:
            self.stats.delivered += 1
            return seq
        policy = self.model.spec.retry_for(message_class)
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
        if entry.deadline_block > self._max_event_block:
            self._max_event_block = entry.deadline_block
        self._push(int(block), entry.seq, _EVT_ATTEMPT, entry)
        return seq

    def advance(
        self, block: int
    ) -> Tuple[List[Delivery], List[DeliveryExpired]]:
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
            else:
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

    def _push(self, block: int, seq: int, kind: int, entry: _Pending) -> None:
        self._event_no += 1
        if block > self._max_event_block:
            self._max_event_block = block
        heapq.heappush(self._heap, (block, seq, self._event_no, kind, entry))

    def _process_attempt(self, block: int, entry: _Pending) -> None:
        model = self.model
        policy = model.spec.retry_for(entry.message_class)
        entry.attempts += 1
        dropped = link_down(model, entry.src, entry.dst, block) or sample_drop(
            model
        )
        if dropped:
            self.stats.dropped += 1
            if entry.attempts < policy.max_attempts:
                retry_at = block + policy.backoff(entry.attempts)
                if retry_at <= entry.deadline_block:
                    self.stats.retransmissions += 1
                    self._push(retry_at, entry.seq, _EVT_ATTEMPT, entry)
                    return
            self._push(entry.deadline_block, entry.seq, _EVT_EXPIRE, entry)
            return
        latency = entry.base_delay + sample_latency(model, entry.size_bytes)
        deliver_at = block + max(latency, 0)
        if deliver_at > entry.deadline_block:
            self._push(entry.deadline_block, entry.seq, _EVT_EXPIRE, entry)
            return
        self._push(deliver_at, entry.seq, _EVT_DELIVER, entry)
        if sample_duplicate(model):
            echo_at = deliver_at + 1
            if echo_at <= entry.deadline_block:
                self._push(echo_at, entry.seq, _EVT_DELIVER, entry)


class ReferenceTransport:
    """Per-receipt tuple transport over a :class:`ReferenceBus`."""

    def __init__(self, model: NetworkModel, relay_delay_blocks: int) -> None:
        self.model = model
        self.bus = ReferenceBus(model)
        self.relay_delay_blocks = int(relay_delay_blocks)
        self._live_amounts: Dict[int, float] = {}
        self._delivered_ids: set = set()
        # (prune_block, tx_id): a delivered id can only echo again up to
        # its deadline (+1 for the duplicate offset).
        self._dedup_window: Deque[Tuple[int, int]] = deque()
        self.duplicates_deduped = 0
        self.expired_receipts = 0
        self.refunded_value = 0.0
        self._staleness: List[int] = []

    def pending_count(self) -> int:
        return len(self._live_amounts)

    def pending_value(self) -> float:
        if not self._live_amounts:
            return 0.0
        return fsum(self._live_amounts.values())

    def horizon(self) -> int:
        return self.bus.horizon + 1

    def drain_staleness(self) -> List[int]:
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
        count = len(tx_ids)
        if count == 0:
            return
        if self.model.is_ideal:
            self.bus.stats.sent += count
            self.bus.stats.delivered += count
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
            seq = self.bus.send(
                MSG_RECEIPT,
                src=payload[4],
                dst=payload[5],
                block=block,
                base_delay=self.relay_delay_blocks,
                size_bytes=RECEIPT_MESSAGE_BYTES,
                payload=payload,
            )
            self._live_amounts[seq] = amount

    def poll(self, block: int, ledger) -> Sequence[Tuple[int, int, float]]:
        if self.model.is_ideal:
            return ()
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
        while window and window[0][0] < block:
            self._delivered_ids.discard(window.popleft()[1])
        return refunds

    def _append_deliveries(self, deliveries: List[Delivery], ledger) -> None:
        relay = self.relay_delay_blocks
        deadline = self.model.spec.retry_for(MSG_RECEIPT).deadline_blocks
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
            if tx_id in self._delivered_ids:
                self.duplicates_deduped += 1
                continue
            if d.block != group_block:
                flush()
                group_block = d.block
            self._delivered_ids.add(tx_id)
            self._dedup_window.append((d.issued_block + deadline + 2, tx_id))
            self._live_amounts.pop(d.seq, None)
            self._staleness.append(d.block - d.issued_block - relay)
            rows.append((tx_id, sender, receiver, amount, src, dst, d.issued_block))
        flush()
