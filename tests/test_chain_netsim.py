"""Unit tests for the discrete-event message network.

Four properties carry the design:

* **determinism** — a bus run is a pure function of
  ``(spec, seed, send sequence)``: same seed replays identical
  delivery/drop/expiry sequences, different seeds diverge;
* **bounded retries** — drops retransmit with exponential backoff and
  every message resolves (delivery or expiry) by its deadline;
* **ideal null model** — the ideal spec is structurally inert: no heap
  events, no RNG draws, only counters;
* **oracle equivalence** — the columnar bus and transport reproduce the
  object-heap reference (``tests/netsim_reference.py``) event for
  event, ledger row for ledger row, down to the Generator state; pinned
  stream digests keep that guarantee without the oracle. The bulk
  stream reader the bus draws through is checked on its own against
  scalar Generator calls.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netsim_reference import DeliveryExpired, ReferenceBus, ReferenceTransport
from repro.chain.netsim import (
    BEACON_SHARD,
    MESSAGE_CLASSES,
    MSG_BEACON_ANNOUNCE,
    MSG_GOSSIP,
    MSG_RECEIPT,
    NETWORK_SPEC_NAMES,
    OMEGA_ENTRY_BYTES,
    RECEIPT_MESSAGE_BYTES,
    LinkOutage,
    MessageBus,
    NetworkModel,
    NetworkSpec,
    Partition,
    ReceiptTransport,
    RetryPolicy,
    _CHUNK_WORDS,
    _SEQ_BITS,
    _StreamReader,
    network_spec,
)
from repro.chain.receipts import COLUMNS, ReceiptLedger
from repro.errors import ConfigurationError, NetworkError


def run_bus(spec, seed, sends, horizon=None):
    """Send ``sends`` rows through a fresh bus and drain it fully."""
    bus = MessageBus(NetworkModel(spec, seed=seed))
    for message_class, src, dst, block in sends:
        bus.send_many(message_class, src, [dst], block, base_delay=1, size_bytes=100.0)
    deliveries, expiries = bus.advance(horizon if horizon is not None else bus.horizon)
    return bus, deliveries, expiries


class TestSpecs:
    def test_preset_names_resolve(self):
        assert NETWORK_SPEC_NAMES == ("ideal", "lan", "wan", "lossy")
        for name in NETWORK_SPEC_NAMES:
            assert network_spec(name).name == name

    def test_unknown_name_raises_typed_error(self):
        with pytest.raises(ConfigurationError, match="unknown network spec"):
            network_spec("dialup")

    def test_only_ideal_is_ideal(self):
        assert network_spec("ideal").is_ideal
        for name in ("lan", "wan", "lossy"):
            assert not network_spec(name).is_ideal

    def test_spec_validation_rejects_bad_probabilities(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(name="bad", drop_prob=1.5)
        with pytest.raises(ConfigurationError):
            NetworkSpec(name="bad", extra_latency_blocks=-1)
        with pytest.raises(ConfigurationError):
            NetworkSpec(name="bad", retries=(("smoke-signal", RetryPolicy()),))

    def test_retry_policy_validation_and_backoff(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_blocks=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(deadline_blocks=0)
        policy = RetryPolicy(backoff_blocks=2)
        # Exponential in failed attempts: 2, 4, 8, ...
        assert [policy.backoff(n) for n in (1, 2, 3)] == [2, 4, 8]

    def test_delivery_expired_is_a_network_error(self):
        error = DeliveryExpired(MSG_RECEIPT, 3, 0, 1, 10, 34)
        assert isinstance(error, NetworkError)
        assert "expired at block 34" in str(error)


class TestFaultSchedules:
    def test_link_outage_is_periodic_and_link_scoped(self):
        outage = LinkOutage(shard=0, period_blocks=10, down_blocks=3)
        assert outage.down(0, 2, 0) and outage.down(2, 0, 12)
        assert not outage.down(0, 2, 3)  # window over
        assert not outage.down(1, 2, 0)  # link untouched

    def test_partition_blocks_only_cut_crossing_traffic(self):
        cut = Partition(group=(1,), period_blocks=10, down_blocks=10)
        assert cut.down(0, 1, 5) and cut.down(1, 0, 5)
        assert not cut.down(0, 2, 5)  # both outside
        # The beacon sits outside every group, so announcements into a
        # partitioned group cross the cut too.
        assert cut.down(BEACON_SHARD, 1, 5)

    def test_fault_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            LinkOutage(shard=0, period_blocks=0, down_blocks=0)
        with pytest.raises(ConfigurationError):
            LinkOutage(shard=0, period_blocks=5, down_blocks=6)
        with pytest.raises(ConfigurationError):
            Partition(group=(), period_blocks=5, down_blocks=1)


class TestIdealBus:
    def test_send_is_a_counter_bump_only(self):
        bus = MessageBus(NetworkModel("ideal", seed=0))
        for i in range(5):
            bus.send_many(MSG_RECEIPT, 0, [1], block=i)
        assert len(bus) == 0  # no heap entries at all
        assert bus.stats.sent == 5
        assert bus.stats.delivered == 5
        deliveries, expiries = bus.advance(1_000)
        assert len(deliveries.seqs) == 0 and len(expiries.seqs) == 0
        assert len(bus.unresolved(MSG_RECEIPT)) == 0

    def test_ideal_consumes_no_randomness(self):
        model = NetworkModel("ideal", seed=7)
        state_before = model._rng.bit_generator.state
        bus = MessageBus(model)
        bus.send_many(MSG_RECEIPT, 0, [1], block=0)
        bus.advance(100)
        assert model._rng.bit_generator.state == state_before


class TestLossyBus:
    SENDS = [
        (MSG_RECEIPT, s % 3, (s + 1) % 3, s // 4) for s in range(40)
    ] + [(MSG_GOSSIP, 0, 1, 2), (MSG_BEACON_ANNOUNCE, BEACON_SHARD, 2, 3)]

    def test_same_seed_replays_identical_runs(self):
        bus_a, deliveries_a, expiries_a = run_bus("lossy", 11, self.SENDS)
        bus_b, deliveries_b, expiries_b = run_bus("lossy", 11, self.SENDS)
        assert bus_a.stats.snapshot() == bus_b.stats.snapshot()
        for left, right in zip(deliveries_a, deliveries_b):
            assert np.array_equal(left, right)
        assert np.array_equal(expiries_a.seqs, expiries_b.seqs)

    def test_different_seeds_diverge(self):
        bus_a, _, _ = run_bus("lossy", 1, self.SENDS)
        bus_b, _, _ = run_bus("lossy", 2, self.SENDS)
        assert bus_a.stats.snapshot() != bus_b.stats.snapshot()

    def test_every_message_resolves_by_the_horizon(self):
        bus, deliveries, expiries = run_bus("lossy", 3, self.SENDS)
        first_copies = set(deliveries.seqs[~deliveries.duplicate].tolist())
        expired = set(expiries.seqs.tolist())
        assert first_copies.isdisjoint(expired)
        assert len(first_copies) + len(expired) == len(self.SENDS)
        assert len(bus) == 0
        assert len(bus.unresolved(MSG_RECEIPT)) == 0

    def test_deliveries_sorted_by_block_then_send_order(self):
        _, deliveries, _ = run_bus("lossy", 5, self.SENDS)
        keys = list(zip(deliveries.blocks.tolist(), deliveries.seqs.tolist()))
        assert keys == sorted(keys)

    def test_blackhole_expires_everything_with_bounded_retries(self):
        spec = NetworkSpec(name="blackhole", drop_prob=1.0)
        policy = spec.retry_for(MSG_RECEIPT)
        bus = MessageBus(NetworkModel(spec, seed=0))
        bus.send_many(MSG_RECEIPT, 0, [1], block=10)
        deliveries, expiries = bus.advance(bus.horizon)
        assert len(deliveries.seqs) == 0
        (seq,) = expiries.seqs.tolist()
        assert bus.gather("class", expiries.seqs).tolist() == [
            MESSAGE_CLASSES.index(MSG_RECEIPT)
        ]
        assert expiries.blocks.tolist() == [10 + policy.deadline_blocks]
        # All attempts were spent: initial send + retransmissions.
        assert bus.stats.dropped == policy.max_attempts
        assert bus.stats.retransmissions == policy.max_attempts - 1
        assert bus.stats.expired == 1

    def test_outage_forces_retransmit_then_recovery(self):
        spec = NetworkSpec(
            name="flaky",
            outages=(LinkOutage(shard=0, period_blocks=100, down_blocks=2),),
        )
        bus = MessageBus(NetworkModel(spec, seed=0))
        bus.send_many(MSG_RECEIPT, 0, [1], block=0)  # inside the outage window
        deliveries, expiries = bus.advance(bus.horizon)
        (block,) = deliveries.blocks.tolist()
        assert len(expiries.seqs) == 0
        # The first attempt hit the outage, the second got through.
        assert bus.stats.dropped == 1
        assert bus.stats.retransmissions == 1
        # Backoff moved the retry past the outage; no extra latency in
        # this spec, so the retry block is the delivery block.
        assert block == spec.retry_for(MSG_RECEIPT).backoff(1)

    def test_duplicates_echo_after_the_original(self):
        spec = NetworkSpec(name="echoing", duplicate_prob=1.0)
        bus = MessageBus(NetworkModel(spec, seed=0))
        bus.send_many(MSG_RECEIPT, 0, [1], block=0)
        deliveries, _ = bus.advance(bus.horizon)
        assert deliveries.duplicate.tolist() == [False, True]
        assert deliveries.blocks[1] == deliveries.blocks[0] + 1
        assert bus.stats.duplicates == 1

    def test_bandwidth_adds_serialization_delay(self):
        spec = NetworkSpec(name="thin", bandwidth_bytes_per_block=100.0)
        bus = MessageBus(NetworkModel(spec, seed=0))
        bus.send_many(MSG_RECEIPT, 0, [1], block=0, size_bytes=250.0)
        deliveries, _ = bus.advance(bus.horizon)
        assert deliveries.blocks[0] == 2  # 250 // 100 extra blocks

    def test_horizon_covers_lazy_retry_chains(self):
        # A message's retries/expiry are scheduled lazily, but the
        # horizon must cover its deadline from the moment of the send.
        spec = NetworkSpec(name="blackhole", drop_prob=1.0)
        bus = MessageBus(NetworkModel(spec, seed=0))
        bus.send_many(MSG_RECEIPT, 0, [1], block=5)
        policy = spec.retry_for(MSG_RECEIPT)
        assert bus.horizon >= 5 + policy.deadline_blocks


class TestColumnarBus:
    def test_send_many_draws_like_single_sends(self):
        batched = MessageBus(NetworkModel("lossy", seed=8))
        single = MessageBus(NetworkModel("lossy", seed=8))
        src = np.array([0, 1, 2, 3, 1, 0])
        dst = np.array([1, 2, 3, 0, 0, 2])
        for block in range(30):
            batched.send_many(MSG_RECEIPT, src, dst, block, base_delay=1)
            for s, d in zip(src.tolist(), dst.tolist()):
                single.send_many(MSG_RECEIPT, s, [d], block, base_delay=1)
            left, right = batched.advance(block), single.advance(block)
            for a, b in zip(left, right):
                for column_a, column_b in zip(a, b):
                    assert np.array_equal(column_a, column_b)
        assert batched.stats.snapshot() == single.stats.snapshot()
        assert (
            batched.model._rng.bit_generator.state
            == single.model._rng.bit_generator.state
        )

    def test_storage_tracks_messages_in_flight_not_messages_sent(self):
        bus = MessageBus(NetworkModel("lossy", seed=1))
        src, dst = np.arange(40) % 4, (np.arange(40) + 1) % 4
        for block in range(1_500):
            bus.send_many(MSG_RECEIPT, src, dst, block, base_delay=1)
            bus.advance(block)
        assert bus.stats.sent == 60_000
        # At most a deadline's worth of blocks is in flight (25 x 40
        # rows); rows stay within 4x that, whatever the run length.
        assert len(bus._columns["class"]) <= 4_096
        assert all(len(rows) <= 2_048 for rows in bus._rows)

    def test_payload_columns_gather_by_seq(self):
        bus = MessageBus(NetworkModel(NetworkSpec(name="slow", extra_latency_blocks=1), seed=0))
        bus.send_many(MSG_GOSSIP, 0, np.array([1, 2]), 0)
        bus.send_many(
            MSG_RECEIPT, np.array([2, 3]), np.array([0, 1]), 0,
            amount=np.array([1.5, 2.5]),
        )
        assert bus.gather("amount", bus.unresolved(MSG_RECEIPT)).tolist() == [1.5, 2.5]
        deliveries, _ = bus.advance(1)
        assert deliveries.seqs.tolist() == [0, 1, 2, 3]
        assert bus.gather("dst", deliveries.seqs).tolist() == [1, 2, 0, 1]
        assert len(bus.unresolved(MSG_RECEIPT)) == 0

    def test_rejects_unknown_class_and_negative_delay(self):
        bus = MessageBus(NetworkModel("wan", seed=0))
        with pytest.raises(ConfigurationError, match="message class"):
            bus.send_many("smoke-signal", 0, [1], block=0)
        with pytest.raises(ConfigurationError, match="base_delay"):
            bus.send_many(MSG_RECEIPT, 0, [1], block=0, base_delay=-1)

    @pytest.mark.parametrize("spec", NETWORK_SPEC_NAMES)
    def test_rejected_sends_count_nothing(self, spec):
        # Validation comes before any counter moves, on every model:
        # the ideal one validates too.
        bus = MessageBus(NetworkModel(spec, seed=0))
        with pytest.raises(ConfigurationError, match="message class"):
            bus.send_many("bogus", 0, [1, 2], block=0)
        with pytest.raises(ConfigurationError, match="base_delay"):
            bus.send_many(MSG_RECEIPT, 0, [1, 2], block=0, base_delay=-5)
        assert bus.stats.snapshot() == (0,) * 6
        assert len(bus) == 0
        assert len(bus.unresolved(MSG_RECEIPT)) == 0

    def test_sequence_numbers_are_bounded_by_the_key_width(self):
        bus = MessageBus(NetworkModel("lossy", seed=0))
        bus._next_seq = bus._base = (1 << _SEQ_BITS) - 1
        with pytest.raises(ConfigurationError, match="sequence numbers"):
            bus.send_many(MSG_RECEIPT, 0, [1, 2], block=0)
        assert bus.stats.sent == 0 and len(bus) == 0
        bus.send_many(MSG_RECEIPT, 0, [1], block=0)  # the last one fits
        assert len(bus) == 1

    def test_jitter_must_fit_a_32_bit_bound(self):
        spec = NetworkSpec(name="wide", jitter_blocks=2**32)
        with pytest.raises(ConfigurationError, match="jitter_blocks"):
            MessageBus(NetworkModel(spec, seed=0))


# -- bulk stream reader --------------------------------------------------

#: One draw: ``None`` is ``random()``, an int ``n`` is ``integers(0, n)``.
#: ``2**31 + 1`` and ``3 * 2**30`` reject about half and a quarter of
#: their 32-bit draws; ``2**32`` takes a half-word as it is.
_DRAW = st.none() | st.sampled_from([2, 5, 7, 2**31 + 1, 3 * 2**30, 2**32])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    buffered_half=st.booleans(),
    rounds=st.lists(
        st.tuples(st.lists(_DRAW, min_size=1, max_size=12), st.integers(1, 80)),
        min_size=1,
        max_size=3,
    ),
)
# 1,200 draws: several refill chunks inside one reader.
@example(seed=0, buffered_half=True, rounds=[([None, 3 * 2**30, 2**31 + 1], 400)])
def test_stream_reader_matches_scalar_generator_calls(seed, buffered_half, rounds):
    scalar, bulk = np.random.default_rng(seed), np.random.default_rng(seed)
    if buffered_half:
        # An odd number of 32-bit draws leaves PCG64's half-word buffered.
        for rng in (scalar, bulk):
            rng.integers(0, 5)
        assert bulk.bit_generator.state["has_uint32"] == 1
    for ops, repeat in rounds:
        reader = _StreamReader(bulk)
        for n in ops * repeat:
            if n is None:
                assert reader.random() == scalar.random()
            else:
                assert reader.integers(n) == int(scalar.integers(0, n))
        reader.close()
        # State, increment, has_uint32 and uinteger, all of it.
        assert bulk.bit_generator.state == scalar.bit_generator.state


def test_an_unused_reader_leaves_the_generator_alone():
    rng = np.random.default_rng(5)
    rng.integers(0, 5)
    before = rng.bit_generator.state
    _StreamReader(rng).close()
    assert rng.bit_generator.state == before


# -- oracle equivalence --------------------------------------------------


@st.composite
def _windows(draw):
    period = draw(st.integers(1, 12))
    return period, draw(st.integers(0, period)), draw(st.integers(0, 12))


@st.composite
def _random_spec(draw):
    outages = tuple(
        LinkOutage(draw(st.integers(-1, 3)), *draw(_windows()))
        for _ in range(draw(st.integers(0, 2)))
    )
    partitions = tuple(
        Partition(
            tuple(draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))),
            *draw(_windows()),
        )
        for _ in range(draw(st.integers(0, 2)))
    )
    retries = tuple(
        (
            cls,
            RetryPolicy(
                max_attempts=draw(st.integers(1, 4)),
                backoff_blocks=draw(st.integers(1, 3)),
                deadline_blocks=draw(st.integers(1, 12)),
            ),
        )
        for cls in MESSAGE_CLASSES
    )
    return NetworkSpec(
        name="random",
        extra_latency_blocks=draw(st.integers(0, 3)),
        jitter_blocks=draw(st.integers(0, 3)),
        drop_prob=draw(st.sampled_from([0.0, 1.0, 0.3])),
        duplicate_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        reorder_prob=draw(st.sampled_from([0.0, 0.5])),
        reorder_jitter_blocks=draw(st.integers(0, 4)),
        bandwidth_bytes_per_block=draw(st.sampled_from([0.0, 100.0])),
        outages=outages,
        partitions=partitions,
        retries=retries,
    )


_SPECS = st.one_of(st.sampled_from(["lan", "wan", "lossy"]).map(network_spec), _random_spec())

#: One block of traffic: (class, src, dsts, base delay, size) sends,
#: then optionally an advance ``lookahead`` blocks past the block.
_SEND = st.tuples(
    st.sampled_from(MESSAGE_CLASSES),
    st.integers(0, 3),
    st.lists(st.integers(0, 3), min_size=1, max_size=5),
    st.integers(0, 2),
    st.sampled_from([0.0, 100.0, 250.0]),
)
_STEP = st.tuples(
    st.lists(_SEND, max_size=3), st.none() | st.integers(0, 4)
)


def _sender(message_class, src):
    return BEACON_SHARD if message_class == MSG_BEACON_ANNOUNCE else src


@settings(max_examples=80, deadline=None)
@given(spec=_SPECS, seed=st.integers(0, 2**16), steps=st.lists(_STEP, max_size=30))
def test_bus_matches_the_object_heap_oracle(spec, seed, steps):
    bus = MessageBus(NetworkModel(spec, seed=seed))
    oracle = ReferenceBus(NetworkModel(spec, seed=seed))

    def drain(block):
        deliveries, expiries = bus.advance(block)
        expected, expected_expiries = oracle.advance(block)
        assert list(
            zip(
                deliveries.blocks.tolist(),
                deliveries.seqs.tolist(),
                deliveries.duplicate.tolist(),
            )
        ) == [(d.block, d.seq, d.duplicate) for d in expected]
        assert list(zip(expiries.blocks.tolist(), expiries.seqs.tolist())) == [
            (e.deadline_block, e.seq) for e in expected_expiries
        ]
        assert bus.stats.snapshot() == oracle.stats.snapshot()
        assert (bus.horizon, len(bus)) == (oracle.horizon, len(oracle))

    for block, (sends, lookahead) in enumerate(steps):
        for message_class, src, dsts, delay, size in sends:
            src = _sender(message_class, src)
            bus.send_many(message_class, src, np.array(dsts), block, delay, size)
            for dst in dsts:
                oracle.send(message_class, src, dst, block, delay, size)
        if lookahead is not None:
            drain(block + lookahead)
    drain(max(bus.horizon, oracle.horizon))
    assert (
        bus.model._rng.bit_generator.state == oracle.model._rng.bit_generator.state
    )


#: Sends in one block: enough attempts to cross a refill boundary of the
#: stream reader inside one :meth:`MessageBus.advance`.
_BURST = 3_000


def _burst_matches_the_oracle(spec, seed, block, monkeypatch):
    """Send :data:`_BURST` mixed-class messages at ``block``, advance to
    ``block`` and then to the horizon, comparing outcomes, stats and the
    Generator state with :class:`ReferenceBus` after every advance.
    Returns the most raw words one reader pulled."""
    pulled = []
    close = _StreamReader.close

    def spying_close(reader):
        pulled.append(reader._drawn)
        close(reader)

    monkeypatch.setattr(_StreamReader, "close", spying_close)
    bus = MessageBus(NetworkModel(spec, seed=seed))
    oracle = ReferenceBus(NetworkModel(spec, seed=seed))
    rows = np.arange(_BURST)
    classes = np.array(MESSAGE_CLASSES)[rows % 7 % 3]
    for cls in MESSAGE_CLASSES:
        mine = rows[classes == cls]
        src = np.full(len(mine), BEACON_SHARD) if cls == MSG_BEACON_ANNOUNCE else mine % 4
        dst = (mine * 5 + 1) % 4
        bus.send_many(cls, src, dst, block, base_delay=1, size_bytes=100.0)
        for s, d in zip(src.tolist(), dst.tolist()):
            oracle.send(cls, s, d, block, 1, 100.0)
    for target in (block, max(bus.horizon, oracle.horizon)):
        deliveries, expiries = bus.advance(target)
        expected, expected_expiries = oracle.advance(target)
        assert list(
            zip(
                deliveries.blocks.tolist(),
                deliveries.seqs.tolist(),
                deliveries.duplicate.tolist(),
            )
        ) == [(d.block, d.seq, d.duplicate) for d in expected]
        assert list(zip(expiries.blocks.tolist(), expiries.seqs.tolist())) == [
            (e.deadline_block, e.seq) for e in expected_expiries
        ]
        assert bus.stats.snapshot() == oracle.stats.snapshot()
        assert (
            bus.model._rng.bit_generator.state
            == oracle.model._rng.bit_generator.state
        )
    assert len(bus) == len(oracle) == 0
    return max(pulled, default=0)


def test_lossy_burst_matches_the_oracle(monkeypatch):
    # Block 10 is outside lossy's outage and partition windows, so every
    # first attempt makes its drop test.
    pulled = _burst_matches_the_oracle(network_spec("lossy"), 7, 10, monkeypatch)
    assert pulled > _CHUNK_WORDS


@settings(max_examples=10, deadline=None)
@given(spec=_random_spec(), seed=st.integers(0, 2**16), block=st.integers(0, 30))
def test_random_spec_burst_matches_the_oracle(spec, seed, block):
    # A positive drop probability makes every attempt on an uncut link
    # draw, so a burst reads several chunks.
    spec = dataclasses.replace(spec, drop_prob=0.3)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _burst_matches_the_oracle(spec, seed, block, monkeypatch)


def _ledger_rows(ledger):
    view = ledger.view()
    return [getattr(view, name).tolist() for name in COLUMNS]


@settings(max_examples=60, deadline=None)
@given(
    spec=_SPECS,
    seed=st.integers(0, 2**16),
    relay=st.integers(0, 2),
    steps=st.lists(
        st.tuples(
            st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6),
            st.booleans(),
            st.booleans(),
        ),
        max_size=40,
    ),
)
def test_transport_matches_the_reference_transport(spec, seed, relay, steps):
    transport = ReceiptTransport(NetworkModel(spec, seed=seed), relay)
    oracle = ReferenceTransport(NetworkModel(spec, seed=seed), relay)
    ledger, expected_ledger = ReceiptLedger(), ReceiptLedger()
    next_tx = 0

    def poll(block):
        refunds = transport.poll(block, ledger)
        assert list(refunds) == list(oracle.poll(block, expected_ledger))
        assert _ledger_rows(ledger) == _ledger_rows(expected_ledger)
        assert ledger.total_amount == expected_ledger.total_amount
        assert transport.drain_staleness() == oracle.drain_staleness()
        assert transport.pending_value() == oracle.pending_value()
        assert transport.pending_count() == oracle.pending_count()
        for name in ("duplicates_deduped", "expired_receipts", "refunded_value"):
            assert getattr(transport, name) == getattr(oracle, name)
        # Settle what is due, as the executor does after each poll.
        due, expected_due = ledger.pop_due(block), expected_ledger.pop_due(block)
        assert due.tx_ids.tolist() == expected_due.tx_ids.tolist()

    for block, (receipts, gossip, do_poll) in enumerate(steps):
        poll(block)
        if receipts:
            count = len(receipts)
            tx_ids = np.arange(next_tx, next_tx + count, dtype=np.int64)
            next_tx += count
            sources = np.array([r[0] for r in receipts], dtype=np.int64)
            targets = np.array([r[1] for r in receipts], dtype=np.int64)
            amounts = (tx_ids % 7 + 0.1).astype(np.float64)
            for side, side_ledger in ((transport, ledger), (oracle, expected_ledger)):
                side.issue(
                    side_ledger, block, tx_ids, tx_ids * 3, tx_ids * 5,
                    amounts, sources, targets,
                )
        if gossip:
            transport.bus.send_many(MSG_GOSSIP, 0, np.array([1, 2, 3]), block)
            oracle.bus.send(MSG_GOSSIP, 0, 1, block)
            oracle.bus.send(MSG_GOSSIP, 0, 2, block)
            oracle.bus.send(MSG_GOSSIP, 0, 3, block)
        if do_poll:
            poll(block)
    poll(max(transport.horizon(), oracle.horizon()))
    assert transport.pending_count() == 0


# -- pinned digests ------------------------------------------------------

#: sha256 of the event stream of :func:`_event_stream` per preset, as
#: recorded from the object-heap bus.
PINNED_STREAM_DIGESTS = {
    "lan": "c3f2484632f958edda4ec37900fa144a0179e30386d32b136ddfe578a33fda71",
    "wan": "40dcaee898703263436c21225a81fdba1160d7e55e2c8e60319a68c84a81faf9",
    "lossy": "cbf782e81ba3a43f88a9526abed4850efda2f25f5c8dc292b02ba8cfaf1b596f",
}


def _event_stream(spec):
    """A fixed mixed-class workload: three receipts per block, a gossip
    round every 10 blocks, a beacon announcement every 25; the bus is
    advanced every block and drained at the end."""
    model = NetworkModel(spec, seed=2024)
    bus = MessageBus(model)
    lines = []

    def drain(block):
        deliveries, expiries = bus.advance(block)
        lines.extend(
            f"D,{b},{s},{int(d)}"
            for b, s, d in zip(*(column.tolist() for column in deliveries))
        )
        lines.extend(
            f"E,{b},{s}" for b, s in zip(*(column.tolist() for column in expiries))
        )

    src, dst = np.nonzero(~np.eye(4, dtype=bool))
    for block in range(80):
        lanes = np.arange(3)
        bus.send_many(
            MSG_RECEIPT, (block + lanes) % 4, (block + 2 * lanes + 1) % 4, block,
            base_delay=1, size_bytes=RECEIPT_MESSAGE_BYTES,
        )
        if block % 10 == 0:
            bus.send_many(
                MSG_GOSSIP, src, dst, block, size_bytes=OMEGA_ENTRY_BYTES * 4
            )
        if block % 25 == 7:
            bus.send_many(
                MSG_BEACON_ANNOUNCE, BEACON_SHARD, np.arange(4), block,
                size_bytes=400.0,
            )
        drain(block)
    drain(bus.horizon)
    state = model._rng.bit_generator.state
    lines.append(
        "S,"
        + ",".join(map(str, bus.stats.snapshot()))
        + f",{bus.horizon},{len(bus)},{state['state']['state']},"
        f"{state['has_uint32']},{state['uinteger']}"
    )
    return "\n".join(lines)


@pytest.mark.parametrize("spec", sorted(PINNED_STREAM_DIGESTS))
def test_event_stream_digest_is_pinned(spec):
    stream = _event_stream(spec)
    assert hashlib.sha256(stream.encode()).hexdigest() == PINNED_STREAM_DIGESTS[spec]
