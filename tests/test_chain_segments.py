"""Unit tests for the beacon's on-disk segment log.

Three properties carry the spill design:

* **byte stability** — identical appends produce identical segment
  bytes, so the format itself is part of the deterministic surface;
* **crash safety** — a truncated tail is detected as the typed
  :class:`SegmentIntegrityError` on open, and ``recover=True`` repairs
  it by dropping exactly the partial record;
* **equivalence** — a segment-spilled :class:`BeaconChain` commits the
  same requests (and hashes the same blocks on pure-batch rounds) as
  the in-memory reference under randomized epochs.
"""

import numpy as np
import pytest

from migration_reference import apply_committed
from repro.chain.beacon import BeaconChain
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequestBatch
from repro.chain.segments import SegmentedCommitLog
from repro.errors import SegmentIntegrityError, ValidationError


def batch(accounts, src=0, dst=1, epoch=0, gains=None):
    accounts = np.asarray(accounts, dtype=np.int64)
    return MigrationRequestBatch(
        accounts,
        np.full(len(accounts), src, dtype=np.int64),
        np.full(len(accounts), dst, dtype=np.int64),
        None if gains is None else np.asarray(gains, dtype=np.float64),
        epoch=epoch,
    )


def random_batch(rng, n, k=4, epoch=0):
    accounts = rng.integers(0, 1_000, size=n)
    from_shards = rng.integers(0, k, size=n)
    to_shards = (from_shards + rng.integers(1, k, size=n)) % k
    return MigrationRequestBatch(
        accounts,
        from_shards,
        to_shards,
        rng.random(n),
        epoch=epoch,
    )


class TestRoundTrip:
    def test_append_then_reopen_reads_identical_rows(self, tmp_path):
        log = SegmentedCommitLog(tmp_path)
        first = batch([1, 2, 3], epoch=0, gains=[3.0, 2.0, 1.0])
        second = batch([7, 9], src=2, dst=3, epoch=1, gains=[5.0, 4.0])
        log.append(0, first)
        log.append(2, second)
        log.close()

        reopened = SegmentedCommitLog(tmp_path)
        assert len(reopened) == 2
        assert reopened.total_rows == 5
        assert reopened.last_height == 2
        loaded = dict(reopened.iter_batches())
        np.testing.assert_array_equal(loaded[0].accounts, first.accounts)
        np.testing.assert_array_equal(loaded[0].gains, first.gains)
        np.testing.assert_array_equal(loaded[2].to_shards, second.to_shards)
        assert loaded[2].epoch == 1

    def test_batch_at_exact_height_or_none(self, tmp_path):
        log = SegmentedCommitLog(tmp_path)
        log.append(3, batch([1]))
        assert log.batch_at(3) is not None
        assert log.batch_at(2) is None
        assert log.batch_at(4) is None

    def test_iter_batches_is_a_height_window(self, tmp_path):
        log = SegmentedCommitLog(tmp_path)
        for height in (0, 2, 5, 6):
            log.append(height, batch([height]))
        since = [height for height, _batch in log.iter_batches(3)]
        assert since == [5, 6]
        assert [h for h, _ in log.iter_batches(0)] == [0, 2, 5, 6]

    def test_rotation_splits_rows_across_segment_files(self, tmp_path):
        log = SegmentedCommitLog(tmp_path, segment_rows=4)
        for height in range(5):
            log.append(height, batch([height, height + 10]))
        log.close()
        assert len(log.segment_paths) == 3  # 2+2 / 2+2 / 2 rows
        reopened = SegmentedCommitLog(tmp_path, segment_rows=4)
        assert reopened.total_rows == 10
        assert [h for h, _ in reopened.iter_batches()] == list(range(5))

    def test_byte_stable_across_directories(self, tmp_path):
        rng = np.random.default_rng(5)
        batches = [random_batch(rng, 6, epoch=i) for i in range(4)]
        for name in ("a", "b"):
            log = SegmentedCommitLog(tmp_path / name, segment_rows=10)
            for height, entry in enumerate(batches):
                log.append(height, entry)
            log.close()
        paths_a = sorted((tmp_path / "a").iterdir())
        paths_b = sorted((tmp_path / "b").iterdir())
        assert [p.name for p in paths_a] == [p.name for p in paths_b]
        for left, right in zip(paths_a, paths_b):
            assert left.read_bytes() == right.read_bytes()


class TestValidation:
    def test_rejects_empty_batch(self, tmp_path):
        with pytest.raises(ValidationError):
            SegmentedCommitLog(tmp_path).append(0, MigrationRequestBatch.empty())

    def test_rejects_non_monotone_height(self, tmp_path):
        log = SegmentedCommitLog(tmp_path)
        log.append(4, batch([1]))
        with pytest.raises(ValidationError):
            log.append(4, batch([2]))

    def test_rejects_bad_segment_rows(self, tmp_path):
        with pytest.raises(ValidationError):
            SegmentedCommitLog(tmp_path, segment_rows=0)

    def test_bad_magic_is_never_repaired(self, tmp_path):
        rogue = tmp_path / "seg-000000.mrlog"
        rogue.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(SegmentIntegrityError):
            SegmentedCommitLog(tmp_path, recover=True)


class TestCrashRecovery:
    def _crashed_log(self, tmp_path, cut: int):
        """A two-record log whose tail record lost ``cut`` bytes."""
        log = SegmentedCommitLog(tmp_path)
        log.append(0, batch([1, 2], epoch=0))
        log.append(1, batch([3, 4, 5], epoch=1))
        log.close()
        (path,) = log.segment_paths
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - cut])
        return path

    def test_truncated_tail_raises_typed_error(self, tmp_path):
        path = self._crashed_log(tmp_path, cut=7)
        with pytest.raises(SegmentIntegrityError) as caught:
            SegmentedCommitLog(tmp_path)
        assert caught.value.path == str(path)
        assert "truncated" in caught.value.reason
        # The offset names the last intact record boundary: everything
        # before it is valid, so recovery can truncate exactly there.
        assert 0 < caught.value.offset < path.stat().st_size

    def test_recover_drops_only_the_partial_record(self, tmp_path):
        self._crashed_log(tmp_path, cut=7)
        recovered = SegmentedCommitLog(tmp_path, recover=True)
        assert len(recovered) == 1
        np.testing.assert_array_equal(
            recovered.batch_at(0).accounts, np.array([1, 2])
        )
        # The log resumes appending after the repaired tail...
        recovered.append(1, batch([9], epoch=1))
        recovered.close()
        # ...and a fresh non-recovery open validates cleanly.
        clean = SegmentedCommitLog(tmp_path)
        assert [h for h, _ in clean.iter_batches()] == [0, 1]

    def test_truncation_on_a_record_boundary_is_a_clean_short_log(
        self, tmp_path
    ):
        """Losing the tail record *exactly* is indistinguishable from
        never having written it: no integrity error, nothing for
        recovery to drop."""
        # The tail record: 24-byte header + 3 rows x 32 bytes + CRC-32.
        tail_record_bytes = 24 + 3 * 32 + 4
        path = self._crashed_log(tmp_path, cut=tail_record_bytes)
        size_after_cut = path.stat().st_size
        clean = SegmentedCommitLog(tmp_path)  # no recover needed
        assert len(clean) == 1
        assert clean.last_height == 0
        np.testing.assert_array_equal(
            clean.batch_at(0).accounts, np.array([1, 2])
        )
        # recover=True finds the same boundary and truncates nothing.
        recovered = SegmentedCommitLog(tmp_path, recover=True)
        assert len(recovered) == 1
        assert path.stat().st_size == size_after_cut

    def test_recover_never_repairs_crc_corruption(self, tmp_path):
        """``recover=True`` repairs *truncation* only: a complete final
        record whose bytes rotted still raises — silently dropping a
        record that claims to be whole would hide corruption."""
        path = self._crashed_log(tmp_path, cut=0)  # both records intact
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF  # inside the final record's gains column
        path.write_bytes(bytes(data))
        with pytest.raises(SegmentIntegrityError) as caught:
            SegmentedCommitLog(tmp_path, recover=True)
        assert "CRC" in caught.value.reason
        # The failed recovery attempt must not have modified the file.
        assert path.read_bytes() == bytes(data)

    def test_flipped_payload_byte_raises_crc_mismatch(self, tmp_path):
        log = SegmentedCommitLog(tmp_path)
        log.append(0, batch([1, 2, 3]))
        log.close()
        (path,) = log.segment_paths
        data = bytearray(path.read_bytes())
        data[-10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(SegmentIntegrityError) as caught:
            SegmentedCommitLog(tmp_path)
        assert "CRC" in caught.value.reason
        # Corruption (vs truncation) is never silently repaired.
        with pytest.raises(SegmentIntegrityError):
            SegmentedCommitLog(tmp_path, recover=True)


class TestSpilledBeaconEquivalence:
    def test_randomized_rounds_commit_identically(self, tmp_path):
        """Spill mode is a storage change, not a protocol change."""
        rng = np.random.default_rng(11)
        mapping_memory = ShardMapping(rng.integers(0, 4, size=1_000), k=4)
        mapping_spill = ShardMapping(mapping_memory.as_array().copy(), k=4)
        memory = BeaconChain()
        spilled = BeaconChain(spill_dir=tmp_path, segment_rows=8)
        for epoch in range(12):
            proposal = random_batch(rng, int(rng.integers(0, 30)), epoch=epoch)
            capacity = (
                None if rng.random() < 0.3 else int(rng.integers(0, 12))
            )
            memory.submit_batch(proposal)
            spilled.submit_batch(proposal)
            committed_memory = memory.commit_epoch(
                epoch=epoch, capacity=capacity, mapping=mapping_memory
            )
            committed_spill = spilled.commit_epoch(
                epoch=epoch, capacity=capacity, mapping=mapping_spill
            )
            assert len(committed_spill) == len(committed_memory)
            apply_committed(memory, mapping_memory, since_height=epoch)
            apply_committed(spilled, mapping_spill, since_height=epoch)
            np.testing.assert_array_equal(
                mapping_spill.as_array(), mapping_memory.as_array()
            )
        # Pure-batch rounds: block hashes (and so the tip) are identical.
        assert spilled.tip_hash == memory.tip_hash
        assert spilled.committed_count == memory.committed_count
        memory_batches = list(memory.iter_committed_batches(0))
        spill_batches = list(spilled.iter_committed_batches(0))
        assert len(spill_batches) == len(memory_batches)
        for left, right in zip(spill_batches, memory_batches):
            np.testing.assert_array_equal(left.accounts, right.accounts)
            np.testing.assert_array_equal(left.to_shards, right.to_shards)
            np.testing.assert_array_equal(left.gains, right.gains)
        spilled.verify()
        memory.verify()
        spilled.close()

    def test_spilled_survives_process_restart(self, tmp_path):
        first = BeaconChain(spill_dir=tmp_path)
        first.submit_batch(batch([1, 2], epoch=0, gains=[2.0, 1.0]))
        first.commit_epoch(epoch=0)
        tip = first.tip_hash
        first.close()
        # A new log over the same directory resumes the committed rows
        # (headers are process state, so only the payload store resumes).
        resumed = SegmentedCommitLog(tmp_path)
        assert resumed.total_rows == 2
        assert tip != ""

    def test_reconstructed_block_self_checks_payload_digest(self, tmp_path):
        spilled = BeaconChain(spill_dir=tmp_path)
        spilled.submit_batch(batch([4, 5], epoch=0, gains=[1.0, 2.0]))
        spilled.commit_epoch(epoch=0)
        # Block.__post_init__ re-derives the payload digest from the
        # segment bytes; a mismatch against the stored header would raise.
        (block,) = spilled.blocks
        assert block.header.height == 0
        assert len(block.payload) == 1
        spilled.close()
