"""The beacon chain: validates and stores account-migration requests.

Mosaic reuses the Ethereum-2.0-style beacon chain as the coordination
layer (Section II-A / III-B). Clients submit migration requests (MRs) to
the beacon chain; miners of the beacon chain run ordinary consensus to
commit them. Per epoch, at most ``capacity`` MRs can commit — the paper
bounds this by the shard capacity ``lambda`` — and when over-subscribed,
requests with the largest potential improvement win (Section V-A).

Requests arrive as columnar :class:`MigrationRequestBatch` rounds and
commit through :func:`~repro.chain.migration.select_migrations_kernel`,
the single commitment rule in the code base.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Union

from repro.chain.block import GENESIS_HASH, Block, BlockHeader
from repro.chain.mapping import ShardMapping
from repro.chain.migration import MigrationRequestBatch, select_migrations_kernel
from repro.chain.segments import DEFAULT_SEGMENT_ROWS, SegmentedCommitLog
from repro.errors import BlockLinkError, MigrationError, ValidationError


class BeaconChain:
    """The beacon chain ``BC`` storing committed migration requests.

    Two storage modes share one protocol:

    * **in-memory** (default, ``spill_dir=None``) — every block and its
      committed batch stays resident.
    * **segment-spilled** (``spill_dir=<path>``) — committed batches
      append to a height-indexed on-disk
      :class:`~repro.chain.segments.SegmentedCommitLog` and only block
      *headers* stay in memory, so the beacon's footprint no longer
      grows with the committed rows. Commit decisions and block hashes
      are identical to in-memory mode.
    """

    CHAIN_ID = "beacon"

    def __init__(
        self,
        spill_dir: Optional[Union[str, Path]] = None,
        segment_rows: int = DEFAULT_SEGMENT_ROWS,
        recover: bool = False,
    ) -> None:
        self._blocks: List[Block] = []
        #: Spill mode keeps headers only; payloads live in segments.
        self._headers: List[BlockHeader] = []
        #: Pending submissions, in submission order.
        self._pending: List[MigrationRequestBatch] = []
        self._committed_count = 0
        self._spill: Optional[SegmentedCommitLog] = (
            SegmentedCommitLog(
                spill_dir, segment_rows=segment_rows, recover=recover
            )
            if spill_dir is not None
            else None
        )

    # -- chain view ----------------------------------------------------------

    @property
    def spilled(self) -> bool:
        """True when committed payloads live in on-disk segments."""
        return self._spill is not None

    def __len__(self) -> int:
        if self._spill is not None:
            return len(self._headers)
        return len(self._blocks)

    def _block_at(self, height: int) -> Block:
        """Reconstruct one spilled block (header + segment payload).

        ``Block.__post_init__`` re-derives the payload digest, so a
        reconstructed block self-checks the segment bytes against the
        header committed at append time.
        """
        header = self._headers[height]
        batch = self._spill.batch_at(height)
        return Block(
            header=header, payload=(batch,) if batch is not None else ()
        )

    @property
    def blocks(self) -> Sequence[Block]:
        """Read-only view of the beacon blocks.

        In spill mode every payload is re-read from its segment — O(all
        committed rows); windowed consumers use
        :meth:`iter_committed_batches` instead.
        """
        if self._spill is not None:
            return tuple(
                self._block_at(height) for height in range(len(self._headers))
            )
        return tuple(self._blocks)

    @property
    def tip_hash(self) -> str:
        if self._spill is not None:
            return (
                self._headers[-1].block_hash if self._headers else GENESIS_HASH
            )
        return self._blocks[-1].block_hash if self._blocks else GENESIS_HASH

    @property
    def committed_count(self) -> int:
        """Total MRs ever committed — O(1), never re-reads the log."""
        return self._committed_count

    def verify(self) -> None:
        """Re-verify the beacon chain's hash links.

        Operates on headers, so spill mode verifies without reading any
        segment payload back.
        """
        headers = (
            self._headers
            if self._spill is not None
            else [block.header for block in self._blocks]
        )
        parent = GENESIS_HASH
        for height, header in enumerate(headers):
            if header.height != height:
                raise BlockLinkError(f"height mismatch at {height}")
            if header.parent_hash != parent:
                raise BlockLinkError(f"broken parent link at height {height}")
            parent = header.block_hash

    def close(self) -> None:
        """Release the spill log's file handle (no-op in-memory)."""
        if self._spill is not None:
            self._spill.close()

    # -- request lifecycle -----------------------------------------------------

    def submit_batch(self, batch: MigrationRequestBatch) -> None:
        """Accept a columnar batch of requests into the beacon mempool.

        The batch validated on construction; empty batches are a no-op.
        """
        if not isinstance(batch, MigrationRequestBatch):
            raise MigrationError(
                f"expected MigrationRequestBatch, got {type(batch).__name__}"
            )
        if len(batch):
            self._pending.append(batch)

    def commit_epoch(
        self,
        epoch: int,
        capacity: Optional[int] = None,
        mapping: Optional[ShardMapping] = None,
    ) -> MigrationRequestBatch:
        """Run one commitment round; return the committed batch.

        When ``mapping`` is provided, requests whose ``from_shard`` no
        longer matches the account's current shard are rejected (stale
        requests, e.g. the client raced a previous migration). The round
        runs through :func:`~repro.chain.migration.select_migrations_kernel`
        and the committed batch, in commitment order, becomes the block
        payload.

        The proposal epoch survives when all pending batches agree on
        one; otherwise the committed batch carries the commit round's
        epoch (a batch has a single epoch column). A bad ``epoch`` or
        ``capacity`` raises before the round consumes the pending
        requests, so a corrected retry still commits them.
        """
        if epoch < 0:
            raise ValidationError(f"epoch must be >= 0, got {epoch}")
        if capacity is not None and capacity < 0:
            raise ValidationError(f"capacity must be >= 0, got {capacity}")
        proposal_epochs = {batch.epoch for batch in self._pending}
        combined = MigrationRequestBatch.concat(
            self._pending,
            epoch=(
                proposal_epochs.pop() if len(proposal_epochs) == 1 else epoch
            ),
        )
        self._pending = []
        committed_idx, _ = select_migrations_kernel(
            combined.accounts,
            combined.from_shards,
            combined.to_shards,
            combined.gains,
            mapping.as_array() if mapping is not None else None,
            mapping.k if mapping is not None else None,
            capacity,
        )
        committed = combined.take_batch(committed_idx)
        block = Block.build(
            chain_id=self.CHAIN_ID,
            height=len(self),
            parent_hash=self.tip_hash,
            payload=[committed] if len(committed) else [],
            epoch=epoch,
        )
        if self._spill is not None:
            self._headers.append(block.header)
            if len(committed):
                self._spill.append(block.header.height, committed)
        else:
            self._blocks.append(block)
        self._committed_count += len(committed)
        return committed

    # -- miner-side synchronisation ---------------------------------------------

    def iter_committed_batches(
        self, block_height: int = 0
    ) -> Iterator[MigrationRequestBatch]:
        """Lazily yield per-block committed batches from ``block_height``.

        One non-empty batch per block, in block order, holding a single
        block's rows at a time — so a caller can apply them block by
        block (one account can move in two epochs' blocks). In spill
        mode the rows stream straight off the segment files.
        """
        if self._spill is not None:
            for _height, batch in self._spill.iter_batches(
                max(0, block_height)
            ):
                yield batch
            return
        for block in self._blocks[max(0, block_height):]:
            if block.payload:
                yield block.payload[0]
