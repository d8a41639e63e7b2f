"""A single shard chain ``S_i``: an append-only chain of blocks."""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.chain.block import GENESIS_HASH, Block
from repro.errors import BlockLinkError, ValidationError


class ShardChain:
    """One shard's block chain.

    The chain enforces hash linkage on append: every block must extend the
    current tip. Payloads are opaque; the ledger stores per-block
    transaction-count summaries rather than full transaction objects to
    keep long simulations memory-friendly (the columnar trace retains the
    full data).
    """

    def __init__(self, shard_id: int) -> None:
        if shard_id < 0:
            raise ValidationError(f"shard_id must be >= 0, got {shard_id}")
        self.shard_id = shard_id
        self.chain_id = f"shard-{shard_id}"
        self._blocks: List[Block] = []

    def __len__(self) -> int:
        return len(self._blocks)

    @property
    def blocks(self) -> Sequence[Block]:
        """Read-only view of the block list."""
        return tuple(self._blocks)

    @property
    def tip(self) -> Optional[Block]:
        """The latest block, or None for an empty chain."""
        return self._blocks[-1] if self._blocks else None

    @property
    def tip_hash(self) -> str:
        """Hash the next block must reference as its parent."""
        return self._blocks[-1].block_hash if self._blocks else GENESIS_HASH

    @property
    def height(self) -> int:
        """Height of the tip (genesis = 0); -1 when empty."""
        return len(self._blocks) - 1

    def append_block(self, payload: Sequence[object], epoch: int = 0) -> Block:
        """Produce and append the next block carrying ``payload``."""
        block = Block.build(
            chain_id=self.chain_id,
            height=len(self._blocks),
            parent_hash=self.tip_hash,
            payload=payload,
            epoch=epoch,
        )
        self._blocks.append(block)
        return block

    def append_existing(self, block: Block) -> None:
        """Append an externally built block after verifying linkage."""
        if block.header.chain_id != self.chain_id:
            raise BlockLinkError(
                f"block for {block.header.chain_id!r} appended to {self.chain_id!r}"
            )
        if block.header.height != len(self._blocks):
            raise BlockLinkError(
                f"expected height {len(self._blocks)}, got {block.header.height}"
            )
        if block.header.parent_hash != self.tip_hash:
            raise BlockLinkError("block parent hash does not match chain tip")
        self._blocks.append(block)

    def verify(self) -> None:
        """Re-verify the full hash chain; raises on corruption."""
        parent = GENESIS_HASH
        for height, block in enumerate(self._blocks):
            if block.header.height != height:
                raise BlockLinkError(f"height mismatch at {height}")
            if block.header.parent_hash != parent:
                raise BlockLinkError(f"broken parent link at height {height}")
            parent = block.block_hash
