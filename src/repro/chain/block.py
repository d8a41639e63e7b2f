"""Blocks and hash chaining: the beacon chain's block format."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence, Tuple

from repro.errors import ValidationError

#: Parent hash of every genesis block.
GENESIS_HASH = "0x" + "00" * 32


def compute_block_hash(
    chain_id: str,
    height: int,
    parent_hash: str,
    payload_digest: str,
    epoch: int = 0,
) -> str:
    """Deterministic sha256 block hash over all header fields."""
    material = f"{chain_id}|{height}|{parent_hash}|{payload_digest}|{epoch}"
    return "0x" + hashlib.sha256(material.encode("utf-8")).hexdigest()


def payload_digest(items: Sequence[object]) -> str:
    """Digest a block body: the repr of each item, in order."""
    hasher = hashlib.sha256()
    for item in items:
        hasher.update(repr(item).encode("utf-8"))
        hasher.update(b"\x00")
    return hasher.hexdigest()


@dataclass(frozen=True)
class BlockHeader:
    """Immutable block header.

    ``chain_id`` (``"beacon"`` for the beacon chain) is bound into the
    hash, so identical payloads on different chains hash differently.
    """

    chain_id: str
    height: int
    parent_hash: str
    payload_digest: str
    epoch: int = 0

    def __post_init__(self) -> None:
        if self.height < 0:
            raise ValidationError(f"height must be >= 0, got {self.height}")
        if self.epoch < 0:
            raise ValidationError(f"epoch must be >= 0, got {self.epoch}")

    @property
    def block_hash(self) -> str:
        """Hash binding this header to its chain position and payload."""
        return compute_block_hash(
            self.chain_id,
            self.height,
            self.parent_hash,
            self.payload_digest,
            self.epoch,
        )


@dataclass(frozen=True)
class Block:
    """A block: header plus an opaque tuple of payload items.

    The beacon chain is the only chain that builds blocks: each carries
    one committed :class:`repro.chain.migration.MigrationRequestBatch`,
    or nothing for an empty round. :class:`~repro.chain.beacon.BeaconChain`
    enforces the payload type; ``Block`` itself stays generic.
    """

    header: BlockHeader
    payload: Tuple[object, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        expected = payload_digest(self.payload)
        if expected != self.header.payload_digest:
            raise ValidationError(
                "payload does not match header digest "
                f"(expected {expected[:12]}…, header has {self.header.payload_digest[:12]}…)"
            )

    @property
    def block_hash(self) -> str:
        """The hash of this block's header."""
        return self.header.block_hash

    @property
    def height(self) -> int:
        """Height of the block on its chain (genesis = 0)."""
        return self.header.height

    @classmethod
    def build(
        cls,
        chain_id: str,
        height: int,
        parent_hash: str,
        payload: Sequence[object],
        epoch: int = 0,
    ) -> "Block":
        """Assemble a block, computing the payload digest."""
        items = tuple(payload)
        header = BlockHeader(
            chain_id=chain_id,
            height=height,
            parent_hash=parent_hash,
            payload_digest=payload_digest(items),
            epoch=epoch,
        )
        return cls(header=header, payload=items)
