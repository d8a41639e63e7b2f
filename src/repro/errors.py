"""Exception hierarchy for the Mosaic reproduction.

All library-raised exceptions derive from :class:`ReproError` so that
callers can catch library failures without masking programming errors
(``TypeError``, ``AttributeError``, ...) raised by misuse.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class ConfigurationError(ReproError):
    """A parameter or configuration value is invalid or inconsistent."""


class ValidationError(ReproError):
    """A runtime invariant check failed (bad input data, broken state)."""


class MappingError(ReproError):
    """An account-shard mapping operation violated Definition 1."""


class UnknownAccountError(MappingError):
    """An account id or address is not present in the registry/mapping."""

    def __init__(self, account: object) -> None:
        super().__init__(f"unknown account: {account!r}")
        self.account = account


class ResidencyError(MappingError):
    """A state write named a shard that is not the account's home.

    Each account's state lives on exactly one shard (``phi`` of
    Definition 1), so a write elsewhere means a caller routed by a
    stale shard. Deliberately not a :class:`ChainError`: the executor
    counts ``ChainError`` as a failed transfer, and a misrouted write
    must surface, never pass as one.
    """

    def __init__(self, account: int, home: int, shard: int) -> None:
        super().__init__(
            f"account {account} is homed on shard {home}, not shard {shard}"
        )
        self.account = account
        self.home = home
        self.shard = shard


class ChainError(ReproError):
    """A blockchain substrate operation failed (bad block, broken link)."""


class BlockLinkError(ChainError):
    """A block does not extend the chain tip it was appended to."""


class SegmentIntegrityError(ChainError):
    """An on-disk beacon segment is truncated or corrupt.

    Carries the segment path and the byte offset of the last intact
    record boundary, so a crash-truncated tail can be located (and
    repaired by reopening the log with ``recover=True``) without
    re-scanning the file by hand.
    """

    def __init__(self, path: object, offset: int, reason: str) -> None:
        super().__init__(f"{path} at byte {offset}: {reason}")
        self.path = str(path)
        self.offset = int(offset)
        self.reason = reason


class NetworkError(ChainError):
    """A simulated network operation failed or was misconfigured."""


class MigrationError(ReproError):
    """A migration request is malformed or cannot be applied."""


class StateMigrationError(MigrationError):
    """Account state could not be moved between shard stores.

    Raised when a migration names a source shard that does not actually
    hold the account's state (the account is resident elsewhere) — a
    stale or inconsistent request the caller must handle, distinct from
    migrating a never-touched account, which is a free no-op.
    """


class AllocationError(ReproError):
    """An allocation algorithm failed to produce a valid result."""


class PartitionError(AllocationError):
    """The multilevel graph partitioner could not satisfy its constraints."""


class DataError(ReproError):
    """Trace loading, generation, or ETL failed."""


class MalformedRowError(DataError):
    """One row of an ETL extract could not be decoded.

    Carries the source file and the 1-based line number so a bad row in
    a multi-gigabyte extract is findable without re-running the decode.
    """

    def __init__(self, path: object, line: int, reason: str) -> None:
        super().__init__(f"{path}:{line}: {reason}")
        self.path = str(path)
        self.line = int(line)
        self.reason = reason


class SimulationError(ReproError):
    """The simulation engine was driven into an invalid state."""


class ExperimentError(ReproError):
    """A scenario-matrix experiment run failed."""
