"""Pin one of the cross-shard executor's two block committers.

``CrossShardExecutor`` picks its withdraw/intra committer per block by
size: blocks with fewer than ``_BATCH_MIN_BLOCK`` transfers run the
scalar loop, larger ones the batched kernel. Equivalence tests patch
that threshold so every block, whatever its size, runs the committer
under test.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator
from unittest import mock

from repro.chain import crossshard


@contextmanager
def force_committer(batched: bool) -> Iterator[None]:
    """Run every block through the batched (or the scalar) committer."""
    threshold = 0 if batched else sys.maxsize
    with mock.patch.object(crossshard, "_BATCH_MIN_BLOCK", threshold):
        yield
