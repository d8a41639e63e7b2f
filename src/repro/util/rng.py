"""Deterministic random-number management.

Everything stochastic in the library flows through a single root seed so
that simulations are reproducible end to end. Sub-components derive
independent streams with :func:`derive_seed`, which hashes the root seed
together with a string label; this avoids accidental stream correlation
between, say, the trace generator and the simulated network.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.errors import ConfigurationError
from repro.util.validation import check_non_negative

_SEED_MODULUS = 2**63


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a stable child seed from ``root_seed`` and a string label."""
    check_non_negative("root_seed", root_seed)
    digest = hashlib.sha256(f"{int(root_seed)}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_MODULUS


class RngFactory:
    """Factory producing labelled, independent numpy generators.

    Example::

        rngs = RngFactory(seed=7)
        gen_trace = rngs.generator("trace")
        gen_network = rngs.generator("netsim")
    """

    def __init__(self, seed: int = 0) -> None:
        # Validate without float conversion: 63-bit seeds would lose
        # precision through float and must survive spawn() exactly.
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigurationError(f"seed must be an int, got {seed!r}")
        if seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        self._seed = seed

    @property
    def seed(self) -> int:
        """The root seed this factory was created with."""
        return self._seed

    def child_seed(self, label: str) -> int:
        """Return the derived integer seed for ``label``."""
        return derive_seed(self._seed, label)

    def generator(self, label: str) -> np.random.Generator:
        """Return a fresh ``numpy`` generator for the given label."""
        return np.random.default_rng(self.child_seed(label))

    def spawn(self, label: str) -> "RngFactory":
        """Return a child factory rooted at the derived seed for ``label``."""
        return RngFactory(self.child_seed(label))

    def __repr__(self) -> str:
        return f"RngFactory(seed={self._seed})"
