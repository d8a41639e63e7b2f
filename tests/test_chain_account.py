"""Unit tests for addresses and the account registry."""

import pytest

from repro.chain.account import AccountRegistry, address_from_id
from repro.errors import UnknownAccountError, ValidationError

ADDR_A = "0x" + "aa" * 20
ADDR_B = "0x" + "bb" * 20


class TestAddressDerivation:
    def test_address_from_id_is_deterministic(self):
        assert address_from_id(5) == address_from_id(5)

    def test_address_from_id_is_unique_for_small_ids(self):
        addresses = {address_from_id(i) for i in range(100)}
        assert len(addresses) == 100

    def test_address_from_id_format(self):
        address = address_from_id(0)
        assert address.startswith("0x")
        assert len(address) == 42

    def test_rejects_negative_id(self):
        with pytest.raises(ValidationError):
            address_from_id(-1)

class TestRegistry:
    def test_register_assigns_dense_ids(self):
        registry = AccountRegistry()
        assert registry.register(ADDR_A) == 0
        assert registry.register(ADDR_B) == 1
        assert len(registry) == 2

    def test_register_is_idempotent(self):
        registry = AccountRegistry()
        first = registry.register(ADDR_A)
        second = registry.register(ADDR_A)
        assert first == second
        assert len(registry) == 1

    def test_case_insensitive(self):
        registry = AccountRegistry()
        registry.register(ADDR_A.upper().replace("0X", "0x"))
        assert ADDR_A in registry

    def test_accepts_address_without_prefix(self):
        registry = AccountRegistry()
        account_id = registry.register("aa" * 20)
        assert registry.address_of(account_id) == ADDR_A

    def test_address_of_unknown_raises(self):
        registry = AccountRegistry()
        with pytest.raises(UnknownAccountError):
            registry.address_of(0)

    def test_roundtrip(self):
        registry = AccountRegistry([ADDR_A, ADDR_B])
        assert registry.address_of(registry.register(ADDR_B)) == ADDR_B
        assert len(registry) == 2

    def test_rejects_bad_hex(self):
        registry = AccountRegistry()
        with pytest.raises(ValidationError):
            registry.register("0x" + "zz" * 20)

    def test_rejects_wrong_length(self):
        registry = AccountRegistry()
        with pytest.raises(ValidationError):
            registry.register("0x1234")

    def test_contains_handles_invalid_addresses(self):
        registry = AccountRegistry()
        assert "not-an-address" not in registry

    def test_synthetic_registry_covers_range(self):
        registry = AccountRegistry.synthetic(10)
        assert len(registry) == 10
        assert registry.register(registry.address_of(7)) == 7
        assert len(registry) == 10

    def test_ensure_size_is_monotonic(self):
        registry = AccountRegistry.synthetic(5)
        registry.ensure_size(3)
        assert len(registry) == 5
        registry.ensure_size(8)
        assert len(registry) == 8

    def test_iteration_order_matches_ids(self):
        registry = AccountRegistry([ADDR_A, ADDR_B])
        assert list(registry) == [ADDR_A, ADDR_B]
