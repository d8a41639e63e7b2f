"""The state table vs the dict-store oracle, and migration semantics.

The production registry (one ``balance``/``nonce``/``home`` table with
a store view per shard) must be observably identical to the scalar-dict
stores kept in ``state_reference``: same balances, nonces, membership,
state roots, totals and raised errors under any interleaving of scalar
ops, columnar bulk ops and scalar and batched migrations. The property
suite here drives a production registry and the oracle registry through
the same randomized op streams — writes mostly to the account's home
shard, sometimes to a random one; integer amounts, and fractional ones
whose sums round — and compares them after every step, the total
against ``math.fsum`` of the oracle's balances. The targeted cases below
pin the same equivalence at k > 64, and the single-residency contract: a
write to a shard that is not the account's home, or for an id beyond the
registry capacity, raises the same typed error on both sides and changes
nothing.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from state_reference import (
    STATE_BACKENDS,
    ShardStateStore,
    dict_registry,
    locate_scan,
    make_registry,
)

from repro.chain.state import (
    AccountState,
    DenseShardStateStore,
    StateRegistry,
)
from repro.errors import (
    ChainError,
    MappingError,
    ResidencyError,
    StateMigrationError,
    UnknownAccountError,
    ValidationError,
)

N_ACCOUNTS = 24
K = 3


def _registries():
    dict_reg = dict_registry(K, n_accounts=N_ACCOUNTS)
    dense_reg = StateRegistry(K, n_accounts=N_ACCOUNTS)
    return dict_reg, dense_reg


def _assert_equivalent(dict_reg, dense_reg: StateRegistry):
    for shard in range(K):
        a = dict_reg.store_of(shard)
        b = dense_reg.store_of(shard)
        assert len(a) == len(b)
        assert sorted(a.accounts()) == sorted(b.accounts())
        assert a.state_root() == b.state_root()
        assert a.total_balance() == b.total_balance()
        for account in a.accounts():
            assert a.get(account) == b.get(account)
    # Exactly rounded, so equal however the balances are spread.
    balances = [
        store.get(account).balance
        for store in dict_reg.stores
        for account in store.accounts()
    ]
    assert dense_reg.total_balance() == math.fsum(balances)
    assert dict_reg.total_balance() == math.fsum(balances)


def _outcome(write):
    """A write's result, or its typed error as (type, message)."""
    try:
        return write()
    except (ChainError, MappingError) as exc:
        return type(exc).__name__, str(exc)


_ACCOUNT = st.integers(0, N_ACCOUNTS - 1)
_AMOUNT = st.integers(0, 40).map(float)
#: Multiples of 0.1 (``n * 0.1``, so 0.30000000000000004 among them):
#: their sums round, unlike the integer amounts of the e2e traces.
_FRACTIONAL = st.integers(0, 400).map(lambda n: n * 0.1)
#: None writes to the account's home shard (``account % K`` while it
#: has none); a shard id writes there, which may be off home.
_TARGET = st.one_of(st.none(), st.none(), st.integers(0, K - 1))


def _scalar_and_bulk_ops(amount):
    return (
        st.tuples(st.just("credit"), _ACCOUNT, amount, _TARGET),
        st.tuples(st.just("debit"), _ACCOUNT, amount, _TARGET),
        st.tuples(st.just("put"), _ACCOUNT, amount, _TARGET),
        st.tuples(st.just("migrate"), _ACCOUNT, st.integers(0, K - 1)),
        st.tuples(
            st.just("credit_many"),
            st.lists(st.tuples(_ACCOUNT, amount), min_size=1, max_size=6),
            _TARGET,
        ),
        # (account, amount, is_debit) events; a debit takes at most
        # the balance it finds, as the executor guarantees.
        st.tuples(
            st.just("apply_many"),
            st.lists(
                st.tuples(_ACCOUNT, amount, st.booleans()),
                min_size=1,
                max_size=6,
            ),
            _TARGET,
        ),
    )


def _churn_ops(amount):
    """The scalar and bulk ops plus batched migration."""
    return st.lists(
        st.one_of(
            *_scalar_and_bulk_ops(amount),
            st.tuples(
                st.just("migrate_batch"),
                st.lists(
                    st.tuples(_ACCOUNT, st.integers(0, K - 1)),
                    min_size=1,
                    max_size=8,
                    unique_by=lambda t: t[0],
                ),
            ),
        ),
        max_size=40,
    )


def _apply_many_rows(reg, entries):
    """``apply_many`` columns for ``entries``: debits capped at the
    running balance, in event order, so none overdraws."""
    running = {}
    deltas = []
    for account, amount, is_debit in entries:
        if account not in running:
            shard = reg.locate(account)
            running[account] = (
                0.0 if shard is None else reg.store_of(shard).get(account).balance
            )
        delta = -min(amount, running[account]) if is_debit else amount
        running[account] += delta
        deltas.append(delta)
    accounts = np.array([e[0] for e in entries], dtype=np.int64)
    debits = np.array([e[2] for e in entries], dtype=bool)
    return accounts, np.array(deltas, dtype=np.float64), debits


def _home_of(registries, account: int) -> int:
    """The account's shard, agreed by both registries, or its default."""
    located = {reg.locate(account) for reg in registries}
    assert len(located) == 1
    (shard,) = located
    return account % K if shard is None else shard


def _apply_and_compare(ops):
    """Drive oracle and production through ``ops``, comparing each step."""
    dict_reg, dense_reg = _registries()
    registries = (dict_reg, dense_reg)
    for op in ops:
        kind = op[0]
        if kind in ("credit", "debit", "put"):
            _, account, amount, target = op
            shard = _home_of(registries, account) if target is None else target
            stores = [reg.store_of(shard) for reg in registries]
            if kind == "credit":
                outcomes = [
                    _outcome(lambda s=s: s.credit(account, amount))
                    for s in stores
                ]
            elif kind == "put":
                state = AccountState(balance=amount, nonce=int(amount) % 5)
                outcomes = [
                    _outcome(lambda s=s: s.put(account, state)) for s in stores
                ]
            else:
                outcomes = [
                    _outcome(lambda s=s: s.debit(account, amount))
                    for s in stores
                ]
            assert outcomes[0] == outcomes[1]
        elif kind == "migrate":
            _, account, to_shard = op
            outcomes = []
            for reg in registries:
                current = reg.locate(account)
                from_shard = current if current is not None else account % K
                if from_shard == to_shard:
                    outcomes.append("same")
                    continue
                outcomes.append(reg.migrate(account, from_shard, to_shard))
            assert outcomes[0] == outcomes[1]
        elif kind == "migrate_batch":
            _, entries = op
            accounts = np.array([e[0] for e in entries], dtype=np.int64)
            targets = np.array([e[1] for e in entries], dtype=np.int64)
            moved = [reg.migrate_batch(accounts, targets) for reg in registries]
            assert moved[0] == moved[1]
        elif kind in ("credit_many", "apply_many"):
            _, entries, target = op
            if kind == "credit_many":
                accounts = np.array([e[0] for e in entries], dtype=np.int64)
                amounts = np.array([e[1] for e in entries], dtype=np.float64)
            else:
                accounts, amounts, debits = _apply_many_rows(dict_reg, entries)
            if target is None:
                shards = np.array(
                    [_home_of(registries, a) for a in accounts.tolist()]
                )
            else:
                shards = np.full(len(accounts), target)
            for shard in np.unique(shards).tolist():
                mask = shards == shard
                if kind == "credit_many":
                    write = lambda store: store.credit_many(
                        accounts[mask], amounts[mask]
                    )
                else:
                    write = lambda store: store.apply_many(
                        accounts[mask], amounts[mask], accounts[mask & debits]
                    )
                outcomes = [
                    _outcome(lambda reg=reg: write(reg.store_of(shard)))
                    for reg in registries
                ]
                assert outcomes[0] == outcomes[1]
        _assert_equivalent(dict_reg, dense_reg)


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.one_of(*_scalar_and_bulk_ops(_AMOUNT)), max_size=40))
def test_backends_are_observably_identical(ops):
    _apply_and_compare(ops)


@settings(max_examples=60, deadline=None)
@given(ops=_churn_ops(_AMOUNT))
def test_backends_stay_identical_through_batched_migration(ops):
    _apply_and_compare(ops)


@settings(max_examples=60, deadline=None)
@given(ops=_churn_ops(_FRACTIONAL))
def test_backends_agree_on_fractional_values(ops):
    """Fractional funding and deltas: the total stays exactly rounded
    (``math.fsum`` of the oracle's balances) after every step."""
    _apply_and_compare(ops)


def _assert_registries_match(reference, other):
    for shard in range(reference.k):
        a, b = reference.store_of(shard), other.store_of(shard)
        assert sorted(a.accounts()) == sorted(b.accounts())
        assert a.state_root() == b.state_root()
    assert reference.total_balance() == other.total_balance()


class TestLargeKMultiWordResidency:
    """k > 64 (past one 64-bit word of shard ids): the state table must
    stay root-identical to the dict store through batched churn at that
    scale."""

    K_LARGE = 80
    N = 640

    def test_batched_churn_is_root_identical_at_k80(self):
        registries = tuple(
            make_registry(b, self.K_LARGE, n_accounts=self.N)
            for b in STATE_BACKENDS
        )
        rng = np.random.default_rng(17)
        home = rng.integers(0, self.K_LARGE, size=self.N)
        ids = np.arange(self.N, dtype=np.int64)
        for reg in registries:
            for shard in range(self.K_LARGE):
                members = ids[home == shard]
                if len(members):
                    reg.store_of(shard).credit_many(
                        members, np.full(len(members), 3.0)
                    )
        for _ in range(6):
            churn = rng.choice(self.N, size=self.N // 3, replace=False)
            targets = rng.integers(
                0, self.K_LARGE, size=len(churn), dtype=np.int64
            )
            moved = {
                reg.migrate_batch(churn.astype(np.int64), targets)
                for reg in registries
            }
            assert len(moved) == 1
            _assert_registries_match(*registries)
            locates = [reg.locate_many(ids).tolist() for reg in registries]
            assert locates[0] == locates[1]


class TestBeyondCapacitySpill:
    """Every write of an id past the registry capacity raises
    ``UnknownAccountError`` on both backends alike, and reads treat it
    as non-resident."""

    def test_spilled_ids_stay_equivalent(self):
        capacity = 8
        registries = tuple(
            make_registry(b, 2, n_accounts=capacity)
            for b in STATE_BACKENDS
        )
        for reg in registries:
            s0, s1 = reg.store_of(0), reg.store_of(1)
            for account in range(capacity):  # fill every row
                s0.credit(account, 2.0)
            for account in range(capacity, capacity + 5):
                with pytest.raises(UnknownAccountError):
                    s0.put(account, AccountState(balance=7.0, nonce=1))
            with pytest.raises(UnknownAccountError):
                s0.debit(capacity + 2, 3.0)
            assert reg.migrate(capacity + 3, 0, 1) == 0
            with pytest.raises(UnknownAccountError):
                s1.credit(capacity + 7, 9.0)
            assert reg.locate(capacity + 3) is None
            assert reg.total_balance() == capacity * 2.0
        _assert_registries_match(*registries)

    def test_beyond_capacity_ids_never_claim_slots(self):
        registry = StateRegistry(2, n_accounts=4)
        store = registry.store_of(0)
        with pytest.raises(UnknownAccountError):
            store.put(11, AccountState(balance=1.0))
        assert registry.state_memory_nbytes() == 4 * (8 + 8 + 4)
        assert len(store) == 0
        assert store.get(11) == AccountState()
        assert registry.locate_many(np.array([11, -1, 3])).tolist() == [-1] * 3


class TestDenseFallback:
    """Ids beyond the registry's universe: a store rejects them exactly
    like the dict store does, bulk writes atomically."""

    def test_sparse_ids_behave_like_dict_store(self):
        dense = StateRegistry(1, n_accounts=4).store_of(0)
        reference = ShardStateStore(0, capacity=4)
        for store in (dense, reference):
            store.credit(2, 10.0)      # in capacity
            with pytest.raises(UnknownAccountError, match="100"):
                store.credit(100, 7.0)
            with pytest.raises(UnknownAccountError, match="100"):
                store.debit(100, 3.0)
            with pytest.raises(UnknownAccountError, match="100"):
                store.credit_many(
                    np.array([2, 100, 3]), np.array([1.0, 1.0, 5.0])
                )
        assert dense.state_root() == reference.state_root()
        assert dense.total_balance() == reference.total_balance() == 10.0
        assert len(dense) == len(reference) == 1
        assert 100 not in dense
        assert dense.get(100) == reference.get(100) == AccountState()

    def test_sparse_remove_and_migrate(self):
        registry = StateRegistry(2, n_accounts=4)
        with pytest.raises(UnknownAccountError):
            registry.store_of(0).credit(50, 9.0)
        # Never resident anywhere: migrating it is a free no-op.
        assert registry.migrate(50, 0, 1) == 0
        assert registry.locate(50) is None
        with pytest.raises(ChainError, match="not resident"):
            registry.store_of(0).remove(50)

    def test_mixed_apply_many_raises_before_writing(self):
        # One in-capacity id and one beyond it: nothing is applied.
        dense = StateRegistry(1, n_accounts=4).store_of(0)
        with pytest.raises(UnknownAccountError, match="9"):
            dense.apply_many(
                np.array([1, 9]), np.array([5.0, 6.0]), np.array([1])
            )
        assert len(dense) == 0
        assert dense.get(1) == AccountState()


def _write(entry: str, store, account: int) -> None:
    """Call one write entry point of ``store`` for ``account``."""
    ids = np.array([0, account], dtype=np.int64)  # 0 is homed on shard 0
    if entry == "put":
        store.put(account, AccountState(balance=3.0, nonce=2))
    elif entry == "credit":
        store.credit(account, 3.0)
    elif entry == "debit":
        store.debit(account, 1.0)
    elif entry == "credit_many":
        store.credit_many(ids, np.array([1.0, 3.0]))
    else:
        store.apply_many(ids, np.array([1.0, 3.0]), ids[:0])


class TestSingleResidency:
    """One home per account: an off-home or unknown write raises the
    same typed error on the state table and the dict oracle, before it
    changes anything."""

    N = 6

    def _registry(self, backend: str):
        registry = make_registry(backend, 2, n_accounts=self.N)
        registry.store_of(0).credit(0, 4.0)
        registry.store_of(1).credit(1, 5.0)  # homed on shard 1
        return registry

    @pytest.mark.parametrize(
        "entry", ["put", "credit", "debit", "credit_many", "apply_many"]
    )
    @pytest.mark.parametrize("case", ["off-home", "beyond-capacity"])
    def test_rejected_write_raises_alike_and_changes_nothing(self, entry, case):
        errors = []
        for backend in STATE_BACKENDS:
            registry = self._registry(backend)
            before = [
                (sorted(s.accounts()), s.state_root()) for s in registry.stores
            ]
            account = 1 if case == "off-home" else self.N
            with pytest.raises(MappingError) as raised:
                _write(entry, registry.store_of(0), account)
            errors.append(raised.value)
            after = [
                (sorted(s.accounts()), s.state_root()) for s in registry.stores
            ]
            assert after == before
            assert registry.total_balance() == 9.0
            assert registry.locate(1) == 1
        dict_error, dense_error = errors
        assert type(dict_error) is type(dense_error)
        assert str(dict_error) == str(dense_error)
        if case == "off-home":
            assert isinstance(dense_error, ResidencyError)
            assert not isinstance(dense_error, ChainError)
            assert (dense_error.account, dense_error.home, dense_error.shard) == (
                1,
                1,
                0,
            )
        else:
            assert isinstance(dense_error, UnknownAccountError)
            assert dense_error.account == self.N

    @pytest.mark.parametrize("backend", STATE_BACKENDS)
    def test_negative_id_is_unknown(self, backend):
        registry = self._registry(backend)
        with pytest.raises(UnknownAccountError):
            registry.store_of(0).credit(-1, 1.0)
        assert registry.locate(-1) is None

    @pytest.mark.parametrize("backend", STATE_BACKENDS)
    def test_homed_nowhere_claims_on_first_write(self, backend):
        registry = self._registry(backend)
        registry.store_of(1).put(3, AccountState(balance=2.0, nonce=1))
        assert registry.locate(3) == 1
        registry.store_of(1).remove(3)
        assert registry.locate(3) is None
        registry.store_of(0).credit(3, 1.0)  # homed nowhere again
        assert registry.locate(3) == 0


class TestMigrationSemantics:
    """Typed errors instead of silent drops / leaked KeyErrors."""

    @pytest.mark.parametrize("backend", STATE_BACKENDS)
    def test_wrong_source_shard_raises_typed_error(self, backend):
        registry = make_registry(backend, 3, n_accounts=8)
        registry.store_of(2).credit(5, 4.0)
        with pytest.raises(StateMigrationError, match="resident on shard 2"):
            registry.migrate(5, 0, 1)
        # Nothing moved, nothing lost.
        assert registry.locate(5) == 2
        assert registry.total_balance() == 4.0

    @pytest.mark.parametrize("backend", STATE_BACKENDS)
    def test_unknown_account_migration_is_free_noop(self, backend):
        registry = make_registry(backend, 3, n_accounts=8)
        assert registry.migrate(5, 0, 1) == 0

    @pytest.mark.parametrize("backend", STATE_BACKENDS)
    def test_failed_take_many_leaves_state_untouched(self, backend):
        """A refused bulk move of many accounts (``migrate_batch``) changes nothing."""
        registry = make_registry(backend, 2, n_accounts=8)
        store = registry.store_of(0)
        store.credit(1, 5.0)
        store.credit(2, 7.0)
        root = store.state_root()
        with pytest.raises(ValidationError, match="account 2 repeats"):
            registry.migrate_batch(
                np.array([1, 2, 2], dtype=np.int64),
                np.array([1, 1, 0], dtype=np.int64),
            )
        with pytest.raises(ValidationError, match="target shard out of range"):
            registry.migrate_batch(
                np.array([1, 2], dtype=np.int64), np.array([1, 2], dtype=np.int64)
            )
        assert registry.total_balance() == 12.0
        assert store.state_root() == root
        assert len(store) == 2
        for account in (1, 2, 3):
            assert registry.locate(account) == locate_scan(registry, account)

    def test_remove_raises_chain_error_not_key_error(self):
        for store in (
            ShardStateStore(0, capacity=4),
            StateRegistry(1, n_accounts=4).store_of(0),
        ):
            with pytest.raises(ChainError):
                store.remove(1)
            with pytest.raises(ChainError):
                store.remove(99)


class TestExactTotals:
    """Exactly-rounded totals keep conservation checks tight."""

    def test_dict_total_is_exactly_rounded(self):
        store = ShardStateStore(0, capacity=11)
        store.credit(0, 1e16)
        for account in range(1, 11):
            store.credit(account, 1.0)
        # Naive left-to-right float accumulation loses every 1.0 against
        # 1e16; fsum keeps the exactly-rounded total.
        assert store.total_balance() == 1e16 + 10.0

    def test_registry_total_is_exactly_rounded_across_shards(self):
        registry = StateRegistry(4, n_accounts=4)
        registry.store_of(0).credit(0, 1e16)
        for shard in range(1, 4):
            registry.store_of(shard).credit(shard, 1.0)
        assert registry.total_balance() == 1e16 + 3.0

    def test_store_total_is_exactly_rounded(self):
        registry = StateRegistry(2, n_accounts=1000)
        registry.store_of(1).credit_many(
            np.arange(1000), np.full(1000, 0.1, dtype=np.float64)
        )
        # A float64 sum of 1000 x 0.1 (pairwise or in order) misses it.
        assert float(np.sum(np.full(1000, 0.1))) != math.fsum([0.1] * 1000)
        assert registry.store_of(1).total_balance() == math.fsum([0.1] * 1000)
        assert registry.total_balance() == math.fsum([0.1] * 1000)


class TestRegistryConstruction:
    def test_rejects_negative_capacity(self):
        with pytest.raises(ValidationError):
            StateRegistry(2, n_accounts=-1)

    def test_requires_the_account_universe(self):
        with pytest.raises(TypeError):
            StateRegistry(2)  # type: ignore[call-arg]

    def test_stores_are_sized_to_the_universe(self):
        registry = StateRegistry(2, n_accounts=10)
        assert all(isinstance(s, DenseShardStateStore) for s in registry.stores)
        assert all(s.capacity == 10 for s in registry.stores)
