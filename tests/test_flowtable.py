"""FlowTable: slab/LRU semantics checked against a naive reference model.

The slab table replaced plain dicts across the middlebox layer, so its
contract is "exactly a bounded dict with LRU eviction": iteration order is
key-insertion order, and recency only affects *victim choice* and the
LRU-end walk.  The property test drives random op sequences through both
the slab and a dict-plus-recency-list reference and demands identical
contents, iteration order, victims and LRU order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.middlebox.flowtable import _INITIAL_SLOTS, FlowTable

settings_kwargs = dict(
    deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow]
)


class ModelLRU:
    """The obvious O(n) reference: a dict for contents + a recency list."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = {}  # insertion-ordered contents
        self.recency = []  # LRU end first
        self.evicted = []

    def _touch(self, key):
        self.recency.remove(key)
        self.recency.append(key)

    def get(self, key, touch=True):
        if key not in self.data:
            return None
        if touch:
            self._touch(key)
        return self.data[key]

    def touch(self, key):
        if key not in self.data:
            return False
        self._touch(key)
        return True

    def insert(self, key, value):
        if key in self.data:
            # dict pop+reinsert: back of iteration order, MRU end.
            del self.data[key]
            self.data[key] = value
            self._touch(key)
            return
        if self.capacity is not None and len(self.data) >= self.capacity:
            victim = self.recency.pop(0)
            self.evicted.append((victim, self.data.pop(victim)))
        self.data[key] = value
        self.recency.append(key)

    def pop(self, key):
        if key not in self.data:
            return None
        self.recency.remove(key)
        return self.data.pop(key)


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 15), st.integers(0, 1_000)),
        st.tuples(st.just("get"), st.integers(0, 15), st.booleans()),
        st.tuples(st.just("touch"), st.integers(0, 15), st.none()),
        st.tuples(st.just("pop"), st.integers(0, 15), st.none()),
    ),
    max_size=80,
)


class TestAgainstReferenceModel:
    @settings(**settings_kwargs)
    @given(ops=OPS, capacity=st.integers(min_value=1, max_value=8))
    def test_contents_order_and_victims_match_naive_lru(self, ops, capacity):
        evicted = []
        table = FlowTable(
            capacity=capacity, on_evict=lambda k, v, reason: evicted.append((k, v))
        )
        model = ModelLRU(capacity)
        for op, key, arg in ops:
            if op == "insert":
                table.insert(key, arg)
                model.insert(key, arg)
            elif op == "get":
                assert table.get(key, touch=arg) == model.get(key, touch=arg)
            elif op == "touch":
                assert table.touch(key) == model.touch(key)
            else:
                assert table.pop(key) == model.pop(key)
            assert len(table) == len(model.data)
        assert dict(table.items()) == model.data
        assert list(table.keys()) == list(model.data)
        assert evicted == model.evicted
        assert table.lru_value() == (model.data[model.recency[0]] if model.recency else None)
        assert sorted(table.keys(), key=table.seq_of) == list(table.keys())

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_unbounded_table_is_a_plain_dict(self, ops):
        table = FlowTable()
        model = {}
        for op, key, arg in ops:
            if op == "insert":
                table.insert(key, arg)
                if key in model:
                    del model[key]
                model[key] = arg
            elif op == "get":
                assert table.get(key, touch=arg) == model.get(key)
            elif op == "touch":
                assert table.touch(key) == (key in model)
            else:
                assert table.pop(key) == model.pop(key, None)
        assert dict(table.items()) == model
        assert list(table.keys()) == list(model)


class TestByteBudget:
    def make(self, budget, **kwargs):
        evicted = []
        table = FlowTable(
            byte_budget=budget,
            cost_of=len,
            on_evict=lambda k, v, reason: evicted.append((k, reason)),
            **kwargs,
        )
        return table, evicted

    def test_budget_requires_cost_function(self):
        with pytest.raises(ValueError):
            FlowTable(byte_budget=100)

    def test_exceeding_budget_evicts_from_lru_end(self):
        table, evicted = self.make(10)
        table.insert("a", b"xxxx")
        table.insert("b", b"xxxx")
        table.insert("c", b"xxxx")  # 12 bytes > 10: "a" goes
        assert evicted == [("a", "evicted-bytes")]
        assert table.total_cost == 8

    def test_recost_reappraises_and_sheds(self):
        table, evicted = self.make(10)
        table.insert("a", bytearray(b"xx"))
        grown = bytearray(b"xx")
        table.insert("b", grown)
        grown.extend(b"x" * 10)
        table.recost("b")
        assert evicted == [("a", "evicted-bytes")]
        assert table.total_cost == 12  # single oversized entry is kept

    def test_single_oversized_entry_never_self_evicts(self):
        table, evicted = self.make(4)
        table.insert("big", b"x" * 100)
        assert len(table) == 1
        assert evicted == []

    @settings(**settings_kwargs)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=30),
        budget=st.integers(min_value=1, max_value=64),
    )
    def test_total_cost_invariant_under_churn(self, sizes, budget):
        table, _ = self.make(budget)
        for i, size in enumerate(sizes):
            table.insert(i, b"x" * size)
            assert table.total_cost == sum(len(v) for v in table.values())
            assert table.total_cost <= budget or len(table) == 1


class TestVictimPreference:
    def test_prefers_flagged_entry_near_lru_end(self):
        table = FlowTable(capacity=3, prefer_victim=lambda v: v == "done")
        table.insert("a", "live")
        table.insert("b", "done")
        table.insert("c", "live")
        table.insert("d", "live")  # capacity hit: "b" preferred over LRU "a"
        assert "b" not in table
        assert "a" in table

    def test_falls_back_to_strict_lru_without_candidates(self):
        table = FlowTable(capacity=3, prefer_victim=lambda v: False)
        for key in "abcd":
            table.insert(key, "live")
        assert "a" not in table

    def test_scan_limit_bounds_the_walk(self):
        table = FlowTable(capacity=4, prefer_victim=lambda v: v == "done", victim_scan_limit=2)
        table.insert("a", "live")
        table.insert("b", "live")
        table.insert("c", "live")
        table.insert("d", "done")  # MRU, beyond the 2-entry scan window
        table.insert("e", "live")
        assert "d" in table  # out of scan reach: strict LRU victim instead
        assert "a" not in table


class TestSlab:
    def test_slab_never_exceeds_capacity_slots(self):
        table = FlowTable(capacity=16)
        for i in range(10_000):
            table.insert(i, i)
        assert table.stats()["slots"] <= 16
        assert len(table) == 16

    def test_slab_growth_is_geometric_and_bounded(self):
        table = FlowTable(capacity=10_000)
        for i in range(200):
            table.insert(i, i)
        slots = table.stats()["slots"]
        assert 200 <= slots <= max(_INITIAL_SLOTS, 512)

    def test_eviction_counters(self):
        table = FlowTable(capacity=8)
        for i in range(20):
            table.insert(i, i)
        stats = table.stats()
        assert stats["evictions"] == 12
        assert stats["inserts"] == 20
        assert stats["size"] == 8
