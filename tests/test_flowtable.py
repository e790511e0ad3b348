"""FlowTable: slab/LRU semantics checked against a naive reference model.

The slab table replaced plain dicts across the middlebox layer, so its
contract is "exactly a bounded dict with LRU eviction": iteration order is
key-insertion order, and recency only affects *victim choice* and the
LRU-end walk.  The property test drives random op sequences through both
the slab and a dict-plus-recency-list reference and demands identical
contents, iteration order, victims and LRU order.  (The engine's flow table
is not a FlowTable; ``tests/test_engine_eviction.py`` holds its eviction
order, byte budget included, to a model of its own.)
"""

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
            capacity=capacity, on_evict=lambda k, v: evicted.append((k, v))
        )
        model = ModelLRU(capacity)
        for op, key, arg in ops:
            if op == "insert":
                table.insert(key, arg)
                model.insert(key, arg)
            elif op == "get":
                assert table.get(key, touch=arg) == model.get(key, touch=arg)
            else:
                assert table.pop(key) == model.pop(key)
            assert len(table) == len(model.data)
        assert list(table.items()) == list(model.data.items())
        assert evicted == model.evicted
        # Draining the table evicts in LRU order.
        assert [table.evict()[0] for _ in range(len(table))] == model.recency

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
            else:
                assert table.pop(key) == model.pop(key, None)
        assert list(table.items()) == list(model.items())


class TestVictimPreference:
    def test_prefers_flagged_entry_near_lru_end(self):
        table = FlowTable(capacity=3, prefer_victim=lambda v: v == "done")
        table.insert("a", "live")
        table.insert("b", "done")
        table.insert("c", "live")
        table.insert("d", "live")  # capacity hit: "b" preferred over LRU "a"
        assert table.peek("b") is None
        assert table.peek("a") == "live"

    def test_falls_back_to_strict_lru_without_candidates(self):
        table = FlowTable(capacity=3, prefer_victim=lambda v: False)
        for key in "abcd":
            table.insert(key, "live")
        assert table.peek("a") is None

    def test_scan_limit_bounds_the_walk(self):
        table = FlowTable(capacity=4, prefer_victim=lambda v: v == "done", victim_scan_limit=2)
        table.insert("a", "live")
        table.insert("b", "live")
        table.insert("c", "live")
        table.insert("d", "done")  # MRU, beyond the 2-entry scan window
        table.insert("e", "live")
        assert table.peek("d") == "done"  # out of scan reach: strict LRU victim instead
        assert table.peek("a") is None


class TestSlab:
    def test_slab_never_exceeds_capacity_slots(self):
        table = FlowTable(capacity=16)
        for i in range(10_000):
            table.insert(i, i)
        assert len(table._key) <= 16
        assert len(table) == 16

    def test_slab_growth_is_geometric_and_bounded(self):
        table = FlowTable(capacity=10_000)
        for i in range(200):
            table.insert(i, i)
        slots = len(table._key)
        assert 200 <= slots <= max(_INITIAL_SLOTS, 512)

    def test_eviction_counters(self):
        evicted = []
        table = FlowTable(capacity=8, on_evict=lambda k, v: evicted.append(k))
        for i in range(20):
            table.insert(i, i)
        assert evicted == list(range(12))
        assert len(table) == 8
