"""FlowTable: LRU semantics checked against a naive model and the slab table.

``FlowTable`` keeps its entries in one ``OrderedDict`` whose order is
recency: ``get`` and a replacing ``insert`` move an entry to the recent end,
eviction takes the oldest end, ``peek`` moves nothing.  The property tests
drive random op sequences through it and through

* a dict-plus-recency-list model, demanding identical contents, victims
  and LRU order (which is also ``items()`` order);
* the slab/LRU table it replaced (``tests/reference_flowtable.py``), with
  capacities and a ``prefer_victim`` predicate, demanding identical
  results, victims and LRU drain order, and identical ``items()`` order
  whenever no ``get`` reordered the table (the slab iterates in insertion
  order whatever the recency).

The engine's flow table is not a FlowTable; ``tests/test_engine_eviction.py``
holds its eviction order, byte budget included, to a model of its own.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.middlebox.flowtable import VICTIM_SCAN_LIMIT, FlowTable
from tests.reference_flowtable import FlowTable as SlabFlowTable

settings_kwargs = dict(
    deadline=None, max_examples=60, suppress_health_check=[HealthCheck.too_slow]
)


class ModelLRU:
    """The obvious O(n) reference: a dict for contents + a recency list."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.data = {}
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

    def items(self):
        return [(key, self.data[key]) for key in self.recency]


OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 15), st.integers(0, 1_000)),
        st.tuples(st.just("get"), st.integers(0, 15), st.booleans()),
        st.tuples(st.just("pop"), st.integers(0, 15), st.none()),
    ),
    max_size=80,
)

# insert, get, peek, pop and evict over 24 keys, so the 8-entry victim scan
# has room to miss.
SLAB_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), st.integers(0, 23), st.integers(0, 1_000)),
        st.tuples(st.just("get"), st.integers(0, 23), st.none()),
        st.tuples(st.just("peek"), st.integers(0, 23), st.none()),
        st.tuples(st.just("pop"), st.integers(0, 23), st.none()),
        st.tuples(st.just("evict"), st.none(), st.none()),
    ),
    max_size=120,
)


def _read(table, touch, key):
    return table.get(key) if touch else table.peek(key)


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
                assert _read(table, arg, key) == model.get(key, touch=arg)
            else:
                assert table.pop(key) == model.pop(key)
            assert len(table) == len(model.data)
        assert list(table.items()) == model.items()
        assert evicted == model.evicted
        # Draining the table evicts in LRU order.
        assert [table.evict()[0] for _ in range(len(table))] == model.recency
        assert table.evict() is None

    @settings(**settings_kwargs)
    @given(ops=OPS)
    def test_unbounded_table_is_a_plain_dict(self, ops):
        """Unbounded and read through ``peek``, the table is a plain dict;
        ``get`` only moves the key to the end."""
        table = FlowTable()
        model = {}
        for op, key, arg in ops:
            if op == "insert":
                table.insert(key, arg)
                model.pop(key, None)
                model[key] = arg
            elif op == "get":
                assert _read(table, arg, key) == model.get(key)
                if arg and key in model:
                    model[key] = model.pop(key)
            else:
                assert table.pop(key) == model.pop(key, None)
        assert list(table.items()) == list(model.items())


class TestAgainstSlabTable:
    @settings(**settings_kwargs)
    @given(
        ops=SLAB_OPS,
        capacity=st.one_of(st.none(), st.integers(min_value=1, max_value=20)),
        prefer=st.sampled_from([None, 2, 3, 7]),
    )
    def test_matches_the_slab_table(self, ops, capacity, prefer):
        prefer_victim = None if prefer is None else (lambda v: v % prefer == 0)
        victims, slab_victims = [], []
        table = FlowTable(
            capacity=capacity,
            on_evict=lambda k, v: victims.append((k, v)),
            prefer_victim=prefer_victim,
        )
        slab = SlabFlowTable(
            capacity=capacity,
            on_evict=lambda k, v: slab_victims.append((k, v)),
            prefer_victim=prefer_victim,
            victim_scan_limit=VICTIM_SCAN_LIMIT,
        )
        reordered = False
        for op, key, value in ops:
            if op == "insert":
                table.insert(key, value)
                slab.insert(key, value)
            elif op == "get":
                reordered = reordered or table.peek(key) is not None
                assert table.get(key) == slab.get(key)
            elif op == "peek":
                assert table.peek(key) == slab.peek(key)
            elif op == "pop":
                assert table.pop(key) == slab.pop(key)
            else:
                assert table.evict() == slab.evict()
            assert len(table) == len(slab)
            assert victims == slab_victims
        assert dict(table.items()) == dict(slab.items())
        if not reordered:
            assert list(table.items()) == list(slab.items())
        # Both drain in the same order: LRU, preferred victims first.
        assert [table.evict() for _ in range(len(table))] == [
            slab.evict() for _ in range(len(slab))
        ]
        assert table.evict() is None and slab.evict() is None


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
        # The flagged entry is the last one inside the scan window, then the
        # first one past it (where the strict LRU victim goes instead).
        for position, found in ((VICTIM_SCAN_LIMIT - 1, True), (VICTIM_SCAN_LIMIT, False)):
            table = FlowTable(capacity=position + 1, prefer_victim=lambda v: v == "done")
            for key in range(position):
                table.insert(key, "live")
            table.insert("done", "done")
            table.insert("next", "live")
            assert (table.peek("done") is None) is found
            assert (table.peek(0) is None) is not found


class TestSlab:
    """The store holds at most ``capacity`` entries and reports evictions."""

    def test_slab_never_exceeds_capacity_slots(self):
        table = FlowTable(capacity=16)
        for i in range(10_000):
            table.insert(i, i)
        assert len(table._entries) == len(table) == 16

    def test_eviction_counters(self):
        evicted = []
        table = FlowTable(capacity=8, on_evict=lambda k, v: evicted.append(k))
        for i in range(20):
            table.insert(i, i)
        assert evicted == list(range(12))
        assert len(table) == 8
