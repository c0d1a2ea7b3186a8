"""Columnar builds of derived state equal a per-cell reference.

``Database.create_index``, ``clone``, ``logical_state`` and
``physical_state`` build from whole column arrays. The reference
implementations below are the per-cell originals they replaced -- one
``read()`` / ``is_deleted()`` call per cell -- kept here, in the test
only, as the oracle. Equality is checked with element types included
(``int`` vs ``bool`` vs ``float``, ``str`` vs ``numpy.str_``), and index
mappings are compared in dict iteration order, which probe-order
tie-breaks downstream depend on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.storage.catalog import Database
from repro.storage.schema import ColumnDef, DataType, TableSchema
from repro.workloads import smallbank, tm1, tpcc


# ---------------------------------------------------------------------------
# Per-cell reference implementations.
# ---------------------------------------------------------------------------
def ref_key(table, columns, row):
    if len(columns) == 1:
        return table.read(columns[0], row)
    return tuple(table.read(c, row) for c in columns)


def ref_index_mapping(table, name, columns, unique):
    """The index as per-row inserts build it, or the duplicate error."""
    mapping = {}
    for row in range(table.n_rows):
        if table.is_deleted(row):
            continue
        key = ref_key(table, columns, row)
        if unique:
            if key in mapping:
                return f"duplicate key {key!r} in unique index {name!r}"
            mapping[key] = row
        else:
            mapping.setdefault(key, []).append(row)
    return mapping


def ref_physical_state(db):
    return {
        name: [
            (table.read_row(r), table.is_deleted(r))
            for r in range(table.n_rows)
        ]
        for name, table in db.tables.items()
    }


def ref_logical_state(db):
    state = {}
    for name, table in db.tables.items():
        rows = [
            table.read_row(r)
            for r in range(table.n_rows)
            if not table.is_deleted(r)
        ]
        rows.sort(key=repr)
        state[name] = rows
    return state


def typed(value):
    """``value`` with every element paired with its exact type."""
    if isinstance(value, dict):
        return (dict, [(typed(k), typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value), [typed(v) for v in value])
    return (type(value), value)


def built_index(db, name, table, columns, unique):
    """``create_index``'s mapping, or its duplicate-key message."""
    try:
        return dict(db.create_index(name, table, columns, unique).mapping)
    except IndexError_ as exc:
        return str(exc)


def assert_views_match_reference(db):
    assert typed(db.physical_state()) == typed(ref_physical_state(db))
    assert typed(db.logical_state()) == typed(ref_logical_state(db))


def assert_indexes_match_reference(db):
    for name, table, columns, unique in db.index_specs():
        ref = ref_index_mapping(db.table(table), name, columns, unique)
        assert typed(db.index(name).mapping) == typed(ref), name


# ---------------------------------------------------------------------------
# Generated tables.
# ---------------------------------------------------------------------------
_DTYPES = [
    DataType.INT32, DataType.INT64, DataType.FLOAT32, DataType.FLOAT64,
    DataType.BOOL, DataType.CHAR, DataType.VARCHAR,
]

#: Small domains, so unique indexes hit duplicate keys often.
_small_text = st.text(alphabet="abc", max_size=2)
_VALUES = {
    DataType.INT32: st.integers(-3, 3),
    DataType.INT64: st.integers(-3, 3),
    DataType.FLOAT32: st.sampled_from([0.0, -1.5, 0.1, 2.0]),
    DataType.FLOAT64: st.sampled_from([0.0, -0.0, 0.1, 1e300, 2.5]),
    DataType.BOOL: st.booleans(),
    DataType.CHAR: _small_text,
    DataType.VARCHAR: _small_text,
}


def _value(dtype):
    """A cell value; strings are sometimes numpy scalars, which object
    columns keep as written and ``read()`` converts."""
    if dtype in (DataType.CHAR, DataType.VARCHAR):
        return st.one_of(_small_text, _small_text.map(np.str_))
    return _VALUES[dtype]


@st.composite
def tables(draw):
    dtypes = draw(st.lists(st.sampled_from(_DTYPES), min_size=1, max_size=4))
    columns = [
        ColumnDef(f"c{i}", dt, length=4 if dt is DataType.CHAR else 0)
        for i, dt in enumerate(dtypes)
    ]
    n_rows = draw(st.integers(0, 24))
    rows = [
        tuple(draw(_VALUES[dt]) for dt in dtypes) for _ in range(n_rows)
    ]
    last = max(n_rows - 1, 0)
    deleted = draw(st.sets(st.integers(0, last))) if n_rows else set()
    names = [c.name for c in columns]
    index_columns = draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=len(names),
                 unique=True)
    )
    writes = draw(
        st.lists(
            st.tuples(
                st.integers(0, last),
                st.sampled_from(list(zip(names, dtypes))).flatmap(
                    lambda c: st.tuples(st.just(c[0]), _value(c[1]))
                ),
            ),
            max_size=8,
        )
    ) if n_rows else []
    return dict(
        columns=columns, rows=rows, deleted=sorted(deleted),
        index_columns=index_columns, unique=draw(st.booleans()),
        layout=draw(st.sampled_from(["column", "row"])),
        capacity=draw(st.integers(1, 80)), writes=writes,
    )


def make_db(case):
    db = Database(case["layout"])
    table = db.create_table(
        TableSchema("t", case["columns"]), capacity=case["capacity"]
    )
    table.append_rows(case["rows"])
    for row in case["deleted"]:
        table.mark_deleted(row)
    db.create_static_map("m", {"k": 1})
    return db


def apply_writes(db, writes):
    table = db.table("t")
    for row, (column, value) in writes:
        table.write(column, row, value)


class TestGeneratedTables:
    @given(tables())
    @settings(max_examples=150, deadline=None)
    def test_index_build_matches_reference(self, case):
        db = make_db(case)
        apply_writes(db, case["writes"])
        columns = tuple(case["index_columns"])
        ref = ref_index_mapping(db.table("t"), "ix", columns, case["unique"])
        got = built_index(db, "ix", "t", columns, case["unique"])
        assert typed(got) == typed(ref)

    @given(tables())
    @settings(max_examples=150, deadline=None)
    def test_state_views_match_reference(self, case):
        db = make_db(case)
        apply_writes(db, case["writes"])
        assert_views_match_reference(db)

    @given(tables())
    @settings(max_examples=100, deadline=None)
    def test_clone_matches_reference_and_is_independent(self, case):
        db = make_db(case)
        apply_writes(db, case["writes"])
        db.create_index("ix", "t", case["index_columns"], unique=False)
        before = typed(ref_physical_state(db))
        clone = db.clone()
        assert clone.layout == db.layout
        assert typed(ref_physical_state(clone)) == before
        assert_indexes_match_reference(clone)
        assert typed(clone.index("ix").mapping) == typed(db.index("ix").mapping)
        assert clone.static_maps == db.static_maps
        assert clone.static_maps["m"] is not db.static_maps["m"]
        # Mutating the clone leaves the original untouched.
        table = clone.table("t")
        table.append_rows(case["rows"][:2])
        for row in range(table.n_rows):
            table.mark_deleted(row)
        clone.static_maps["m"]["k"] = 2
        assert typed(ref_physical_state(db)) == before
        assert db.static_maps["m"] == {"k": 1}

    @given(tables())
    @settings(max_examples=100, deadline=None)
    def test_fork_then_writes(self, case):
        """A copy-on-write fork with writes on it: views of both sides
        and an index built on the fork still equal the reference."""
        db = make_db(case)
        before = typed(ref_physical_state(db))
        fork = db.fork()
        apply_writes(fork, case["writes"])
        table = fork.table("t")
        for row in range(0, table.n_rows, 3):  # flip some tombstones
            if table.is_deleted(row):
                table.unmark_deleted(row)
            else:
                table.mark_deleted(row)
        table.append_rows(case["rows"][-2:])
        assert typed(ref_physical_state(db)) == before
        assert_views_match_reference(db)
        assert_views_match_reference(fork)
        columns = tuple(case["index_columns"])
        ref = ref_index_mapping(fork.table("t"), "ix", columns, case["unique"])
        got = built_index(fork, "ix", "t", columns, case["unique"])
        assert typed(got) == typed(ref)


# ---------------------------------------------------------------------------
# The shipped workloads' databases.
# ---------------------------------------------------------------------------
@pytest.fixture(
    scope="module",
    params=["tm1-sf1", "tpcc-w1", "smallbank-sf1"],
)
def workload_db(request):
    build = {
        "tm1-sf1": lambda: tm1.build_database(1),
        "tpcc-w1": lambda: tpcc.build_database(1),
        "smallbank-sf1": lambda: smallbank.build_database(1),
    }[request.param]
    return build()


class TestWorkloadDatabases:
    def test_indexes_match_reference(self, workload_db):
        assert_indexes_match_reference(workload_db)

    def test_state_views_match_reference(self, workload_db):
        assert_views_match_reference(workload_db)

    def test_clone_matches_reference(self, workload_db):
        clone = workload_db.clone()
        assert typed(ref_physical_state(clone)) == typed(
            ref_physical_state(workload_db)
        )
        assert_indexes_match_reference(clone)
        for name in workload_db.indexes:
            assert typed(clone.index(name).mapping) == typed(
                workload_db.index(name).mapping
            )
