"""Unit tests for hash indexes, the catalog, and the store adapter."""

import numpy as np
import pytest

from repro.errors import CatalogError, IndexError_, StorageError
from repro.storage.catalog import Database, StoreAdapter
from repro.storage.index import HashIndex, MultiHashIndex
from repro.storage.schema import ColumnDef, DataType, TableSchema


class TestHashIndex:
    def test_insert_probe_remove(self):
        ix = HashIndex("i", "t", ("k",))
        ix.insert("key", 5)
        assert ix.probe("key") == 5
        assert ix.probe("other") == -1
        ix.remove("key")
        assert ix.probe("key") == -1

    def test_duplicate_key_rejected(self):
        ix = HashIndex("i", "t", ("k",))
        ix.insert("key", 1)
        with pytest.raises(IndexError_):
            ix.insert("key", 2)

    def test_remove_missing_rejected(self):
        with pytest.raises(IndexError_):
            HashIndex("i", "t", ("k",)).remove("missing")

    def test_probe_traffic_is_two_reads(self):
        ix = HashIndex("i", "t", ("k",))
        assert len(ix.probe_cost_addresses("key")) == 2

    def test_load_matches_per_pair_inserts(self):
        keys, rows = [(1, "a"), (0, "b"), (2, "a")], [0, 3, 7]
        loaded, inserted = HashIndex("i", "t", ("k",)), HashIndex("i", "t", ("k",))
        loaded.load(keys, rows)
        for key, row in zip(keys, rows):
            inserted.insert(key, row)
        assert list(loaded.items()) == list(inserted.items())

    def test_load_names_first_repeated_key(self):
        ix = HashIndex("i", "t", ("k",))
        with pytest.raises(IndexError_, match=r"duplicate key 5 in unique"):
            ix.load([4, 5, 6, 5, 4], [0, 1, 2, 3, 4])
        assert len(ix) == 0

    def test_load_into_non_empty_rejected(self):
        ix = HashIndex("i", "t", ("k",))
        ix.insert(1, 0)
        with pytest.raises(IndexError_, match="non-empty"):
            ix.load([2], [1])

    def test_device_bytes_scale_with_entries(self):
        ix = HashIndex("i", "t", ("k",))
        for k in range(100):
            ix.insert(k, k)
        assert ix.device_bytes() == int(100 * 16 * 1.5)


class TestMultiHashIndex:
    def test_rows_kept_sorted(self):
        ix = MultiHashIndex("i", "t", ("k",))
        ix.insert("key", 9)
        ix.insert("key", 3)
        ix.insert("key", 6)
        assert ix.probe_all("key") == [3, 6, 9]
        assert ix.probe("key") == 3

    def test_remove_specific_row(self):
        ix = MultiHashIndex("i", "t", ("k",))
        ix.insert("k", 1)
        ix.insert("k", 2)
        ix.remove("k", 1)
        assert ix.probe_all("k") == [2]
        ix.remove("k", 2)
        assert ix.probe_all("k") == []
        assert "k" not in ix

    def test_load_matches_per_pair_inserts(self):
        keys, rows = ["b", "a", "b", "c", "a"], [1, 2, 4, 5, 9]
        loaded = MultiHashIndex("i", "t", ("k",))
        inserted = MultiHashIndex("i", "t", ("k",))
        loaded.load(keys, rows)
        for key, row in zip(keys, rows):
            inserted.insert(key, row)
        assert list(loaded.items()) == list(inserted.items())
        assert loaded.probe_all("a") == [2, 9]

    def test_remove_missing_row_rejected(self):
        ix = MultiHashIndex("i", "t", ("k",))
        ix.insert("k", 1)
        with pytest.raises(IndexError_):
            ix.remove("k", 99)
        with pytest.raises(IndexError_):
            ix.remove("missing")


def build_db(layout: str = "column") -> Database:
    db = Database(layout)
    table = db.create_table(
        TableSchema(
            "acct",
            [
                ColumnDef("id", DataType.INT64),
                ColumnDef("owner", DataType.INT64),
                ColumnDef("balance", DataType.INT64),
            ],
            primary_key=("id",),
        ),
        capacity=8,
    )
    table.append_columns(
        {
            "id": np.array([10, 20, 30], dtype=np.int64),
            "owner": np.array([1, 1, 2], dtype=np.int64),
            "balance": np.array([100, 200, 300], dtype=np.int64),
        }
    )
    db.create_index("acct_pk", "acct", ["id"])
    db.create_index("acct_by_owner", "acct", ["owner"], unique=False)
    db.create_static_map("alias", {"first": 10})
    return db


class TestDatabase:
    def test_duplicate_table_rejected(self):
        db = build_db()
        with pytest.raises(CatalogError):
            db.create_table(
                TableSchema("acct", [ColumnDef("x", DataType.INT32)])
            )

    def test_unknown_table_and_index(self):
        db = build_db()
        with pytest.raises(CatalogError):
            db.table("missing")
        with pytest.raises(CatalogError):
            db.index("missing")

    def test_index_built_over_existing_rows(self):
        db = build_db()
        assert db.index("acct_pk").probe(20) == 1
        assert db.index("acct_by_owner").probe_all(1) == [0, 1]

    def test_bad_layout_rejected(self):
        with pytest.raises(CatalogError):
            Database("diagonal")

    def test_clone_is_independent(self):
        db = build_db()
        clone = db.clone()
        db.table("acct").write("balance", 0, 999)
        assert clone.table("acct").read("balance", 0) == 100
        assert clone.index("acct_pk").probe(10) == 0
        assert clone.static_maps["alias"]["first"] == 10

    def test_logical_state_ignores_row_order_and_tombstones(self):
        db = build_db()
        clone = db.clone()
        clone.table("acct").mark_deleted(1)
        assert db.logical_state() != clone.logical_state()
        db.table("acct").mark_deleted(1)
        assert db.logical_state() == clone.logical_state()

    def test_device_bytes_report(self):
        report = build_db().device_bytes_report()
        assert report["tables"] == 3 * 24
        assert report["indexes"] > 0
        assert report["static_maps"] == 24
        assert report["total"] == sum(
            report[k] for k in ("tables", "indexes", "static_maps")
        )


@pytest.fixture(params=["column", "row"])
def layout(request):
    return request.param


def acct_with(layout, ids, owners, deleted=()):
    """An ``acct`` table (no indexes yet) with the given rows."""
    db = Database(layout)
    table = db.create_table(
        TableSchema(
            "acct",
            [
                ColumnDef("id", DataType.INT64),
                ColumnDef("owner", DataType.CHAR, length=4),
            ],
        ),
        capacity=4,
    )
    table.append_rows(list(zip(ids, owners)))
    for row in deleted:
        table.mark_deleted(row)
    return db


class TestColumnarIndexBuild:
    def test_duplicate_key_names_the_key(self, layout):
        db = acct_with(layout, [3, 7, 3], ["a", "b", "c"])
        with pytest.raises(IndexError_, match=r"duplicate key 3 in unique index 'pk'"):
            db.create_index("pk", "acct", ["id"])
        assert "pk" not in db.indexes

    def test_duplicate_composite_key_named(self, layout):
        db = acct_with(layout, [1, 2, 1], ["x", "y", "x"])
        with pytest.raises(IndexError_, match=r"duplicate key \(1, 'x'\)"):
            db.create_index("pk", "acct", ["id", "owner"])

    def test_tombstoned_rows_skipped(self, layout):
        db = acct_with(layout, [3, 7, 3, 9], ["a", "b", "a", "b"], deleted=[0])
        pk = db.create_index("pk", "acct", ["id"])
        by_owner = db.create_index("by_owner", "acct", ["owner"], unique=False)
        assert dict(pk.items()) == {7: 1, 3: 2, 9: 3}
        assert list(pk.items())[0] == (7, 1)  # row order, tombstone gone
        assert by_owner.probe_all("a") == [2]
        assert by_owner.probe_all("b") == [1, 3]

    def test_multi_index_rows_ascend(self, layout):
        owners = ["b", "a", "b", "a", "c", "b", "a"]
        db = acct_with(layout, list(range(7)), owners, deleted=[3])
        ix = db.create_index("by_owner", "acct", ["owner"], unique=False)
        assert list(ix.mapping) == ["b", "a", "c"]  # first-seen order
        assert ix.probe_all("a") == [1, 6]
        assert ix.probe_all("b") == [0, 2, 5]
        for rows in ix.mapping.values():
            assert rows == sorted(rows)

    def test_keys_are_python_scalars(self, layout):
        db = acct_with(layout, [3, 7], ["a", "b"])
        db.table("acct").write("owner", 1, np.str_("z"))
        ix = db.create_index("by_owner", "acct", ["owner", "id"], unique=False)
        assert [tuple(map(type, key)) for key in ix.mapping] == [(str, int)] * 2


class TestCloneIsolation:
    def test_original_changes_do_not_reach_clone(self, layout):
        db = build_db(layout)
        clone = db.clone()
        adapter = StoreAdapter(db)
        adapter.write("acct", "balance", 0, 999)
        adapter.delete("acct", 1)
        adapter.insert("acct", (40, 2, 400))
        db.static_maps["alias"]["second"] = 20
        assert clone.table("acct").read("balance", 0) == 100
        assert not clone.table("acct").is_deleted(1)
        assert clone.table("acct").n_rows == 3
        assert clone.index("acct_pk").probe(20) == 1
        assert clone.index("acct_pk").probe(40) == -1
        assert clone.index("acct_by_owner").probe_all(2) == [2]
        assert "second" not in clone.static_maps["alias"]

    def test_clone_changes_do_not_reach_original(self, layout):
        db = build_db(layout)
        clone = db.clone()
        adapter = StoreAdapter(clone)
        adapter.write("acct", "balance", 2, -1)
        adapter.delete("acct", 0)
        adapter.insert("acct", (50, 1, 500))
        clone.static_maps["alias"]["first"] = 99
        assert db.table("acct").read("balance", 2) == 300
        assert not db.table("acct").is_deleted(0)
        assert db.table("acct").n_rows == 3
        assert db.index("acct_pk").probe(10) == 0
        assert db.index("acct_pk").probe(50) == -1
        assert db.index("acct_by_owner").probe_all(1) == [0, 1]
        assert db.static_maps["alias"]["first"] == 10

    def test_clone_keeps_tombstones_layout_and_capacity(self, layout):
        db = build_db(layout)
        db.table("acct").mark_deleted(1)
        clone = db.clone()
        assert clone.layout == layout
        assert clone.physical_state() == db.physical_state()
        assert clone.index("acct_pk").probe(20) == -1
        # Room for 64 rows before the first regrowth, as before.
        assert len(clone.table("acct").deleted_mask()) == 3
        assert clone.table("acct").column_array("id").base.shape == (64,)


class TestStoreAdapter:
    def test_read_write_through(self):
        adapter = StoreAdapter(build_db())
        assert adapter.read("acct", "balance", 0) == 100
        old = adapter.write("acct", "balance", 0, 150)
        assert old == 100

    def test_probe_unique_multi_and_static(self):
        adapter = StoreAdapter(build_db())
        assert adapter.probe("acct_pk", 30) == 2
        assert adapter.probe("acct_by_owner", 1) == (0, 1)
        assert adapter.probe("alias", "first") == 10
        assert adapter.probe("alias", "nope") == -1

    def test_insert_visible_and_indexed_immediately(self):
        adapter = StoreAdapter(build_db())
        row = adapter.insert("acct", (40, 2, 400))
        assert adapter.read("acct", "balance", row) == 400
        assert adapter.probe("acct_pk", 40) == row
        assert adapter.probe("acct_by_owner", 2) == (2, row)

    def test_cancel_insert_rolls_back(self):
        adapter = StoreAdapter(build_db())
        row = adapter.insert("acct", (40, 2, 400))
        adapter.cancel_insert("acct", row)
        assert adapter.probe("acct_pk", 40) == -1
        assert adapter.db.table("acct").is_deleted(row)

    def test_delete_and_cancel_delete(self):
        adapter = StoreAdapter(build_db())
        adapter.delete("acct", 1)
        assert adapter.probe("acct_pk", 20) == -1
        adapter.cancel_delete("acct", 1)
        assert adapter.probe("acct_pk", 20) == 1
        assert not adapter.db.table("acct").is_deleted(1)

    def test_double_delete_rejected(self):
        adapter = StoreAdapter(build_db())
        adapter.delete("acct", 1)
        with pytest.raises(StorageError):
            adapter.delete("acct", 1)

    def test_insert_arity_checked(self):
        adapter = StoreAdapter(build_db())
        with pytest.raises(StorageError):
            adapter.insert("acct", (1, 2))

    def test_journal_tracks_until_apply(self):
        adapter = StoreAdapter(build_db())
        adapter.insert("acct", (40, 2, 400))
        adapter.delete("acct", 0)
        assert adapter.journal.pending_count == 2
        assert adapter.journal.pending_by_table() == {"acct": (1, 1)}
        adapter.apply_batch()
        assert adapter.journal.pending_count == 0

    def test_addresses_disjoint_between_tables(self):
        db = build_db()
        db.create_table(
            TableSchema("other", [ColumnDef("x", DataType.INT64)]),
            capacity=4,
        ).append_rows([(1,)])
        adapter = StoreAdapter(db)
        a, _ = adapter.address_of("acct", "id", 0)
        b, _ = adapter.address_of("other", "x", 0)
        assert abs(a - b) >= 1 << 38

    def test_row_width_depends_on_layout(self):
        col = StoreAdapter(build_db("column"))
        row = StoreAdapter(build_db("row"))
        assert col.row_width("acct") == 24
        assert row.row_width("acct") == 24  # all-int64 table: no padding
