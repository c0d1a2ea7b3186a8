"""Unit tests for the column and row table implementations."""

import numpy as np
import pytest

from repro.errors import StorageError
from repro.storage.column_store import ColumnTable
from repro.storage.row_store import RowTable
from repro.storage.schema import ColumnDef, DataType, TableSchema


def make_schema() -> TableSchema:
    return TableSchema(
        "t",
        [
            ColumnDef("id", DataType.INT64),
            ColumnDef("value", DataType.FLOAT64),
            ColumnDef("name", DataType.CHAR, length=8, device_resident=False),
        ],
        primary_key=("id",),
    )


@pytest.fixture(params=[ColumnTable, RowTable])
def table(request):
    return request.param(make_schema(), capacity=4)


class TestCommonBehaviour:
    def test_append_and_read_rows(self, table):
        ids = table.append_rows([(1, 1.5, "one"), (2, 2.5, "two")])
        assert ids == [0, 1]
        assert table.n_rows == 2
        assert table.read("value", 1) == 2.5
        assert table.read_row(0) == (1, 1.5, "one")

    def test_write_returns_old_value(self, table):
        table.append_rows([(1, 1.5, "one")])
        assert table.write("value", 0, 9.5) == 1.5
        assert table.read("value", 0) == 9.5

    def test_capacity_growth(self, table):
        rows = [(i, float(i), f"n{i}") for i in range(100)]
        table.append_rows(rows)
        assert table.n_rows == 100
        assert table.read("id", 99) == 99

    def test_out_of_range_read_raises(self, table):
        with pytest.raises(StorageError):
            table.read("id", 0)

    def test_unknown_column_raises(self, table):
        table.append_rows([(1, 1.0, "x")])
        with pytest.raises(StorageError):
            table.read("missing", 0)
        with pytest.raises(StorageError):
            table.write("missing", 0, 1)

    def test_wrong_arity_rejected(self, table):
        with pytest.raises(StorageError):
            table.append_rows([(1, 2.0)])

    def test_tombstones(self, table):
        table.append_rows([(1, 1.0, "a"), (2, 2.0, "b")])
        table.mark_deleted(0)
        assert table.is_deleted(0)
        assert not table.is_deleted(1)
        assert table.live_row_count == 1
        table.unmark_deleted(0)
        assert table.live_row_count == 2

    def test_bulk_load_columns(self, table):
        table.append_columns(
            {
                "id": np.arange(5, dtype=np.int64),
                "value": np.linspace(0, 1, 5),
                "name": np.array(["a", "b", "c", "d", "e"], dtype=object),
            }
        )
        assert table.n_rows == 5
        assert table.read("name", 3) == "d"

    def test_bulk_loads_grow_tombstones_geometrically(self, table):
        """Small batches into a full table regrow the tombstone bitmap
        1.5x at a time (not to the exact size, which recopies it on
        every batch) and keep the tombstones already set."""
        capacities = set()
        for i in range(200):
            table.append_columns({"id": [i], "value": [0.0], "name": ["x"]})
            if i == 2:
                table.mark_deleted(1)
            capacities.add(len(table.deleted_mask().base))
        assert len(capacities) <= 6
        assert table.deleted_mask().nonzero()[0].tolist() == [1]

    def test_bulk_load_validates_columns(self, table):
        with pytest.raises(StorageError):
            table.append_columns({"id": np.arange(3)})

    def test_bulk_load_validates_lengths(self, table):
        with pytest.raises(StorageError):
            table.append_columns(
                {
                    "id": np.arange(3),
                    "value": np.arange(4, dtype=float),
                    "name": np.array(["a", "b", "c"], dtype=object),
                }
            )

    def test_column_array_view(self, table):
        table.append_rows([(i, float(i), "x") for i in range(4)])
        assert table.column_array("id").tolist() == [0, 1, 2, 3]


class TestLayoutDifferences:
    def test_column_store_addresses_contiguous_within_column(self):
        table = ColumnTable(make_schema(), capacity=8)
        table.append_rows([(i, float(i), "x") for i in range(8)])
        a0, width = table.cell_address("value", 0)
        a1, _ = table.cell_address("value", 1)
        assert a1 - a0 == width

    def test_row_store_addresses_strided_by_row_width(self):
        table = RowTable(make_schema(), capacity=8)
        table.append_rows([(i, float(i), "x") for i in range(8)])
        a0, _ = table.cell_address("value", 0)
        a1, _ = table.cell_address("value", 1)
        assert a1 - a0 == make_schema().row_width

    def test_column_store_device_bytes_exclude_host_columns(self):
        n = 16
        col = ColumnTable(make_schema(), capacity=n)
        row = RowTable(make_schema(), capacity=n)
        rows = [(i, float(i), "x" * 8) for i in range(n)]
        col.append_rows(rows)
        row.append_rows(rows)
        # Column store ships id+value only (16 B/row); the row store
        # cannot split rows (24 B/row) -- the Appendix F.2 saving.
        assert col.device_bytes() == n * 16
        assert row.device_bytes() == n * 24
        assert col.device_bytes() < row.device_bytes()

    def test_host_bytes_include_everything(self):
        col = ColumnTable(make_schema(), capacity=4)
        col.append_rows([(1, 1.0, "abcdefgh")])
        assert col.host_bytes() == 24
