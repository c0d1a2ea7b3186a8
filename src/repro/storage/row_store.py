"""Row-oriented table: the comparison baseline of Appendix F.2.

Functionally identical to :class:`~repro.storage.column_store.ColumnTable`
(it reuses it internally for value storage); what differs is the
*device layout*: a row's columns are adjacent, so two warp lanes
reading the same column of neighbouring rows are ``row_width`` bytes
apart and do not coalesce. The whole row width also counts against
device memory -- a row store cannot leave cold columns on the host.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StorageError
from repro.storage.column_store import ColumnTable
from repro.storage.schema import TableSchema


class RowTable:
    """A table stored row-major. Same API as :class:`ColumnTable`."""

    layout = "row"

    def __init__(self, schema: TableSchema, capacity: int = 64) -> None:
        self.schema = schema
        self._inner = ColumnTable(schema, capacity)
        # Pre-compute column byte offsets within a row (4-byte aligned,
        # matching TableSchema.row_width).
        self._offsets = {}
        offset = 0
        for col in schema.columns:
            self._offsets[col.name] = offset
            offset += col.width + (-col.width % 4)
        self._stride = offset

    # -- copy-on-write forking ------------------------------------------
    def fork(self) -> "RowTable":
        """A copy-on-write twin (same semantics as ColumnTable.fork)."""
        return self._with_inner(self._inner.fork())

    def copy(self, capacity: int) -> "RowTable":
        """An independent copy (same semantics as ColumnTable.copy)."""
        return self._with_inner(self._inner.copy(capacity))

    def _with_inner(self, inner: ColumnTable) -> "RowTable":
        other = RowTable.__new__(RowTable)
        other.schema = self.schema
        other._inner = inner
        other._offsets = self._offsets
        other._stride = self._stride
        return other

    # -- delegated functional operations --------------------------------
    @property
    def n_rows(self) -> int:
        return self._inner.n_rows

    def read(self, column: str, row: int) -> Any:
        return self._inner.read(column, row)

    def write(self, column: str, row: int, value: Any) -> Any:
        return self._inner.write(column, row, value)

    def read_row(self, row: int) -> Tuple[Any, ...]:
        return self._inner.read_row(row)

    def append_rows(self, rows: Sequence[Sequence[Any]]) -> List[int]:
        return self._inner.append_rows(rows)

    def append_columns(self, columns: dict) -> None:
        self._inner.append_columns(columns)

    def mark_deleted(self, row: int) -> None:
        self._inner.mark_deleted(row)

    def unmark_deleted(self, row: int) -> None:
        self._inner.unmark_deleted(row)

    def is_deleted(self, row: int) -> bool:
        return self._inner.is_deleted(row)

    @property
    def live_row_count(self) -> int:
        return self._inner.live_row_count

    def column_array(self, column: str):
        return self._inner.column_array(column)

    def deleted_mask(self):
        return self._inner.deleted_mask()

    def materialize(
        self, columns: Sequence[str], live: Optional[np.ndarray] = None
    ) -> List[Any]:
        return self._inner.materialize(columns, live)

    # -- row-major device layout ----------------------------------------
    def cell_address(self, column: str, row: int) -> Tuple[int, int]:
        """(offset-in-table, width): strided by the full row width."""
        if column not in self._offsets:
            raise StorageError(
                f"no column {column!r} in table {self.schema.name!r}"
            )
        col = self.schema.column(column)
        return row * self._stride + self._offsets[column], col.width

    def device_bytes(self) -> int:
        """Rows are indivisible: every column rides along to the GPU."""
        return self._stride * self.n_rows

    def host_bytes(self) -> int:
        return self._stride * self.n_rows
