"""The columnar loaders build exactly what the per-row loaders built.

TM1, TPC-C and SmallBank take their random draws in bulk: whole
arrays where the draw sequence is fixed, a :class:`StreamDraws` replay
where it depends on earlier draws. The per-row builders they replaced
-- one scalar ``rng`` call per value -- are kept below, in the test
only, as the reference. Every generated figure depends on the loaded
data, so the databases must be identical: table by table the raw
column cells with their exact types, the column dtypes and row counts,
``physical_state`` and ``logical_state``, and every index mapping and
static map compared in dict iteration order.
"""

import string
from typing import List

import numpy as np
import pytest

from repro.storage.catalog import Database
from repro.storage.schema import ColumnDef, DataType, TableSchema
from repro.workloads import smallbank, tm1, tpcc
from repro.workloads.base import (
    make_rng,
    padded_number_string,
    tpcc_last_name,
)
from repro.workloads.smallbank import (
    ACCOUNT,
    ACCOUNTS_PER_SF,
    CHECKING,
    INITIAL_CHECKING,
    INITIAL_SAVINGS,
    SAVINGS,
)
from repro.workloads.tm1 import (
    _START_TIMES,
    ACCESS_INFO,
    CALL_FORWARDING,
    SPECIAL_FACILITY,
    SUB_NBR_WIDTH,
    SUBSCRIBER,
    SUBSCRIBERS_PER_SF,
)
from repro.workloads.tpcc import (
    CUSTOMER,
    DEFAULT_CUSTOMERS_PER_DISTRICT,
    DEFAULT_INIT_ORDERS_PER_DISTRICT,
    DEFAULT_ITEMS,
    DISTRICT,
    DISTRICTS,
    HISTORY,
    ITEM,
    NEW_ORDER,
    ORDER_LINE,
    ORDERS,
    STOCK,
    WAREHOUSE,
)


def typed(value):
    """``value`` with every element paired with its exact type."""
    if isinstance(value, dict):
        return (dict, [(typed(k), typed(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value), [typed(v) for v in value])
    return (type(value), value)


def assert_same_database(db, ref):
    assert list(db.tables) == list(ref.tables)
    for name, ref_table in ref.tables.items():
        table = db.tables[name]
        assert table.n_rows == ref_table.n_rows, name
        for column in ref_table.schema.column_names:
            got, want = table.column_array(column), ref_table.column_array(column)
            assert got.dtype == want.dtype, (name, column)
            assert typed(got.tolist()) == typed(want.tolist()), (name, column)
    assert typed(db.physical_state()) == typed(ref.physical_state())
    assert typed(db.logical_state()) == typed(ref.logical_state())
    assert db.index_specs() == ref.index_specs()
    for name, index in ref.indexes.items():
        assert typed(db.indexes[name]._map) == typed(index._map), name
    assert typed(db.static_maps) == typed(ref.static_maps)


# ---------------------------------------------------------------------------
# Per-row reference builders: one scalar rng call per generated value.
# ---------------------------------------------------------------------------
def random_string(rng: np.random.Generator, length: int) -> str:
    """Uppercase filler string of exactly ``length`` characters."""
    letters = np.array(list(string.ascii_uppercase))
    return "".join(letters[rng.integers(0, 26, size=length)])


def ref_tm1_database(
    scale_factor: int,
    subscribers_per_sf: int = SUBSCRIBERS_PER_SF,
    layout: str = "column",
    seed: int = 42,
) -> Database:
    """Populate the four TM1 tables for ``scale_factor``."""
    if scale_factor < 1:
        raise ValueError("scale_factor must be >= 1")
    rng = make_rng(seed)
    n_subs = scale_factor * subscribers_per_sf
    db = Database(layout)

    # -- SUBSCRIBER: full NDBB column set -------------------------------
    # Only the columns the registered transactions touch live on the
    # device; the rest stay host-side for result construction
    # (Appendix E: "read-only columns are stored in the main memory",
    # and only necessary columns are copied -- the source of the
    # column store's device-memory saving in Appendix F.2).
    device_cols = {"s_id", "bit_1", "hex_5", "byte2_9",
                   "msc_location", "vlr_location"}

    def sub_col(name: str, dtype: DataType) -> ColumnDef:
        return ColumnDef(name, dtype, device_resident=name in device_cols)

    sub_cols: List[ColumnDef] = [
        ColumnDef("s_id", DataType.INT64),
        ColumnDef("sub_nbr", DataType.CHAR, length=SUB_NBR_WIDTH,
                  device_resident=False),
    ]
    sub_cols += [sub_col(f"bit_{i}", DataType.BOOL) for i in range(1, 11)]
    sub_cols += [sub_col(f"hex_{i}", DataType.INT32) for i in range(1, 11)]
    sub_cols += [sub_col(f"byte2_{i}", DataType.INT32) for i in range(1, 11)]
    sub_cols += [
        ColumnDef("msc_location", DataType.INT64),
        ColumnDef("vlr_location", DataType.INT64),
    ]
    subscriber = db.create_table(
        TableSchema(
            SUBSCRIBER, sub_cols, primary_key=("s_id",), partition_key="s_id"
        ),
        capacity=n_subs,
    )
    s_ids = np.arange(n_subs, dtype=np.int64)
    columns = {
        "s_id": s_ids,
        "sub_nbr": np.array(
            [padded_number_string(int(s), SUB_NBR_WIDTH) for s in s_ids],
            dtype=object,
        ),
        "msc_location": rng.integers(1, 2**31, size=n_subs),
        "vlr_location": rng.integers(1, 2**31, size=n_subs),
    }
    for i in range(1, 11):
        columns[f"bit_{i}"] = rng.integers(0, 2, size=n_subs).astype(bool)
        columns[f"hex_{i}"] = rng.integers(0, 16, size=n_subs).astype(np.int32)
        columns[f"byte2_{i}"] = rng.integers(0, 256, size=n_subs).astype(np.int32)
    subscriber.append_columns(columns)

    # -- ACCESS_INFO: 1..4 types per subscriber, each present ~62.5 % ---
    ai_rows = {"s_id": [], "ai_type": [], "data1": [], "data2": [],
               "data3": [], "data4": []}
    present_ai = rng.random((n_subs, 4)) < 0.625
    for s in range(n_subs):
        for ai_type in range(1, 5):
            if present_ai[s, ai_type - 1]:
                ai_rows["s_id"].append(s)
                ai_rows["ai_type"].append(ai_type)
                ai_rows["data1"].append(int(rng.integers(0, 256)))
                ai_rows["data2"].append(int(rng.integers(0, 256)))
                ai_rows["data3"].append(int(rng.integers(0, 4096)))
                ai_rows["data4"].append(int(rng.integers(0, 2**20)))
    access_info = db.create_table(
        TableSchema(
            ACCESS_INFO,
            [
                ColumnDef("s_id", DataType.INT64),
                ColumnDef("ai_type", DataType.INT32),
                ColumnDef("data1", DataType.INT32),
                ColumnDef("data2", DataType.INT32),
                ColumnDef("data3", DataType.INT32),
                ColumnDef("data4", DataType.INT32),
            ],
            primary_key=("s_id", "ai_type"),
            partition_key="s_id",
        ),
        capacity=max(64, len(ai_rows["s_id"])),
    )
    access_info.append_columns({k: np.asarray(v) for k, v in ai_rows.items()})

    # -- SPECIAL_FACILITY + CALL_FORWARDING ------------------------------
    sf_rows = {"s_id": [], "sf_type": [], "is_active": [], "error_cntrl": [],
               "data_a": [], "data_b": []}
    cf_rows = {"s_id": [], "sf_type": [], "start_time": [], "end_time": [],
               "numberx": []}
    present_sf = rng.random((n_subs, 4)) < 0.625
    active_sf = rng.random((n_subs, 4)) < 0.85
    for s in range(n_subs):
        for sf_type in range(1, 5):
            if not present_sf[s, sf_type - 1]:
                continue
            sf_rows["s_id"].append(s)
            sf_rows["sf_type"].append(sf_type)
            sf_rows["is_active"].append(bool(active_sf[s, sf_type - 1]))
            sf_rows["error_cntrl"].append(int(rng.integers(0, 256)))
            sf_rows["data_a"].append(int(rng.integers(0, 256)))
            sf_rows["data_b"].append(int(rng.integers(0, 256)))
            for start in _START_TIMES:
                if rng.random() < 0.5:
                    cf_rows["s_id"].append(s)
                    cf_rows["sf_type"].append(sf_type)
                    cf_rows["start_time"].append(start)
                    cf_rows["end_time"].append(start + int(rng.integers(1, 9)))
                    cf_rows["numberx"].append(
                        padded_number_string(int(rng.integers(0, 10**9)),
                                             SUB_NBR_WIDTH)
                    )
    special_facility = db.create_table(
        TableSchema(
            SPECIAL_FACILITY,
            [
                ColumnDef("s_id", DataType.INT64),
                ColumnDef("sf_type", DataType.INT32),
                ColumnDef("is_active", DataType.BOOL),
                ColumnDef("error_cntrl", DataType.INT32),
                ColumnDef("data_a", DataType.INT32),
                ColumnDef("data_b", DataType.INT32),
            ],
            primary_key=("s_id", "sf_type"),
            partition_key="s_id",
        ),
        capacity=max(64, len(sf_rows["s_id"])),
    )
    special_facility.append_columns({k: np.asarray(v) for k, v in sf_rows.items()})

    call_forwarding = db.create_table(
        TableSchema(
            CALL_FORWARDING,
            [
                ColumnDef("s_id", DataType.INT64),
                ColumnDef("sf_type", DataType.INT32),
                ColumnDef("start_time", DataType.INT32),
                ColumnDef("end_time", DataType.INT32),
                ColumnDef("numberx", DataType.CHAR, length=SUB_NBR_WIDTH),
            ],
            primary_key=("s_id", "sf_type", "start_time"),
            partition_key="s_id",
        ),
        capacity=max(64, len(cf_rows["s_id"])),
    )
    call_forwarding.append_columns(
        {k: np.asarray(v, dtype=object if k == "numberx" else None)
         for k, v in cf_rows.items()}
    )

    # -- indexes + the static sub_nbr -> s_id map ------------------------
    db.create_index("subscriber_pk", SUBSCRIBER, ["s_id"])
    db.create_index("access_info_pk", ACCESS_INFO, ["s_id", "ai_type"])
    db.create_index("special_facility_pk", SPECIAL_FACILITY,
                    ["s_id", "sf_type"])
    db.create_index("call_forwarding_pk", CALL_FORWARDING,
                    ["s_id", "sf_type", "start_time"])
    db.create_index("call_forwarding_by_sf", CALL_FORWARDING,
                    ["s_id", "sf_type"], unique=False)
    db.create_static_map(
        "sub_nbr_map",
        {padded_number_string(int(s), SUB_NBR_WIDTH): int(s) for s in s_ids},
    )
    return db


def ref_tpcc_database(
    scale_factor: int,
    customers_per_district: int = DEFAULT_CUSTOMERS_PER_DISTRICT,
    n_items: int = DEFAULT_ITEMS,
    init_orders_per_district: int = DEFAULT_INIT_ORDERS_PER_DISTRICT,
    layout: str = "column",
    seed: int = 42,
) -> Database:
    """Populate the nine TPC-C tables for ``scale_factor`` warehouses."""
    if scale_factor < 1:
        raise ValueError("scale_factor must be >= 1")
    rng = make_rng(seed)
    n_w = scale_factor
    db = Database(layout)

    warehouse = db.create_table(
        TableSchema(
            WAREHOUSE,
            [
                ColumnDef("w_id", DataType.INT64),
                ColumnDef("w_name", DataType.CHAR, length=10,
                          device_resident=False),
                ColumnDef("w_tax", DataType.FLOAT64),
                ColumnDef("w_ytd", DataType.FLOAT64),
            ],
            primary_key=("w_id",),
            partition_key="w_id",
        ),
        capacity=n_w,
    )
    warehouse.append_columns(
        {
            "w_id": np.arange(n_w, dtype=np.int64),
            "w_name": np.array([f"WH{w:06d}" for w in range(n_w)], dtype=object),
            "w_tax": rng.uniform(0.0, 0.2, size=n_w),
            "w_ytd": np.full(n_w, 300_000.0),
        }
    )

    n_d = n_w * DISTRICTS
    district = db.create_table(
        TableSchema(
            DISTRICT,
            [
                ColumnDef("d_w_id", DataType.INT64),
                ColumnDef("d_id", DataType.INT64),
                ColumnDef("d_tax", DataType.FLOAT64),
                ColumnDef("d_ytd", DataType.FLOAT64),
                ColumnDef("d_next_o_id", DataType.INT64),
            ],
            primary_key=("d_w_id", "d_id"),
            partition_key="d_w_id",
        ),
        capacity=n_d,
    )
    d_idx = np.arange(n_d, dtype=np.int64)
    district.append_columns(
        {
            "d_w_id": d_idx // DISTRICTS,
            "d_id": d_idx % DISTRICTS + 1,
            "d_tax": rng.uniform(0.0, 0.2, size=n_d),
            "d_ytd": np.full(n_d, 30_000.0),
            "d_next_o_id": np.full(n_d, init_orders_per_district,
                                   dtype=np.int64),
        }
    )

    n_c = n_d * customers_per_district
    customer = db.create_table(
        TableSchema(
            CUSTOMER,
            [
                ColumnDef("c_w_id", DataType.INT64),
                ColumnDef("c_d_id", DataType.INT64),
                ColumnDef("c_id", DataType.INT64),
                ColumnDef("c_last", DataType.CHAR, length=16,
                          device_resident=False),
                ColumnDef("c_credit", DataType.CHAR, length=2,
                          device_resident=False),
                ColumnDef("c_discount", DataType.FLOAT64),
                ColumnDef("c_balance", DataType.FLOAT64),
                ColumnDef("c_ytd_payment", DataType.FLOAT64),
                ColumnDef("c_payment_cnt", DataType.INT64),
                ColumnDef("c_delivery_cnt", DataType.INT64),
            ],
            primary_key=("c_w_id", "c_d_id", "c_id"),
            partition_key="c_w_id",
        ),
        capacity=n_c,
    )
    c_idx = np.arange(n_c, dtype=np.int64)
    c_wd = c_idx // customers_per_district
    c_local = c_idx % customers_per_district
    customer.append_columns(
        {
            "c_w_id": c_wd // DISTRICTS,
            "c_d_id": c_wd % DISTRICTS + 1,
            "c_id": c_local,
            "c_last": np.array(
                [tpcc_last_name(int(c) % 1000) for c in c_local], dtype=object
            ),
            "c_credit": np.array(
                ["GC" if v < 0.9 else "BC" for v in rng.random(n_c)],
                dtype=object,
            ),
            "c_discount": rng.uniform(0.0, 0.5, size=n_c),
            "c_balance": np.full(n_c, -10.0),
            "c_ytd_payment": np.full(n_c, 10.0),
            "c_payment_cnt": np.ones(n_c, dtype=np.int64),
            "c_delivery_cnt": np.zeros(n_c, dtype=np.int64),
        }
    )

    db.create_table(
        TableSchema(
            HISTORY,
            [
                ColumnDef("h_c_w_id", DataType.INT64),
                ColumnDef("h_c_d_id", DataType.INT64),
                ColumnDef("h_c_id", DataType.INT64),
                ColumnDef("h_w_id", DataType.INT64),
                ColumnDef("h_d_id", DataType.INT64),
                ColumnDef("h_amount", DataType.FLOAT64),
            ],
        ),
        capacity=max(64, n_c // 2),
    )

    item = db.create_table(
        TableSchema(
            ITEM,
            [
                ColumnDef("i_id", DataType.INT64),
                ColumnDef("i_name", DataType.CHAR, length=24,
                          device_resident=False),
                ColumnDef("i_price", DataType.FLOAT64),
            ],
            primary_key=("i_id",),
        ),
        capacity=n_items,
    )
    item.append_columns(
        {
            "i_id": np.arange(n_items, dtype=np.int64),
            "i_name": np.array(
                [f"ITEM{i:08d}" for i in range(n_items)], dtype=object
            ),
            "i_price": rng.uniform(1.0, 100.0, size=n_items),
        }
    )

    n_s = n_w * n_items
    stock = db.create_table(
        TableSchema(
            STOCK,
            [
                ColumnDef("s_w_id", DataType.INT64),
                ColumnDef("s_i_id", DataType.INT64),
                ColumnDef("s_quantity", DataType.INT64),
                ColumnDef("s_ytd", DataType.INT64),
                ColumnDef("s_order_cnt", DataType.INT64),
                ColumnDef("s_remote_cnt", DataType.INT64),
            ],
            primary_key=("s_w_id", "s_i_id"),
            partition_key="s_w_id",
        ),
        capacity=n_s,
    )
    s_idx = np.arange(n_s, dtype=np.int64)
    stock.append_columns(
        {
            "s_w_id": s_idx // n_items,
            "s_i_id": s_idx % n_items,
            "s_quantity": rng.integers(10, 101, size=n_s),
            "s_ytd": np.zeros(n_s, dtype=np.int64),
            "s_order_cnt": np.zeros(n_s, dtype=np.int64),
            "s_remote_cnt": np.zeros(n_s, dtype=np.int64),
        }
    )

    # Initial orders: all delivered except the newest third.
    orders_cols = {
        "o_w_id": [], "o_d_id": [], "o_id": [], "o_c_id": [],
        "o_carrier_id": [], "o_ol_cnt": [],
    }
    no_cols = {"no_w_id": [], "no_d_id": [], "no_o_id": []}
    ol_cols = {
        "ol_w_id": [], "ol_d_id": [], "ol_o_id": [], "ol_number": [],
        "ol_i_id": [], "ol_supply_w_id": [], "ol_quantity": [],
        "ol_amount": [], "ol_delivery_d": [],
    }
    undelivered_from = init_orders_per_district * 2 // 3
    for w in range(n_w):
        for d in range(1, DISTRICTS + 1):
            customer_perm = rng.permutation(customers_per_district)
            for o_id in range(init_orders_per_district):
                ol_cnt = int(rng.integers(5, 16))
                delivered = o_id < undelivered_from
                orders_cols["o_w_id"].append(w)
                orders_cols["o_d_id"].append(d)
                orders_cols["o_id"].append(o_id)
                orders_cols["o_c_id"].append(
                    int(customer_perm[o_id % customers_per_district])
                )
                orders_cols["o_carrier_id"].append(
                    int(rng.integers(1, 11)) if delivered else 0
                )
                orders_cols["o_ol_cnt"].append(ol_cnt)
                if not delivered:
                    no_cols["no_w_id"].append(w)
                    no_cols["no_d_id"].append(d)
                    no_cols["no_o_id"].append(o_id)
                for line in range(1, ol_cnt + 1):
                    ol_cols["ol_w_id"].append(w)
                    ol_cols["ol_d_id"].append(d)
                    ol_cols["ol_o_id"].append(o_id)
                    ol_cols["ol_number"].append(line)
                    ol_cols["ol_i_id"].append(int(rng.integers(0, n_items)))
                    ol_cols["ol_supply_w_id"].append(w)
                    ol_cols["ol_quantity"].append(5)
                    ol_cols["ol_amount"].append(
                        0.0 if delivered else float(rng.uniform(0.01, 9_999.99))
                    )
                    ol_cols["ol_delivery_d"].append(1 if delivered else 0)

    orders = db.create_table(
        TableSchema(
            ORDERS,
            [
                ColumnDef("o_w_id", DataType.INT64),
                ColumnDef("o_d_id", DataType.INT64),
                ColumnDef("o_id", DataType.INT64),
                ColumnDef("o_c_id", DataType.INT64),
                ColumnDef("o_carrier_id", DataType.INT64),
                ColumnDef("o_ol_cnt", DataType.INT64),
            ],
            primary_key=("o_w_id", "o_d_id", "o_id"),
            partition_key="o_w_id",
        ),
        capacity=max(64, len(orders_cols["o_id"])),
    )
    orders.append_columns({k: np.asarray(v) for k, v in orders_cols.items()})

    new_order = db.create_table(
        TableSchema(
            NEW_ORDER,
            [
                ColumnDef("no_w_id", DataType.INT64),
                ColumnDef("no_d_id", DataType.INT64),
                ColumnDef("no_o_id", DataType.INT64),
            ],
            primary_key=("no_w_id", "no_d_id", "no_o_id"),
            partition_key="no_w_id",
        ),
        capacity=max(64, len(no_cols["no_o_id"])),
    )
    new_order.append_columns({k: np.asarray(v) for k, v in no_cols.items()})

    order_line = db.create_table(
        TableSchema(
            ORDER_LINE,
            [
                ColumnDef("ol_w_id", DataType.INT64),
                ColumnDef("ol_d_id", DataType.INT64),
                ColumnDef("ol_o_id", DataType.INT64),
                ColumnDef("ol_number", DataType.INT64),
                ColumnDef("ol_i_id", DataType.INT64),
                ColumnDef("ol_supply_w_id", DataType.INT64),
                ColumnDef("ol_quantity", DataType.INT64),
                ColumnDef("ol_amount", DataType.FLOAT64),
                ColumnDef("ol_delivery_d", DataType.INT64),
            ],
            primary_key=("ol_w_id", "ol_d_id", "ol_o_id", "ol_number"),
            partition_key="ol_w_id",
        ),
        capacity=max(64, len(ol_cols["ol_o_id"])),
    )
    order_line.append_columns({k: np.asarray(v) for k, v in ol_cols.items()})

    db.create_index("warehouse_pk", WAREHOUSE, ["w_id"])
    db.create_index("district_pk", DISTRICT, ["d_w_id", "d_id"])
    db.create_index("customer_pk", CUSTOMER, ["c_w_id", "c_d_id", "c_id"])
    db.create_index(
        "customer_name", CUSTOMER, ["c_w_id", "c_d_id", "c_last"], unique=False
    )
    db.create_index("item_pk", ITEM, ["i_id"])
    db.create_index("stock_pk", STOCK, ["s_w_id", "s_i_id"])
    db.create_index("orders_pk", ORDERS, ["o_w_id", "o_d_id", "o_id"])
    db.create_index(
        "orders_by_customer", ORDERS, ["o_w_id", "o_d_id", "o_c_id"],
        unique=False,
    )
    db.create_index(
        "new_order_by_district", NEW_ORDER, ["no_w_id", "no_d_id"],
        unique=False,
    )
    db.create_index(
        "order_line_by_order", ORDER_LINE, ["ol_w_id", "ol_d_id", "ol_o_id"],
        unique=False,
    )
    return db


def ref_smallbank_database(
    scale_factor: int,
    accounts_per_sf: int = ACCOUNTS_PER_SF,
    layout: str = "column",
    seed: int = 42,
) -> Database:
    """Populate the three SmallBank tables for ``scale_factor``."""
    if scale_factor < 1:
        raise ValueError("scale_factor must be >= 1")
    rng = make_rng(seed)
    n = scale_factor * accounts_per_sf
    db = Database(layout)
    custids = np.arange(n, dtype=np.int64)

    account = db.create_table(
        TableSchema(
            ACCOUNT,
            [
                ColumnDef("custid", DataType.INT64),
                ColumnDef("name", DataType.CHAR, length=24,
                          device_resident=False),
            ],
            primary_key=("custid",),
            partition_key="custid",
        ),
        capacity=n,
    )
    account.append_columns(
        {
            "custid": custids,
            "name": np.array(
                [random_string(rng, 12) for _ in range(n)], dtype=object
            ),
        }
    )

    savings = db.create_table(
        TableSchema(
            SAVINGS,
            [
                ColumnDef("custid", DataType.INT64),
                ColumnDef("bal", DataType.FLOAT64),
            ],
            primary_key=("custid",),
            partition_key="custid",
        ),
        capacity=n,
    )
    savings.append_columns(
        {"custid": custids, "bal": np.full(n, INITIAL_SAVINGS)}
    )

    checking = db.create_table(
        TableSchema(
            CHECKING,
            [
                ColumnDef("custid", DataType.INT64),
                ColumnDef("bal", DataType.FLOAT64),
            ],
            primary_key=("custid",),
            partition_key="custid",
        ),
        capacity=n,
    )
    checking.append_columns(
        {"custid": custids, "bal": np.full(n, INITIAL_CHECKING)}
    )

    db.create_index("sb_savings_pk", SAVINGS, ["custid"])
    db.create_index("sb_checking_pk", CHECKING, ["custid"])
    return db


# ---------------------------------------------------------------------------
# The loaders against the reference.
# ---------------------------------------------------------------------------
LAYOUTS = ["column", "row"]


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize(
    "scale_factor, subscribers_per_sf, seed",
    [(1, 40, 42), (2, 150, 7), (1, SUBSCRIBERS_PER_SF, 3)],
)
def test_tm1_loader_matches_reference(scale_factor, subscribers_per_sf,
                                      seed, layout):
    kwargs = dict(subscribers_per_sf=subscribers_per_sf, layout=layout,
                  seed=seed)
    assert_same_database(
        tm1.build_database(scale_factor, **kwargs),
        ref_tm1_database(scale_factor, **kwargs),
    )


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize(
    "scale_factor, params, seed",
    [
        (1, dict(customers_per_district=7, n_items=50,
                 init_orders_per_district=11), 42),
        (2, dict(customers_per_district=12, n_items=97,
                 init_orders_per_district=5), 9),
        (1, {}, 3),
    ],
)
def test_tpcc_loader_matches_reference(scale_factor, params, seed, layout):
    kwargs = dict(params, layout=layout, seed=seed)
    assert_same_database(
        tpcc.build_database(scale_factor, **kwargs),
        ref_tpcc_database(scale_factor, **kwargs),
    )


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize(
    "scale_factor, accounts_per_sf, seed", [(1, 30, 42), (3, 700, 5)]
)
def test_smallbank_loader_matches_reference(scale_factor, accounts_per_sf,
                                            seed, layout):
    kwargs = dict(accounts_per_sf=accounts_per_sf, layout=layout, seed=seed)
    assert_same_database(
        smallbank.build_database(scale_factor, **kwargs),
        ref_smallbank_database(scale_factor, **kwargs),
    )
