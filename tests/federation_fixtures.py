"""Shared fixtures: a small multi-source federation.

Three wrappers mirror the paper's heterogeneity spectrum:

* ``oo7`` — object store with OO7 data, full Yao cost rules;
* ``sales`` — relational source, statistics only;
* ``files`` — flat file, scan-only, exports nothing.
"""

from repro.mediator.mediator import Mediator  # noqa: F401 (re-exported)
from repro.oo7 import TINY, load_database
from repro.sources.relationaldb import RelationalDatabase
from repro.wrappers import FlatFileWrapper, ObjectStoreWrapper, RelationalWrapper


def build_oo7_wrapper(export_rules=True):
    return ObjectStoreWrapper("oo7", load_database(TINY), export_rules=export_rules)


def build_sales_wrapper(name="sales"):
    db = RelationalDatabase()
    db.create_table(
        "Suppliers",
        [
            {"sid": i, "partType": f"type{i % 10:03d}", "city": f"city{i % 5}"}
            for i in range(50)
        ],
        row_size=40,
        indexed_columns=["sid"],
    )
    db.create_table(
        "Orders",
        [
            {"oid": i, "supplier": i % 50, "qty": (i * 7) % 100}
            for i in range(400)
        ],
        row_size=32,
        indexed_columns=["oid", "supplier"],
    )
    return RelationalWrapper(name, db)


def build_files_wrapper():
    return FlatFileWrapper(
        "files",
        "AuditLog",
        rows=[{"entry": i, "severity": i % 3} for i in range(120)],
    )

