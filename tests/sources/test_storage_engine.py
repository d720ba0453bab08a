"""Tests for the storage engine, the object store, and the relational
engine — including the physical Yao behaviour the §5 experiment rests on."""

import pytest

from repro.errors import StorageError
from repro.sources.clock import CostProfile, SimClock
from repro.sources.objectdb import OO7_DEVICE, ObjectDatabase
from repro.sources.relationaldb import RelationalDatabase
from repro.sources.storage_engine import StorageEngine
from tests.yao_oracle import yao_exact


def make_engine(n=700, indexed=("id",), placement="scattered"):
    engine = StorageEngine(SimClock(CostProfile(io_ms=25.0, cpu_ms_per_object=9.0)))
    rows = [{"id": i, "group": i % 10} for i in range(n)]
    engine.create_collection(
        "parts",
        rows,
        object_size=56,
        indexed_attributes=indexed,
        placement=placement,
        page_size=4096,
        fill_factor=0.96,
    )
    return engine


class TestEngineBasics:
    def test_duplicate_collection_rejected(self):
        engine = make_engine()
        with pytest.raises(StorageError):
            engine.create_collection("parts", [], object_size=10)

    def test_unknown_collection(self):
        with pytest.raises(StorageError):
            StorageEngine().collection("nope")

    def test_indexing_missing_attribute_rejected(self):
        engine = StorageEngine()
        with pytest.raises(StorageError):
            engine.create_collection(
                "x", [{"a": 1}], object_size=10, indexed_attributes=["b"]
            )

    def test_page_count(self):
        engine = make_engine(700)
        assert engine.page_count("parts") == 10  # 70 objects/page

    def test_drop_collection(self):
        engine = make_engine()
        engine.drop_collection("parts")
        assert engine.collection_names() == []


class TestSeqScan:
    def test_returns_all_rows(self):
        engine = make_engine(700)
        rows = list(engine.seq_scan("parts"))
        assert len(rows) == 700
        assert {r["id"] for r in rows} == set(range(700))

    def test_charges_every_page_once(self):
        engine = make_engine(700)
        list(engine.seq_scan("parts"))
        assert engine.clock.stats.page_reads == 10
        assert engine.clock.stats.objects_processed == 700

    def test_elapsed_time_structure(self):
        engine = make_engine(700)
        start = engine.clock.now_ms
        list(engine.seq_scan("parts"))
        elapsed = engine.clock.elapsed_since(start)
        assert elapsed == pytest.approx(10 * 25.0 + 700 * 9.0)


class TestIndexScan:
    def test_exact_match(self):
        engine = make_engine()
        rows = list(engine.index_scan("parts", "id", value=123))
        assert rows == [{"id": 123, "group": 3}]

    def test_range(self):
        engine = make_engine()
        rows = list(engine.index_scan("parts", "id", low=10, high=19))
        assert sorted(r["id"] for r in rows) == list(range(10, 20))

    def test_exclusive_range(self):
        engine = make_engine()
        rows = list(
            engine.index_scan(
                "parts", "id", low=10, high=20, low_inclusive=False,
                high_inclusive=False,
            )
        )
        assert sorted(r["id"] for r in rows) == list(range(11, 20))

    def test_missing_index_rejected(self):
        engine = make_engine(indexed=())
        with pytest.raises(StorageError):
            list(engine.index_scan("parts", "id", value=1))

    def test_value_and_range_exclusive(self):
        engine = make_engine()
        with pytest.raises(StorageError):
            list(engine.index_scan("parts", "id", value=1, low=0))

    def test_distinct_pages_charged_once(self):
        engine = make_engine(700, placement="sequential")
        # ids 0..69 all live on page 0 under sequential placement.
        list(engine.index_scan("parts", "id", low=0, high=69))
        assert engine.clock.stats.page_reads == 1

    def test_scattered_placement_spreads_pages(self):
        engine = make_engine(700, placement="scattered")
        list(engine.index_scan("parts", "id", low=0, high=69))
        # 70 random objects over 10 pages: virtually certain to touch all.
        assert engine.clock.stats.page_reads >= 9

    def test_clustered_placement_localizes_pages(self):
        engine = make_engine(700, placement="clustered:id")
        list(engine.index_scan("parts", "id", low=0, high=69))
        assert engine.clock.stats.page_reads <= 2


class TestYaoBehaviour:
    """The load-bearing physical property: with scattered placement, the
    pages fetched by an index scan track Yao's expectation."""

    @pytest.mark.parametrize("selectivity", [0.01, 0.05, 0.2, 0.5])
    def test_pages_follow_yao(self, selectivity):
        n, per_page = 7000, 70
        engine = make_engine(n, placement="scattered")
        pages = engine.page_count("parts")
        selected = int(selectivity * n)
        start = engine.clock.stats.page_reads
        list(engine.index_scan("parts", "id", low=0, high=selected - 1))
        fetched = engine.clock.stats.page_reads - start
        expected = yao_exact(n, pages, selected)
        assert fetched == pytest.approx(expected, rel=0.10)

    def test_pages_saturate(self):
        engine = make_engine(7000, placement="scattered")
        pages = engine.page_count("parts")
        list(engine.index_scan("parts", "id", low=0, high=6999))
        assert engine.clock.stats.page_reads == pages


class TestStatisticsExport:
    def test_extent_statistics(self):
        engine = make_engine(700)
        stats = engine.export_statistics("parts")
        assert stats.count_object == 700
        assert stats.total_size == 700 * 56
        assert stats.object_size == 56

    def test_attribute_statistics(self):
        engine = make_engine(700)
        stats = engine.export_statistics("parts")
        id_stats = stats.attribute("id")
        assert id_stats.indexed
        assert id_stats.count_distinct == 700
        assert id_stats.min_value == 0
        assert id_stats.max_value == 699
        group_stats = stats.attribute("group")
        assert not group_stats.indexed
        assert group_stats.count_distinct == 10


class TestObjectDatabase:
    def test_default_device_is_paper_profile(self):
        db = ObjectDatabase()
        assert db.clock.profile is OO7_DEVICE

    def test_create_extent_defaults_scattered(self):
        db = ObjectDatabase()
        db.create_extent(
            "AtomicParts",
            [{"Id": i} for i in range(700)],
            object_size=56,
            indexed_attributes=["Id"],
        )
        _rows, _ms, pages = db.timed_index_scan("AtomicParts", "Id", low=0, high=69)
        assert pages >= 9  # scattered, not clustered

    def test_timed_scans_report_structure(self):
        db = ObjectDatabase()
        db.create_extent(
            "E", [{"Id": i} for i in range(140)], object_size=56,
            indexed_attributes=["Id"],
        )
        rows, elapsed, pages = db.timed_seq_scan("E")
        assert len(rows) == 140
        assert pages == 2
        assert elapsed == pytest.approx(2 * 25.0 + 140 * 9.0)


class TestRelationalDatabase:
    def make(self):
        db = RelationalDatabase()
        db.create_table(
            "emp",
            [{"id": i, "dept": i % 3} for i in range(10)],
            row_size=50,
            indexed_columns=["id"],
        )
        return db

    def test_insert_updates_everything(self):
        db = self.make()
        db.insert("emp", {"id": 10, "dept": 1})
        assert db.row_count("emp") == 11
        assert db.lookup("emp", "id", 10) == [{"id": 10, "dept": 1}]
        assert db.clock.stats.page_writes == 1

    def test_insert_missing_indexed_column_rejected(self):
        db = self.make()
        with pytest.raises(StorageError):
            db.insert("emp", {"dept": 1})

    def test_statistics_track_inserts(self):
        db = self.make()
        before = db.export_statistics("emp").count_object
        db.insert("emp", {"id": 99, "dept": 0})
        after = db.export_statistics("emp").count_object
        assert after == before + 1

    def test_inserts_fill_new_pages(self):
        db = RelationalDatabase()
        db.create_table("t", [], row_size=60, page_size=128, fill_factor=1.0)
        for i in range(5):
            db.insert("t", {"id": i})
        assert db.collection("t").file.page_count == 3  # 2 rows per page
