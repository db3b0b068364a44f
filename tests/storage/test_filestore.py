"""Tests for the file-backed page store, generations, and store views.

A store directory is written only by the store writer: an export
(``FilePageBackend.commit_generation``, generation 0) and a rebuild's
publish (``append_overlay_generation``); a published generation reopens
read-only as a ``PageStore`` over ``FilePageBackend.open``.
"""

import json

import numpy as np
import pytest

from repro.storage import (
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    FilePageBackend,
    OverlayPageBackend,
    PAGE_SIZE,
    PageStore,
    PageStoreError,
    SnapshotError,
    write_store_snapshot,
)
from repro.storage.filestore import (
    CATEGORIES_FILENAME,
    PAGES_FILENAME,
    append_overlay_generation,
    list_generations,
    manifest_filename,
)
from repro.storage.serial import encode_element_page


def make_page(seed=0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, 1, size=(5, 3))
    return encode_element_page(np.concatenate([lo, lo + 1], axis=1))


def publish(directory, *pages):
    """Export ``(payload, category)`` *pages* as generation 0 of *directory*."""
    return FilePageBackend.commit_generation(directory, pages)


def open_store(directory, generation=None, **kwargs):
    """A store over one published generation of *directory*."""
    return PageStore(backend=FilePageBackend.open(directory, generation),
                     **kwargs)


class TestCreateAndReopen:
    def test_round_trip_payloads_and_categories(self, tmp_path):
        payloads = [make_page(i) for i in range(5)]
        categories = [CATEGORY_OBJECT if i % 2 == 0 else CATEGORY_METADATA
                      for i in range(5)]
        assert publish(tmp_path / "store", *zip(payloads, categories)) == 0

        with open_store(tmp_path / "store") as reopened:
            assert len(reopened) == 5
            for i, payload in enumerate(payloads):
                assert reopened.read(i) == payload
            assert reopened.category(0) == CATEGORY_OBJECT
            assert reopened.category(1) == CATEGORY_METADATA

    def test_directory_layout(self, tmp_path):
        publish(tmp_path / "s", (make_page(), CATEGORY_OBJECT))
        assert (tmp_path / "s" / PAGES_FILENAME).stat().st_size == PAGE_SIZE
        assert (tmp_path / "s" / CATEGORIES_FILENAME).stat().st_size == 1
        assert (tmp_path / "s" / manifest_filename(0)).exists()

    def test_read_accounting_matches_memory_store(self, tmp_path):
        publish(tmp_path / "s", (make_page(), CATEGORY_OBJECT))
        with open_store(tmp_path / "s") as reopened:
            reopened.read(0)
            reopened.read(0)
            assert reopened.stats.reads == {CATEGORY_OBJECT: 1}
            assert reopened.stats.cache_hits == 1
            reopened.clear_cache()
            reopened.read(0)
            assert reopened.stats.reads == {CATEGORY_OBJECT: 2}


class TestReadOnlyAndErrors:
    def test_reopened_store_rejects_allocation(self, tmp_path):
        publish(tmp_path / "s", (make_page(), CATEGORY_OBJECT))
        with open_store(tmp_path / "s") as reopened:
            with pytest.raises(PageStoreError):
                reopened.allocate(make_page(1), CATEGORY_OBJECT)

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(PageStoreError):
            open_store(tmp_path / "nope")

    def test_out_of_range_read(self, tmp_path):
        publish(tmp_path / "s", (make_page(), CATEGORY_OBJECT))
        with open_store(tmp_path / "s") as reopened:
            with pytest.raises(PageStoreError):
                reopened.read(1)

    def test_truncated_data_file_rejected(self, tmp_path):
        publish(tmp_path / "s", (make_page(), CATEGORY_OBJECT))
        pages = tmp_path / "s" / PAGES_FILENAME
        pages.write_bytes(pages.read_bytes()[: PAGE_SIZE // 2])
        with pytest.raises(PageStoreError):
            open_store(tmp_path / "s")

    def test_closed_store_rejects_reads(self, tmp_path):
        publish(tmp_path / "s", (make_page(), CATEGORY_OBJECT))
        reopened = open_store(tmp_path / "s")
        reopened.close()
        with pytest.raises(PageStoreError):
            reopened.read(0)
        reopened.close()  # idempotent


class TestSnapshotCopy:
    def test_write_store_snapshot_copies_everything(self, tmp_path):
        source = PageStore()
        payloads = [make_page(i) for i in range(7)]
        for i, payload in enumerate(payloads):
            source.allocate(
                payload, CATEGORY_OBJECT if i < 4 else CATEGORY_METADATA
            )
        write_store_snapshot(source, tmp_path / "snap")
        with open_store(tmp_path / "snap") as reopened:
            assert len(reopened) == len(source)
            for i, payload in enumerate(payloads):
                assert reopened.read_silent(i) == payload
                assert reopened.category(i) == source.category(i)
            assert reopened.pages_in(CATEGORY_OBJECT) == 4

    def test_snapshot_copy_is_not_charged_as_io(self, tmp_path):
        source = PageStore()
        source.allocate(make_page(), CATEGORY_OBJECT)
        write_store_snapshot(source, tmp_path / "snap")
        assert source.stats.total_reads == 0

    def test_aborted_snapshot_is_not_openable(self, tmp_path):
        # A copy that dies mid-way must not publish a manifest that
        # makes the truncated directory look like a valid store.
        source = PageStore()
        for i in range(3):
            source.allocate(make_page(i), CATEGORY_OBJECT)
        boom = RuntimeError("disk died")
        original = source.read_silent

        def failing_read(page_id):
            if page_id == 2:
                raise boom
            return original(page_id)

        source.read_silent = failing_read
        with pytest.raises(RuntimeError):
            write_store_snapshot(source, tmp_path / "snap")
        with pytest.raises(PageStoreError):
            open_store(tmp_path / "snap")

    def test_snapshot_into_own_directory_rejected(self, tmp_path):
        # Re-snapshotting a file-backed store in place would cut back
        # the very pages.dat it is mmapping (SIGBUS + data loss).
        source = PageStore()
        source.allocate(make_page(), CATEGORY_OBJECT)
        write_store_snapshot(source, tmp_path / "snap")
        with open_store(tmp_path / "snap") as reopened:
            with pytest.raises(PageStoreError, match="own directory"):
                write_store_snapshot(reopened, tmp_path / "snap")
            # The store is untouched and still readable.
            assert reopened.read_silent(0) == source.read_silent(0)


class TestGenerations:
    def test_old_generations_stay_restorable(self, tmp_path):
        payloads = [make_page(i) for i in range(3)]
        assert publish(tmp_path / "s", (payloads[0], CATEGORY_OBJECT)) == 0
        with open_store(tmp_path / "s") as gen0:
            overlay = OverlayPageBackend(gen0.backend)
            overlay.append(payloads[1], CATEGORY_OBJECT)
            overlay.append(payloads[2], CATEGORY_METADATA)
            assert append_overlay_generation(overlay) == 1
        assert list_generations(tmp_path / "s") == [0, 1]
        assert (tmp_path / "s" / PAGES_FILENAME).stat().st_size == 3 * PAGE_SIZE
        with open_store(tmp_path / "s", generation=0) as gen0:
            assert len(gen0) == 1
            assert gen0.read(0) == payloads[0]
        with open_store(tmp_path / "s") as latest:
            assert latest.backend.generation == 1
            assert len(latest) == 3
            assert [latest.read(p) for p in range(3)] == payloads
            assert latest.category(2) == CATEGORY_METADATA

    def test_uncommitted_tail_is_invisible(self, tmp_path):
        publish(tmp_path / "s", (make_page(1), CATEGORY_OBJECT))
        data = tmp_path / "s" / PAGES_FILENAME
        with open(data, "ab") as handle:  # a publish that died mid-write
            handle.write(b"\xff" * (PAGE_SIZE + 7))
        with open_store(tmp_path / "s") as reopened:
            assert len(reopened) == 1
            assert reopened.read(0) == make_page(1)
            overlay = OverlayPageBackend(reopened.backend)
            overlay.append(make_page(2), CATEGORY_OBJECT)
            assert append_overlay_generation(overlay) == 1
        assert data.stat().st_size == 2 * PAGE_SIZE
        with open_store(tmp_path / "s") as latest:
            assert [latest.read(p) for p in range(2)] == [make_page(1),
                                                          make_page(2)]

    def test_create_refuses_published_directory(self, tmp_path):
        publish(tmp_path / "s", (make_page(), CATEGORY_OBJECT))
        before = (tmp_path / "s" / PAGES_FILENAME).read_bytes()
        with pytest.raises(PageStoreError, match="already holds"):
            publish(tmp_path / "s", (make_page(1), CATEGORY_OBJECT))
        assert (tmp_path / "s" / PAGES_FILENAME).read_bytes() == before
        assert list_generations(tmp_path / "s") == [0]

    def test_read_only_store_refuses_allocation(self, tmp_path):
        publish(tmp_path / "s", (make_page(), CATEGORY_OBJECT))
        with open_store(tmp_path / "s") as reopened:
            with pytest.raises(PageStoreError, match="read-only"):
                reopened.allocate(make_page(1), CATEGORY_OBJECT)


class TestOverlay:
    def test_overlay_appends_past_a_read_only_base(self, tmp_path):
        publish(tmp_path / "s", (make_page(1), CATEGORY_OBJECT))
        with open_store(tmp_path / "s") as base:
            overlay = PageStore(backend=OverlayPageBackend(base.backend))
            new_pid = overlay.allocate(make_page(3), CATEGORY_METADATA)
            assert new_pid == 1
            assert len(base) == 1
            assert overlay.read_silent(0) == make_page(1)
            assert overlay.read_silent(new_pid) == make_page(3)
            assert overlay.category(new_pid) == CATEGORY_METADATA
            assert overlay.stored_bytes(new_pid) == PAGE_SIZE

    def test_closing_an_overlay_store_closes_its_base(self, tmp_path):
        publish(tmp_path / "s", (make_page(1), CATEGORY_OBJECT))
        base = FilePageBackend.open(tmp_path / "s")
        with PageStore(backend=OverlayPageBackend(base)) as overlay:
            overlay.allocate(make_page(2), CATEGORY_OBJECT)
        assert base.closed
        with pytest.raises(PageStoreError):
            overlay.read(0)


class TestSnapshotRobustness:
    """Malformed directories must surface as clear ``SnapshotError``s."""

    def _published(self, tmp_path):
        directory = tmp_path / "s"
        publish(directory, (make_page(1), CATEGORY_OBJECT),
                (make_page(2), CATEGORY_METADATA))
        return directory

    def test_missing_directory(self, tmp_path):
        with pytest.raises(SnapshotError, match="no page-store manifest"):
            open_store(tmp_path / "nope")

    def test_truncated_manifest(self, tmp_path):
        directory = self._published(tmp_path)
        manifest = directory / manifest_filename(0)
        manifest.write_text(manifest.read_text()[: 40])
        with pytest.raises(SnapshotError) as excinfo:
            open_store(directory)
        assert "truncated or not valid JSON" in str(excinfo.value)
        assert str(directory) in str(excinfo.value)

    def test_missing_sidecar(self, tmp_path):
        directory = self._published(tmp_path)
        (directory / CATEGORIES_FILENAME).unlink()
        with pytest.raises(SnapshotError, match="missing category sidecar"):
            open_store(directory)

    def test_short_sidecar(self, tmp_path):
        directory = self._published(tmp_path)
        (directory / CATEGORIES_FILENAME).write_bytes(b"\x00")
        with pytest.raises(SnapshotError, match="category sidecar has 1"):
            open_store(directory)

    def test_version_field_mismatch(self, tmp_path):
        directory = self._published(tmp_path)
        manifest = directory / manifest_filename(0)
        meta = json.loads(manifest.read_text())
        meta["format_version"] = 999
        manifest.write_text(json.dumps(meta))
        with pytest.raises(SnapshotError, match="format version 999"):
            open_store(directory)

    def test_missing_manifest_field(self, tmp_path):
        directory = self._published(tmp_path)
        manifest = directory / manifest_filename(0)
        meta = json.loads(manifest.read_text())
        del meta["page_table"]
        manifest.write_text(json.dumps(meta))
        with pytest.raises(SnapshotError, match="missing the 'page_table'"):
            open_store(directory)

    def test_unknown_generation_requested(self, tmp_path):
        directory = self._published(tmp_path)
        with pytest.raises(SnapshotError, match="no generation 7"):
            open_store(directory, generation=7)

    def test_snapshot_error_is_a_page_store_error(self, tmp_path):
        # Callers guarding with the broader type keep working.
        with pytest.raises(PageStoreError):
            open_store(tmp_path / "nope")
        assert issubclass(SnapshotError, PageStoreError)


class TestStoreViews:
    def test_view_shares_pages_but_not_stats(self, tmp_path):
        payload = make_page(5)
        publish(tmp_path / "s", (payload, CATEGORY_OBJECT))
        base = open_store(tmp_path / "s")
        try:
            view_a = base.view()
            view_b = base.view()
            assert view_a.read(0) == payload
            assert view_a.read(0) == payload  # buffered in view_a only
            assert view_a.stats.reads == {CATEGORY_OBJECT: 1}
            assert view_a.stats.cache_hits == 1
            assert view_b.stats.total_reads == 0
            assert view_b.read(0) == payload
            assert view_b.stats.reads == {CATEGORY_OBJECT: 1}
            assert base.stats.total_reads == 0
        finally:
            base.close()

    def test_memory_store_view(self):
        store = PageStore()
        pid = store.allocate(make_page(9), CATEGORY_OBJECT)
        view = store.view()
        assert view.read(pid) == store.read_silent(pid)
        assert view.stats.total_reads == 1
        assert store.stats.total_reads == 0
        assert len(view) == len(store)

    def test_view_sees_later_allocations(self):
        store = PageStore()
        view = store.view()
        pid = store.allocate(make_page(1), CATEGORY_OBJECT)
        assert view.read(pid) == store.read_silent(pid)
