"""Physical page codecs: every blob must decode bit-for-bit.

The codec layer's single contract is ``decode(encode(page)) == page``
for *arbitrary* 4 KiB payloads — the structured delta paths are an
optimization, never a requirement, so pathological coordinates
(``-0.0``, subnormals, infinities, NaN payloads, foreign bytes) must
round-trip through the fallback modes bit-identically.  These tests
drive that contract through every registered codec, plus the stream
primitives (zigzag, vectorized varints), the file-store integration
(format v3, v2 back-compat), and the byte-budgeted buffer pool that
turns smaller blobs into more resident pages.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import (
    BufferPool,
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    CATEGORY_RTREE_INTERNAL,
    CATEGORY_RTREE_LEAF,
    CATEGORY_SEED_INTERNAL,
    DEFAULT_CODEC,
    FilePageBackend,
    MemoryPageBackend,
    NODE_FANOUT,
    OBJECT_PAGE_CAPACITY,
    PAGE_SIZE,
    PageStore,
    SnapshotError,
    available_codecs,
    get_codec,
)
from repro.storage.codec import (
    CodecError,
    Delta64Codec,
    _unzigzag,
    _zigzag,
    decode_varints,
    encode_varints,
)
from repro.storage.filestore import manifest_filename
from repro.storage.serial import (
    encode_element_page,
    encode_metadata_page,
    encode_node_page,
)

ALL_CATEGORIES = (
    CATEGORY_OBJECT,
    CATEGORY_METADATA,
    CATEGORY_SEED_INTERNAL,
    CATEGORY_RTREE_LEAF,
    CATEGORY_RTREE_INTERNAL,
)

#: The dataset generator's coordinate grid (microcircuit.py snaps to
#: 2**-16 µm); grid-exact coordinates are the codec's design target.
GRID = 2.0**-16


def all_codecs():
    return [get_codec(name) for name in available_codecs()]


def grid_mbrs(n, seed=0, spread=100.0):
    rng = np.random.default_rng(seed)
    lo = rng.uniform(0, spread, size=(n, 3))
    hi = lo + rng.uniform(0, 5.0, size=(n, 3))
    mbrs = np.concatenate([lo, hi], axis=1)
    return np.round(mbrs / GRID) * GRID


def open_store(directory, **kwargs):
    """A store over the latest published generation of *directory*."""
    return PageStore(backend=FilePageBackend.open(directory), **kwargs)


def assert_roundtrip(payload, category):
    """*payload* survives every registered codec bit-for-bit."""
    assert len(payload) == PAGE_SIZE
    for codec in all_codecs():
        blob = codec.encode(payload, category)
        assert len(blob) <= PAGE_SIZE + 1, codec.name
        assert codec.decode(blob, category) == payload, codec.name


finite_or_weird = st.floats(
    allow_nan=True,
    allow_infinity=True,
    allow_subnormal=True,
    width=64,
)


class TestRegistry:
    def test_raw_and_delta64_registered(self):
        assert "raw" in available_codecs()
        assert "delta64" in available_codecs()
        assert DEFAULT_CODEC == "raw"

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="unknown page codec"):
            get_codec("zstd-paged")

    def test_instance_passthrough(self):
        codec = Delta64Codec()
        assert get_codec(codec) is codec


class TestStreamPrimitives:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=200))
    def test_zigzag_roundtrip(self, values):
        signed = np.array(values, dtype=np.int64)
        assert np.array_equal(_unzigzag(_zigzag(signed)), signed)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=200))
    def test_varint_roundtrip(self, values):
        u = np.array(values, dtype=np.uint64)
        stream = encode_varints(u)
        assert np.array_equal(decode_varints(stream, len(values)), u)

    def test_varint_small_values_one_byte(self):
        assert len(encode_varints(np.arange(128, dtype=np.uint64))) == 128

    def test_varint_wrong_count_rejected(self):
        stream = encode_varints(np.array([1, 2, 3], dtype=np.uint64))
        with pytest.raises(CodecError):
            decode_varints(stream, 2)
        with pytest.raises(CodecError):
            decode_varints(stream + b"\x01", 3)
        with pytest.raises(CodecError):
            decode_varints(b"", 1)


class TestRoundTripPathological:
    """Named edge cases, then the Hypothesis sweep below."""

    def test_empty_pages(self):
        assert_roundtrip(
            encode_element_page(np.empty((0, 6))), CATEGORY_OBJECT
        )
        empty_node = encode_node_page(
            np.empty(0, dtype=np.uint64), np.empty((0, 6)), False
        )
        assert_roundtrip(empty_node, CATEGORY_SEED_INTERNAL)
        assert_roundtrip(encode_metadata_page([]), CATEGORY_METADATA)

    def test_max_capacity_element_page(self):
        assert_roundtrip(
            encode_element_page(grid_mbrs(OBJECT_PAGE_CAPACITY)),
            CATEGORY_OBJECT,
        )

    def test_full_fanout_node_page(self):
        page = encode_node_page(
            np.arange(NODE_FANOUT, dtype=np.uint64),
            grid_mbrs(NODE_FANOUT),
            True,
        )
        assert_roundtrip(page, CATEGORY_RTREE_INTERNAL)

    def test_negative_zero(self):
        mbrs = grid_mbrs(10)
        mbrs[3, 2] = -0.0
        assert_roundtrip(encode_element_page(mbrs), CATEGORY_OBJECT)

    def test_subnormals(self):
        mbrs = grid_mbrs(10)
        mbrs[0, 0] = 5e-324  # smallest subnormal
        mbrs[1, 1] = -4.9e-324
        assert_roundtrip(encode_element_page(mbrs), CATEGORY_RTREE_LEAF)

    def test_infinities_and_nan(self):
        mbrs = grid_mbrs(10)
        mbrs[0, 0] = np.inf
        mbrs[1, 1] = -np.inf
        mbrs[2, 2] = np.nan
        assert_roundtrip(encode_element_page(mbrs), CATEGORY_OBJECT)
        page = encode_node_page(np.arange(10, dtype=np.uint64), mbrs, False)
        assert_roundtrip(page, CATEGORY_SEED_INTERNAL)

    def test_mixed_subnormal_and_huge(self):
        # No common grid exponent fits 2**53 steps — must fall back.
        mbrs = grid_mbrs(4)
        mbrs[0, 0] = 5e-324
        mbrs[1, 1] = 1e308
        assert_roundtrip(encode_element_page(mbrs), CATEGORY_OBJECT)

    def test_metadata_neighbors_extremes(self):
        records = [
            (grid_mbrs(1)[0], grid_mbrs(1, seed=9)[0], 2**63, []),
            (
                -grid_mbrs(1, seed=2)[0],
                grid_mbrs(1, seed=3)[0],
                0,
                [0, 2**32 - 1, 1, 2**32 - 2],
            ),
        ]
        assert_roundtrip(encode_metadata_page(records), CATEGORY_METADATA)

    def test_arbitrary_bytes_in_every_category(self):
        rng = np.random.default_rng(17)
        noise = rng.integers(0, 256, size=PAGE_SIZE, dtype=np.uint8).tobytes()
        for category in ALL_CATEGORIES:
            assert_roundtrip(noise, category)
        assert_roundtrip(b"\x00" * PAGE_SIZE, CATEGORY_OBJECT)

    def test_wrong_size_payload_rejected(self):
        with pytest.raises(ValueError):
            Delta64Codec().encode(b"abc", CATEGORY_OBJECT)

    def test_corrupt_blob_rejected(self):
        codec = Delta64Codec()
        with pytest.raises(CodecError):
            codec.decode(b"", CATEGORY_OBJECT)
        with pytest.raises(CodecError):
            codec.decode(bytes([250]) + b"x" * 40, CATEGORY_OBJECT)
        blob = codec.encode(encode_element_page(grid_mbrs(20)), CATEGORY_OBJECT)
        with pytest.raises(CodecError):
            codec.decode(blob[:-7], CATEGORY_OBJECT)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(finite_or_weird, min_size=6, max_size=6),
        max_size=OBJECT_PAGE_CAPACITY,
    )
)
def test_element_page_roundtrip_property(rows):
    mbrs = np.array(rows, dtype=np.float64).reshape(len(rows), 6)
    assert_roundtrip(encode_element_page(mbrs), CATEGORY_OBJECT)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(finite_or_weird, min_size=6, max_size=6),
            st.integers(0, 2**64 - 1),
        ),
        max_size=NODE_FANOUT,
    ),
    st.booleans(),
)
def test_node_page_roundtrip_property(entries, leaf):
    ids = np.array([e[1] for e in entries], dtype=np.uint64)
    mbrs = np.array([e[0] for e in entries], dtype=np.float64).reshape(
        len(entries), 6
    )
    page = encode_node_page(ids, mbrs, leaf)
    assert_roundtrip(page, CATEGORY_SEED_INTERNAL)
    assert_roundtrip(page, CATEGORY_RTREE_INTERNAL)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.lists(finite_or_weird, min_size=12, max_size=12),
            st.integers(0, 2**64 - 1),
            st.lists(st.integers(0, 2**32 - 1), max_size=12),
        ),
        max_size=12,
    )
)
def test_metadata_page_roundtrip_property(raw_records):
    records = [
        (
            np.array(coords[:6], dtype=np.float64),
            np.array(coords[6:], dtype=np.float64),
            opid,
            neighbors,
        )
        for coords, opid, neighbors in raw_records
    ]
    assert_roundtrip(encode_metadata_page(records), CATEGORY_METADATA)


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=256), st.integers(0, PAGE_SIZE - 1))
def test_foreign_bytes_roundtrip_property(prefix, offset):
    page = bytearray(PAGE_SIZE)
    chunk = prefix[: PAGE_SIZE - offset]
    page[offset:offset + len(chunk)] = chunk
    payload = bytes(page)
    for category in (CATEGORY_OBJECT, CATEGORY_METADATA):
        assert_roundtrip(payload, category)


class TestCompressionRatio:
    def test_grid_snapped_element_pages_shrink_2x(self):
        """The headline claim at page granularity: grid-snapped
        coordinate pages compress >= 2x under delta64."""
        codec = get_codec("delta64")
        raw_total = blob_total = 0
        for seed in range(40):
            page = encode_element_page(grid_mbrs(OBJECT_PAGE_CAPACITY, seed))
            raw_total += len(page)
            blob_total += len(codec.encode(page, CATEGORY_OBJECT))
        assert raw_total >= 2.0 * blob_total

    def test_structured_modes_chosen_for_grid_data(self):
        codec = get_codec("delta64")
        page = encode_element_page(grid_mbrs(OBJECT_PAGE_CAPACITY))
        assert codec.encode(page, CATEGORY_OBJECT)[0] == 2  # _MODE_ELEMENT


class TestMemoryBackendCodec:
    def test_compressed_in_memory_pages(self):
        backend = MemoryPageBackend(codec="delta64")
        payload = encode_element_page(grid_mbrs(OBJECT_PAGE_CAPACITY))
        pid = backend.append(payload, CATEGORY_OBJECT)
        assert backend.payload(pid) == payload
        assert backend.stored_bytes(pid) < PAGE_SIZE // 2

    def test_raw_is_identity(self):
        backend = MemoryPageBackend()
        payload = encode_element_page(grid_mbrs(3))
        pid = backend.append(payload, CATEGORY_OBJECT)
        assert backend.stored_bytes(pid) == PAGE_SIZE


class TestFileStoreCodecs:
    def pages(self, n=12):
        out = []
        for i in range(n):
            if i % 3 == 2:
                records = [
                    (
                        grid_mbrs(1, seed=i)[0],
                        grid_mbrs(1, seed=i + 100)[0],
                        i,
                        [i, i + 1, i + 7],
                    )
                ]
                out.append((encode_metadata_page(records), CATEGORY_METADATA))
            else:
                out.append((
                    encode_element_page(grid_mbrs(30, seed=i)),
                    CATEGORY_OBJECT,
                ))
        return out

    @pytest.mark.parametrize("codec", ["raw", "delta64"])
    def test_create_commit_reopen_byte_identical(self, tmp_path, codec):
        pages = self.pages()
        FilePageBackend.commit_generation(tmp_path / "s", pages, codec)
        with open_store(tmp_path / "s") as reopened:
            assert reopened.backend.codec == codec
            for pid, (payload, category) in enumerate(pages):
                assert reopened.read(pid) == payload
                assert reopened.category(pid) == category

    def test_delta64_data_file_smaller(self, tmp_path):
        pages = self.pages(30)
        FilePageBackend.commit_generation(tmp_path / "raw", pages, "raw")
        FilePageBackend.commit_generation(tmp_path / "d64", pages, "delta64")
        raw_size = (tmp_path / "raw" / "pages.dat").stat().st_size
        d64_size = (tmp_path / "d64" / "pages.dat").stat().st_size
        assert raw_size == len(pages) * PAGE_SIZE
        assert d64_size * 2 <= raw_size

    def test_manifest_is_v3_with_codec_and_segments(self, tmp_path):
        FilePageBackend.commit_generation(tmp_path / "s", self.pages(4),
                                          "delta64")
        manifest = json.loads(
            (tmp_path / "s" / manifest_filename(0)).read_text()
        )
        assert manifest["format_version"] == 3
        assert manifest["codec"] == "delta64"
        assert len(manifest["segments"]) == manifest["physical_page_count"]
        assert manifest["data_bytes"] == sum(
            length for _off, length in manifest["segments"]
        )

    def test_v2_manifest_opens_as_raw(self, tmp_path):
        """Pre-codec directories (format v2) restore without migration."""
        pages = self.pages(6)
        FilePageBackend.commit_generation(tmp_path / "s", pages, "raw")
        path = tmp_path / "s" / manifest_filename(0)
        manifest = json.loads(path.read_text())
        manifest["format_version"] = 2
        for key in ("codec", "segments", "data_bytes"):
            del manifest[key]
        path.write_text(json.dumps(manifest) + "\n")
        with open_store(tmp_path / "s") as reopened:
            assert reopened.backend.codec == "raw"
            for pid, (payload, category) in enumerate(pages):
                assert reopened.read(pid) == payload

    def test_unknown_codec_in_manifest_rejected(self, tmp_path):
        FilePageBackend.commit_generation(
            tmp_path / "s",
            [(encode_element_page(grid_mbrs(2)), CATEGORY_OBJECT)], "delta64",
        )
        path = tmp_path / "s" / manifest_filename(0)
        manifest = json.loads(path.read_text())
        manifest["codec"] = "lzma-paged"
        path.write_text(json.dumps(manifest) + "\n")
        with pytest.raises(SnapshotError, match="lzma-paged"):
            open_store(tmp_path / "s")

    def test_delta64_store_pickles_as_spec(self, tmp_path):
        """The codec rides the worker spec: a pickled read-only store
        reattaches under the manifest's codec, bytes identical."""
        import pickle

        pages = self.pages(6)
        FilePageBackend.commit_generation(tmp_path / "s", pages, "delta64")
        with open_store(tmp_path / "s") as reopened:
            clone = pickle.loads(pickle.dumps(reopened))
            try:
                assert clone.backend.codec == "delta64"
                for pid, (payload, _category) in enumerate(pages):
                    assert clone.read(pid) == payload
            finally:
                clone.close()

    def test_stored_bytes_and_drop_os_cache(self, tmp_path):
        FilePageBackend.commit_generation(
            tmp_path / "s",
            [(encode_element_page(grid_mbrs(OBJECT_PAGE_CAPACITY)),
              CATEGORY_OBJECT)],
            "delta64",
        )
        with open_store(tmp_path / "s") as reopened:
            assert reopened.backend.stored_bytes(0) < PAGE_SIZE
            reopened.backend.drop_os_cache()  # must not raise
            assert reopened.read(0)[:8] != b""


class TestByteBudgetedBuffer:
    def test_byte_budget_evicts_lru(self):
        pool = BufferPool(byte_capacity=10)
        pool.put(1, b"aaaa", cost=4)
        pool.put(2, b"bbbb", cost=4)
        pool.put(3, b"cccc", cost=4)  # evicts 1
        assert pool.get(1) is None
        assert pool.get(2) == b"bbbb"
        assert pool.resident_bytes == 8

    def test_compressed_pages_pack_denser(self):
        """The larger-than-RAM mechanism: the same byte budget holds
        more pages when the backend stores compressed blobs."""
        budget = 10 * PAGE_SIZE
        fat = BufferPool(byte_capacity=budget)
        thin = BufferPool(byte_capacity=budget)
        for pid in range(30):
            fat.put(pid, b"x", cost=PAGE_SIZE)
            thin.put(pid, b"x", cost=PAGE_SIZE // 3)
        assert len(fat) == 10
        assert len(thin) == 30

    def test_store_read_charges_stored_bytes(self, tmp_path):
        FilePageBackend.commit_generation(
            tmp_path / "s",
            [(encode_element_page(grid_mbrs(OBJECT_PAGE_CAPACITY, i)),
              CATEGORY_OBJECT) for i in range(8)],
            "delta64",
        )
        reopened = open_store(
            tmp_path / "s", buffer=BufferPool(byte_capacity=4 * PAGE_SIZE)
        )
        try:
            for i in range(8):
                reopened.read(i)
            # Compressed blobs are ~3x smaller, so all 8 stay resident
            # in a 4-page byte budget.
            assert len(reopened.buffer) == 8
            assert reopened.buffer.resident_bytes <= 4 * PAGE_SIZE
        finally:
            reopened.close()
