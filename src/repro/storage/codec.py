"""Pluggable physical page codecs: logical 4 KiB pages, smaller on disk.

Everything above the byte backends — crawl accounting, decode memos,
snapshot pins — speaks in *logical* pages of exactly
:data:`~repro.storage.constants.PAGE_SIZE` bytes.  A codec sits strictly
at the storage boundary and maps each logical page to a variable-length
*blob* that actually hits ``pages.dat`` (or RAM):

* ``raw`` — the identity codec; blobs are the logical bytes.  Default,
  and the implicit codec of every format-v2 store directory.
* ``delta64`` — lossless coordinate compression exploiting what a page
  *is*: MBRs within a page are spatially clustered, so their
  coordinates, expressed on the data's coordinate grid, differ from the
  page's min corner by small integers.  Per page kind:

  - **element pages** (object pages, R-tree leaves): coordinates are
    rescaled to exact integers (the smallest ``k`` with every value an
    integer multiple of ``2**-k``), delta-encoded against the page's
    per-axis minimum, byte-shuffled (transposed so each delta's i-th
    bytes are adjacent — the high bytes are almost all zero) and
    deflated;
  - **node pages** (seed/R-tree internal): same treatment for the child
    MBRs, child page ids shuffled alongside;
  - **metadata pages** (seed-tree leaves): both MBRs per record share
    the page's min corner, object-page ids and neighbor counts are
    shuffled columns, and each neighbor-id list is zigzag-delta varint
    encoded (neighbor lists point at nearby records, so deltas are
    tiny);
  - any page the structured paths cannot reproduce **bit-exactly**
    (NaN payloads, ``-0.0``, mixed subnormal/normal magnitudes, foreign
    bytes) falls back to an opaque whole-page transform (XOR-delta over
    64-bit words + byte shuffle + deflate), and to verbatim storage if
    even that does not shrink.

Every encoder *verifies its own round trip* before choosing a
structured mode — ``decode(encode(page)) == page`` holds bit-for-bit
for arbitrary payloads, by construction, not by convention.  Decoding
dispatches on a mode byte in the blob, never on trust in the category.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.storage.constants import (
    PAGE_HEADER_BYTES,
    PAGE_SIZE,
)
from repro.storage.serial import (
    _FLAG_LEAF,
    _HEADER,
    decode_element_page,
    decode_node_page,
)
from repro.storage.stats import (
    CATEGORY_METADATA,
    CATEGORY_OBJECT,
    CATEGORY_RTREE_INTERNAL,
    CATEGORY_RTREE_LEAF,
    CATEGORY_SEED_INTERNAL,
)

#: Codec of every store that does not say otherwise (and of all
#: format-v2 directories, which predate the codec field).
DEFAULT_CODEC = "raw"

_ZLIB_LEVEL = 6

# delta64 blob modes (first byte of every blob).
_MODE_STORED = 0    # verbatim logical page
_MODE_OPAQUE = 1    # XOR-delta u64 + shuffle + deflate, whole page
_MODE_ELEMENT = 2   # grid-integer MBR deltas
_MODE_NODE = 3      # grid-integer MBR deltas + child ids
_MODE_METADATA = 4  # grid-integer MBR deltas + varint neighbor lists

_U64_ONE = np.uint64(1)
_U64_SEVEN = np.uint64(7)
_U64_LOW7 = np.uint64(0x7F)


class CodecError(Exception):
    """A blob cannot be decoded (corrupt stream or wrong codec)."""


# -- bit-level helpers ----------------------------------------------------


def _shuffle(array: np.ndarray) -> bytes:
    """Byte-transpose: all first bytes, then all second bytes, ...

    Fixed-width values whose high bytes are mostly zero (small deltas)
    become long zero runs the deflate stage erases.
    """
    array = np.ascontiguousarray(array)
    width = array.dtype.itemsize
    return array.view(np.uint8).reshape(-1, width).T.tobytes()


def _unshuffle(data: bytes, dtype, count: int) -> np.ndarray:
    """Inverse of :func:`_shuffle` for *count* values of *dtype*."""
    width = np.dtype(dtype).itemsize
    if len(data) != width * count:
        raise CodecError(
            f"shuffled stream holds {len(data)} bytes, expected {width * count}"
        )
    planes = np.frombuffer(data, dtype=np.uint8).reshape(width, count)
    return np.ascontiguousarray(planes.T).view(dtype).ravel()


def _zigzag(values: np.ndarray) -> np.ndarray:
    """Map signed int64 to unsigned so small magnitudes stay small."""
    signed = np.ascontiguousarray(values, dtype=np.int64)
    sign = (signed >> np.int64(63)).view(np.uint64)
    return (signed.view(np.uint64) << _U64_ONE) ^ sign


def _unzigzag(values: np.ndarray) -> np.ndarray:
    half = values >> _U64_ONE
    mask = (values & _U64_ONE) * np.uint64(0xFFFFFFFFFFFFFFFF)
    return (half ^ mask).view(np.int64)


def encode_varints(values: np.ndarray) -> bytes:
    """LEB128-encode an array of uint64 (vectorized, no Python loop)."""
    v = np.ascontiguousarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    # Byte length of each value: 1 + one per extra 7-bit group.
    lengths = np.ones(v.size, dtype=np.int64)
    rest = v >> _U64_SEVEN
    while rest.any():
        lengths += rest != 0
        rest >>= _U64_SEVEN
    max_len = int(lengths.max())
    shifts = np.arange(max_len, dtype=np.uint64) * _U64_SEVEN
    groups = ((v[:, None] >> shifts[None, :]) & _U64_LOW7).astype(np.uint8)
    position = np.arange(max_len)
    continuation = position[None, :] < (lengths - 1)[:, None]
    groups |= continuation.astype(np.uint8) << 7
    keep = position[None, :] < lengths[:, None]
    # Boolean selection ravels row-major, preserving per-value byte order.
    return groups[keep].tobytes()


def decode_varints(data: bytes, count: int) -> np.ndarray:
    """Inverse of :func:`encode_varints`; the stream must hold exactly
    *count* values and nothing else."""
    if count == 0:
        if data:
            raise CodecError("varint stream has trailing bytes")
        return np.empty(0, dtype=np.uint64)
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw < 128)
    if ends.size != count or raw.size == 0 or ends[-1] != raw.size - 1:
        raise CodecError(
            f"varint stream holds {ends.size} values, expected {count}"
        )
    starts = np.concatenate(([0], ends[:-1] + 1))
    if (ends - starts).max() >= 10:
        raise CodecError("varint value longer than 10 bytes")
    offsets = np.arange(raw.size, dtype=np.int64) - np.repeat(
        starts, ends - starts + 1
    )
    groups = (raw & np.uint8(0x7F)).astype(np.uint64) << (
        offsets.view(np.uint64) * _U64_SEVEN
    )
    return np.add.reduceat(groups, starts)


def _grid_exponent(values: np.ndarray):
    """Smallest ``k`` with every value an exact int64 multiple of ``2**-k``.

    Returns ``None`` when no such grid exists: non-finite values,
    ``-0.0`` (its sign bit would not survive the integer round trip),
    or magnitudes that overflow 2**53 grid steps (mixed subnormal and
    normal values).  Exactness is decided on the bit patterns, not by
    trial multiplication.
    """
    v = np.ascontiguousarray(values, dtype=np.float64).ravel()
    if v.size == 0:
        return 0
    if not np.all(np.isfinite(v)):
        return None
    bits = v.view(np.uint64)
    exponent = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.int64)
    fraction = bits & np.uint64((1 << 52) - 1)
    mantissa = np.where(
        exponent > 0, fraction | np.uint64(1 << 52), fraction
    )
    nonzero = mantissa != 0
    if np.any(bits[~nonzero] == np.uint64(1 << 63)):
        return None  # -0.0
    if not np.any(nonzero):
        return 0
    m = mantissa[nonzero]
    lowest_bit = (m & (~m + _U64_ONE)).astype(np.float64)
    trailing = np.log2(lowest_bit).astype(np.int64)  # exact: powers of two
    unbiased = np.where(exponent[nonzero] > 0, exponent[nonzero], 1) - 1075
    # value = ±odd * 2**(unbiased + trailing)
    k = int(max(0, -(unbiased + trailing).min()))
    with np.errstate(over="ignore"):
        scaled = np.ldexp(v, k)
    if not np.all(np.abs(scaled) < 2.0 ** 53):
        return None
    return k


def _grid_ints(values: np.ndarray, k: int) -> np.ndarray:
    """The (exact) int64 grid multiples of *values* at exponent *k*."""
    return np.round(
        np.ldexp(np.ascontiguousarray(values, dtype=np.float64), k)
    ).astype(np.int64)


def _grid_floats(ints: np.ndarray, k: int) -> np.ndarray:
    """Inverse of :func:`_grid_ints` — exact, the original floats."""
    return np.ldexp(ints.astype(np.float64), -k)


# -- codecs ---------------------------------------------------------------


class PageCodec:
    """One physical page representation.

    ``encode`` may return any length (pages stop being fixed-size on
    disk); ``decode`` must return the exact logical
    :data:`~repro.storage.constants.PAGE_SIZE` bytes.  Both take the
    page's category, though decoders are expected to be self-describing.
    """

    name: str = "?"

    def encode(self, payload: bytes, category: str) -> bytes:
        raise NotImplementedError

    def decode(self, blob: bytes, category: str) -> bytes:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class StoredBlob:
    """A page as its store holds it: a codec blob, not yet inflated.

    What a backend's ``blob`` fetch returns under a codec other than
    ``raw``, and what a buffer pool holds for a page read only to be
    charged (see :meth:`~repro.storage.pagestore.PageStore.read`).
    ``len()`` is the stored size; :meth:`inflate` runs the codec.
    """

    __slots__ = ("blob", "codec", "category")

    def __init__(self, blob: bytes, codec: PageCodec, category: str):
        self.blob = blob
        self.codec = codec
        self.category = category

    def __len__(self) -> int:
        return len(self.blob)

    def inflate(self) -> bytes:
        """The logical page bytes."""
        return self.codec.decode(self.blob, self.category)


class RawCodec(PageCodec):
    """The identity codec: blobs are the logical page bytes."""

    name = "raw"

    def encode(self, payload: bytes, category: str) -> bytes:
        return payload

    def decode(self, blob: bytes, category: str) -> bytes:
        return blob


class Delta64Codec(PageCodec):
    """Grid-integer delta compression of coordinate pages (lossless).

    See the module docstring for the format.  Encoding verifies the
    round trip and falls back (opaque transform, then verbatim) on any
    page the structured paths cannot reproduce bit-exactly, so
    ``decode(encode(p)) == p`` for *every* 4 KiB payload.
    """

    name = "delta64"

    _ELEMENT_HEAD = struct.Struct("<BHh")     # mode, count, grid exponent
    _NODE_HEAD = struct.Struct("<BHBh")       # mode, count, leaf, exponent
    _METADATA_HEAD = struct.Struct("<BHh")    # mode, count, grid exponent

    # -- public API ----------------------------------------------------

    def encode(self, payload: bytes, category: str) -> bytes:
        if len(payload) != PAGE_SIZE:
            raise ValueError(
                f"expected a {PAGE_SIZE}-byte page, got {len(payload)}"
            )
        structured = self._STRUCTURED.get(category)
        blob = None
        if structured is not None:
            try:
                blob = structured(self, payload)
            except Exception:
                blob = None
        if blob is not None:
            # A structured mode is only trusted if it reproduces the
            # page bit-for-bit through the real decode path.
            try:
                verified = self.decode(blob, category) == payload
            except Exception:
                verified = False
            if not verified:
                blob = None
        if blob is None:
            blob = self._encode_opaque(payload)
        if len(blob) > PAGE_SIZE:
            blob = bytes([_MODE_STORED]) + payload
        return blob

    def decode(self, blob: bytes, category: str) -> bytes:
        if not blob:
            raise CodecError("empty delta64 blob")
        mode = blob[0]
        try:
            if mode == _MODE_STORED:
                page = blob[1:]
                if len(page) != PAGE_SIZE:
                    raise CodecError("stored blob is not one page")
                return page
            if mode == _MODE_OPAQUE:
                return self._decode_opaque(blob)
            if mode == _MODE_ELEMENT:
                return self._decode_element(blob)
            if mode == _MODE_NODE:
                return self._decode_node(blob)
            if mode == _MODE_METADATA:
                return self._decode_metadata(blob)
        except CodecError:
            raise
        except Exception as exc:
            raise CodecError(f"corrupt delta64 blob: {exc}") from exc
        raise CodecError(f"unknown delta64 blob mode {mode}")

    # -- opaque fallback ----------------------------------------------

    def _encode_opaque(self, payload: bytes) -> bytes:
        words = np.frombuffer(payload, dtype="<u8")
        deltas = words ^ np.concatenate(
            (words[:1] * np.uint64(0), words[:-1])
        )
        return bytes([_MODE_OPAQUE]) + zlib.compress(
            _shuffle(deltas), _ZLIB_LEVEL
        )

    def _decode_opaque(self, blob: bytes) -> bytes:
        deltas = _unshuffle(
            zlib.decompress(blob[1:]), "<u8", PAGE_SIZE // 8
        )
        words = np.bitwise_xor.accumulate(deltas)
        return words.astype("<u8").tobytes()

    # -- element pages -------------------------------------------------

    def _encode_element(self, payload: bytes):
        mbrs = decode_element_page(payload)
        k = _grid_exponent(mbrs)
        if k is None or k > 32767:
            return None
        ints = _grid_ints(mbrs, k)
        mins = ints.min(axis=0) if len(ints) else np.zeros(6, dtype=np.int64)
        deltas = (ints - mins).view(np.uint64)
        head = self._ELEMENT_HEAD.pack(_MODE_ELEMENT, len(mbrs), k)
        return (
            head
            + mins.astype("<i8").tobytes()
            + zlib.compress(_shuffle(deltas), _ZLIB_LEVEL)
        )

    def _decode_element(self, blob: bytes) -> bytes:
        head = self._ELEMENT_HEAD
        _mode, count, k = head.unpack_from(blob)
        mins = np.frombuffer(blob, dtype="<i8", count=6, offset=head.size)
        deltas = _unshuffle(
            zlib.decompress(blob[head.size + 48:]), "<u8", count * 6
        )
        ints = mins[None, :] + deltas.view(np.int64).reshape(count, 6)
        body = _grid_floats(ints, k).astype("<f8").tobytes()
        page = _HEADER.pack(count, _FLAG_LEAF) + body
        return page + b"\x00" * (PAGE_SIZE - len(page))

    # -- node pages ----------------------------------------------------

    def _encode_node(self, payload: bytes):
        child_ids, child_mbrs, leaf = decode_node_page(payload)
        k = _grid_exponent(child_mbrs)
        if k is None or k > 32767:
            return None
        ints = _grid_ints(child_mbrs, k)
        mins = ints.min(axis=0) if len(ints) else np.zeros(6, dtype=np.int64)
        deltas = (ints - mins).view(np.uint64)
        head = self._NODE_HEAD.pack(
            _MODE_NODE, len(child_ids), 1 if leaf else 0, k
        )
        stream = _shuffle(child_ids.astype("<u8")) + _shuffle(deltas)
        return (
            head
            + mins.astype("<i8").tobytes()
            + zlib.compress(stream, _ZLIB_LEVEL)
        )

    def _decode_node(self, blob: bytes) -> bytes:
        head = self._NODE_HEAD
        _mode, count, leaf, k = head.unpack_from(blob)
        mins = np.frombuffer(blob, dtype="<i8", count=6, offset=head.size)
        stream = zlib.decompress(blob[head.size + 48:])
        child_ids = _unshuffle(stream[: count * 8], "<u8", count)
        deltas = _unshuffle(stream[count * 8:], "<u8", count * 6)
        ints = mins[None, :] + deltas.view(np.int64).reshape(count, 6)
        mbrs = _grid_floats(ints, k)
        body = bytearray(_HEADER.pack(count, _FLAG_LEAF if leaf else 0))
        entries = np.empty(
            count, dtype=np.dtype([("id", "<u8"), ("mbr", "<f8", (6,))])
        )
        entries["id"] = child_ids
        entries["mbr"] = mbrs
        body += entries.tobytes()
        return bytes(body) + b"\x00" * (PAGE_SIZE - len(body))

    # -- metadata pages ------------------------------------------------

    def _encode_metadata(self, payload: bytes):
        from repro.storage.serial import decode_metadata_page

        records = decode_metadata_page(payload)
        count = len(records)
        coords = np.empty((count, 12), dtype=np.float64)
        object_page_ids = np.empty(count, dtype="<u8")
        neighbor_counts = np.empty(count, dtype="<u4")
        neighbor_chunks = []
        for i, (page_mbr, partition_mbr, opid, neighbors) in enumerate(records):
            coords[i, :6] = page_mbr
            coords[i, 6:] = partition_mbr
            object_page_ids[i] = opid
            neighbor_counts[i] = len(neighbors)
            neighbor_chunks.append(np.asarray(neighbors, dtype=np.int64))
        k = _grid_exponent(coords)
        if k is None or k > 32767:
            return None
        ints = _grid_ints(coords, k).reshape(-1, 6)  # both MBRs as rows
        mins = ints.min(axis=0) if count else np.zeros(6, dtype=np.int64)
        deltas = (ints - mins).view(np.uint64)

        neighbors = (
            np.concatenate(neighbor_chunks)
            if neighbor_chunks
            else np.empty(0, dtype=np.int64)
        )
        # Per-list delta chain: each list restarts from zero, values
        # within a list difference against their predecessor.
        diffs = neighbors.copy()
        diffs[1:] -= neighbors[:-1]
        starts = np.concatenate(
            ([0], np.cumsum(neighbor_counts.astype(np.int64))[:-1])
        )
        resets = starts[starts < neighbors.size]
        diffs[resets] = neighbors[resets]
        varints = encode_varints(_zigzag(diffs))

        head = self._METADATA_HEAD.pack(_MODE_METADATA, count, k)
        stream = (
            _shuffle(deltas)
            + object_page_ids.tobytes()
            + neighbor_counts.tobytes()
            + varints
        )
        return (
            head
            + mins.astype("<i8").tobytes()
            + zlib.compress(stream, _ZLIB_LEVEL)
        )

    def _decode_metadata(self, blob: bytes) -> bytes:
        head = self._METADATA_HEAD
        _mode, count, k = head.unpack_from(blob)
        mins = np.frombuffer(blob, dtype="<i8", count=6, offset=head.size)
        stream = zlib.decompress(blob[head.size + 48:])
        cut_coords = count * 96
        cut_opids = cut_coords + count * 8
        cut_counts = cut_opids + count * 4
        deltas = _unshuffle(stream[:cut_coords], "<u8", count * 12)
        object_page_ids = np.frombuffer(
            stream, dtype="<u8", count=count, offset=cut_coords
        )
        neighbor_counts = np.frombuffer(
            stream, dtype="<u4", count=count, offset=cut_opids
        ).astype(np.int64)
        total = int(neighbor_counts.sum())
        diffs = _unzigzag(decode_varints(stream[cut_counts:], total))
        chained = np.cumsum(diffs)
        starts = np.concatenate(([0], np.cumsum(neighbor_counts)[:-1]))
        bases = np.zeros(count, dtype=np.int64)
        nonempty = starts > 0
        bases[nonempty] = chained[starts[nonempty] - 1]
        neighbors = chained - np.repeat(bases, neighbor_counts)

        ints = mins[None, :] + deltas.view(np.int64).reshape(-1, 6)
        coords = _grid_floats(ints, k).reshape(count, 12)

        # Scatter-assemble the variable-size records into the page.
        record_sizes = 108 + 4 * neighbor_counts
        offsets = PAGE_HEADER_BYTES + np.concatenate(
            ([0], np.cumsum(record_sizes)[:-1])
        ).astype(np.int64)
        if count and int(offsets[-1] + record_sizes[-1]) > PAGE_SIZE:
            raise CodecError("metadata records overflow the page")
        page = np.zeros(PAGE_SIZE, dtype=np.uint8)
        page[:PAGE_HEADER_BYTES] = np.frombuffer(
            _HEADER.pack(count, _FLAG_LEAF), dtype=np.uint8
        )
        if count:
            span = np.arange(96)
            page[(offsets[:, None] + span).ravel()] = (
                coords.astype("<f8").view(np.uint8).ravel()
            )
            span = np.arange(8)
            page[(offsets[:, None] + 96 + span).ravel()] = (
                object_page_ids.astype("<u8").view(np.uint8).ravel()
            )
            span = np.arange(4)
            page[(offsets[:, None] + 104 + span).ravel()] = (
                neighbor_counts.astype("<u4").view(np.uint8).ravel()
            )
        if total:
            local = np.arange(total, dtype=np.int64) - np.repeat(
                starts, neighbor_counts
            )
            nb_off = np.repeat(offsets + 108, neighbor_counts) + 4 * local
            page[(nb_off[:, None] + np.arange(4)).ravel()] = (
                neighbors.astype("<u4").view(np.uint8).ravel()
            )
        return page.tobytes()

    _STRUCTURED = {
        CATEGORY_OBJECT: _encode_element,
        CATEGORY_RTREE_LEAF: _encode_element,
        CATEGORY_SEED_INTERNAL: _encode_node,
        CATEGORY_RTREE_INTERNAL: _encode_node,
        CATEGORY_METADATA: _encode_metadata,
    }


# -- registry -------------------------------------------------------------

_CODECS: dict = {}


def register_codec(codec: PageCodec) -> PageCodec:
    """Add a codec to the registry (name collisions overwrite)."""
    _CODECS[codec.name] = codec
    return codec


def available_codecs() -> list:
    """Registered codec names, sorted."""
    return sorted(_CODECS)


def get_codec(codec) -> PageCodec:
    """Resolve a codec name (or pass a codec instance through)."""
    if isinstance(codec, PageCodec):
        return codec
    try:
        return _CODECS[codec]
    except KeyError:
        raise ValueError(
            f"unknown page codec {codec!r} (registered: "
            f"{', '.join(available_codecs())})"
        ) from None


register_codec(RawCodec())
register_codec(Delta64Codec())
