"""NumPy-native cache payload codec: ``.npy`` segments + pickled header.

The disk cache used to pickle every stored artifact whole, which makes
a warm sweep pay twice for its own cache: ``pickle.loads`` copies every
voxel grid back onto the heap, and the tamper-evidence pass hashes the
same bytes it just copied.  This module is the array-aware alternative
(ISSUE 7 tentpole): a stored value's large ndarrays are *extracted*
into raw ``.npy`` segment files beside a small pickled header, so

* warm reads map the segments with ``np.load(mmap_mode="r")`` - the
  grid bytes stay in the page cache and are never copied through the
  pickle machinery (the header, holding only scalars and tiny arrays,
  still round-trips through pickle);
* writes hash the segment bytes *while streaming them out*
  (:class:`HashingWriter`), not as a second full read;
* values without qualifying arrays keep exactly the legacy single-
  pickle format, so the layout is backward and forward compatible -
  an old cache directory reads fine, and non-array artifacts (meshes,
  reports, slicer dataclasses) are simply not segmented.

Only *primitive trees* (dicts/lists/tuples of arrays and scalars - the
form :class:`~repro.pipeline.stage.Stage` ``pack`` codecs emit) are
walked for arrays; any other object pickles whole.  ``restore`` is the
exact inverse of ``extract`` given the segment arrays back in order.
"""

from __future__ import annotations

import hashlib
import pickle
from typing import Any, BinaryIO, List, Optional, Tuple

import numpy as np

#: Arrays below this many bytes stay inside the pickled header - a
#: 16-byte origin vector is not worth a file and a sidecar.
SEGMENT_MIN_BYTES = 4096

#: Marker key identifying a segmented header (the probability of a
#: genuine artifact dict carrying it is nil; it is namespaced anyway).
HEADER_MAGIC = "__obfuscade_npy_payload__"

#: dtype kinds eligible for raw segment storage (no object arrays -
#: those must go through pickle to be stored at all).
_SEGMENT_KINDS = frozenset("biufc")


class _ArrayRef:
    """Placeholder left in the header skeleton for an extracted array."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index

    def __reduce__(self):
        return (_ArrayRef, (self.index,))


def _eligible(value: Any) -> bool:
    return (
        isinstance(value, np.ndarray)
        and value.dtype.kind in _SEGMENT_KINDS
        and value.nbytes >= SEGMENT_MIN_BYTES
    )


def extract_arrays(value: Any) -> Tuple[Any, List[np.ndarray]]:
    """Split ``value`` into (skeleton, arrays).

    Walks dicts, lists and tuples; every qualifying ndarray is replaced
    by an :class:`_ArrayRef` and appended to the returned list.  The
    skeleton is a new tree (the input is never mutated).  An empty list
    means the value should be stored as a plain pickle.
    """
    arrays: List[np.ndarray] = []

    def walk(node: Any) -> Any:
        if _eligible(node):
            ref = _ArrayRef(len(arrays))
            arrays.append(node)
            return ref
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, tuple):
            return tuple(walk(v) for v in node)
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    return walk(value), arrays


def restore_arrays(skeleton: Any, arrays: List[np.ndarray]) -> Any:
    """Inverse of :func:`extract_arrays`: refs become the given arrays."""

    def walk(node: Any) -> Any:
        if isinstance(node, _ArrayRef):
            return arrays[node.index]
        if isinstance(node, dict):
            return {k: walk(v) for k, v in node.items()}
        if isinstance(node, tuple):
            return tuple(walk(v) for v in node)
        if isinstance(node, list):
            return [walk(v) for v in node]
        return node

    return walk(skeleton)


def make_header(skeleton: Any, n_segments: int) -> dict:
    """The small dict pickled at the legacy payload path.

    The magic and the segment count come first, so the pickled bytes
    open with both and :func:`header_segments` can read the count
    without unpickling the skeleton.
    """
    return {HEADER_MAGIC: 1, "segments": n_segments, "skeleton": skeleton}


def is_segmented_header(obj: Any) -> bool:
    return isinstance(obj, dict) and obj.get(HEADER_MAGIC) == 1


#: How far into a pickled payload :func:`header_segments` looks for the
#: magic key and the segment count.
_PEEK_BYTES = 96
_MAGIC_BYTES = HEADER_MAGIC.encode()
#: ``"segments"`` as a protocol-4+ short string plus its MEMOIZE op.
_COUNT_TAG = b"\x8c\x08segments\x94"


def header_segments(data: bytes) -> Optional[int]:
    """Segment count of pickled payload bytes; ``None`` for a plain pickle.

    Lets a verify-only cache hit check every segment a header names
    without unpickling the value: a plain pickle never carries the magic
    key in its opening bytes, and a header written by
    :func:`make_header` carries the count right after it (a ``K``/``M``
    small-int opcode).  Anything else - a header from before the count
    moved forward, another pickle protocol - falls back to unpickling
    the header, which is always correct.
    """
    head = data[:_PEEK_BYTES]
    if _MAGIC_BYTES not in head:
        return None
    at = head.find(_COUNT_TAG)
    if at >= 0:
        op = head[at + len(_COUNT_TAG):at + len(_COUNT_TAG) + 1]
        arg = at + len(_COUNT_TAG) + 1
        if op == b"K":
            return head[arg]
        if op == b"M" and arg + 2 <= len(head):
            return int.from_bytes(head[arg:arg + 2], "little")
    header = pickle.loads(data)
    return int(header["segments"]) if is_segmented_header(header) else None


class HashingWriter:
    """File wrapper computing SHA-256 of everything written through it.

    Lets :func:`write_npy` produce the tamper-evidence digest in the
    same pass that streams the array to disk, instead of re-reading (or
    re-serializing) the payload just to hash it.
    """

    def __init__(self, fh: BinaryIO):
        self._fh = fh
        self._hash = hashlib.sha256()
        self.bytes_written = 0

    def write(self, data) -> int:
        view = memoryview(data)
        self._hash.update(view)
        self.bytes_written += view.nbytes
        return self._fh.write(data)

    def flush(self) -> None:
        self._fh.flush()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


def write_npy(fh: BinaryIO, array: np.ndarray) -> Tuple[str, int]:
    """Stream ``array`` to ``fh`` in ``.npy`` format, hashing as it goes.

    Returns ``(sha256_hexdigest, bytes_written)`` of the exact file
    bytes, suitable for the cache's digest sidecar.
    """
    writer = HashingWriter(fh)
    np.lib.format.write_array(writer, array, allow_pickle=False)
    return writer.hexdigest(), writer.bytes_written


def hash_file(path, chunk: int = 1 << 20) -> str:
    """SHA-256 of a file's bytes, read in chunks (no whole-file copy)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while True:
            block = fh.read(chunk)
            if not block:
                return h.hexdigest()
            h.update(block)


def load_npy_mmap(path) -> np.ndarray:
    """Memory-map one ``.npy`` segment read-only (the zero-copy read)."""
    return np.load(path, mmap_mode="r", allow_pickle=False)
