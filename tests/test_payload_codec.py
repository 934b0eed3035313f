"""Property-style round-trip tests for the cache payload codec.

The zero-copy data plane (``repro.pipeline.payload``) splits stored
values into a pickled skeleton plus raw ``.npy`` segments.  These tests
pin the codec's contract: ``restore_arrays`` is the exact inverse of
``extract_arrays`` for every primitive tree, through a pickle of the
skeleton (as the disk cache does it), for every array memory layout -
Fortran order, non-contiguous views, 0-d, empty - and on both sides of
the :data:`SEGMENT_MIN_BYTES` eligibility boundary.
"""

import hashlib
import io
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.pipeline.payload import (
    HEADER_MAGIC,
    SEGMENT_MIN_BYTES,
    extract_arrays,
    hash_file,
    header_segments,
    is_segmented_header,
    load_npy_mmap,
    make_header,
    restore_arrays,
    write_npy,
)


def _tree_equal(a, b) -> bool:
    """Deep equality preserving container types and array layout."""
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (
            isinstance(a, np.ndarray)
            and isinstance(b, np.ndarray)
            and a.dtype == b.dtype
            and a.shape == b.shape
            and np.array_equal(a, b, equal_nan=a.dtype.kind in "fc")
        )
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(
            _tree_equal(a[k], b[k]) for k in a
        )
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            _tree_equal(x, y) for x, y in zip(a, b)
        )
    return a == b


def _roundtrip(value):
    """extract -> pickle the skeleton (as the cache does) -> restore."""
    skeleton, arrays = extract_arrays(value)
    skeleton = pickle.loads(pickle.dumps(skeleton))
    return restore_arrays(skeleton, arrays), arrays


def _big(shape=(64, 16), dtype=np.float64, order="C"):
    n = int(np.prod(shape))
    return np.arange(n, dtype=dtype).reshape(shape, order="C").copy(order=order)


class TestEligibility:
    @pytest.mark.parametrize("nbytes,extracted", [
        (SEGMENT_MIN_BYTES - 1, False),
        (SEGMENT_MIN_BYTES, True),
        (SEGMENT_MIN_BYTES + 1, True),
    ])
    def test_size_boundary(self, nbytes, extracted):
        value = {"a": np.arange(nbytes, dtype=np.uint8)}
        skeleton, arrays = extract_arrays(value)
        assert (len(arrays) == 1) is extracted
        if not extracted:  # small arrays ride inside the pickled header
            assert skeleton["a"] is value["a"]

    def test_zero_d_and_empty_stay_inline(self):
        value = {"zero_d": np.array(3.5), "empty": np.zeros((0, 128))}
        skeleton, arrays = extract_arrays(value)
        assert arrays == []
        assert skeleton["zero_d"] is value["zero_d"]

    def test_object_arrays_stay_inline(self):
        # Object arrays cannot be stored as raw .npy segments; they must
        # go through pickle whole.
        value = np.array([{"nested": 1}] * 2000, dtype=object)
        skeleton, arrays = extract_arrays(value)
        assert arrays == []
        assert skeleton is value

    def test_non_array_values_pass_through(self):
        value = {"s": "text", "n": None, "f": 1.5, "t": (1, 2)}
        skeleton, arrays = extract_arrays(value)
        assert arrays == []
        assert _tree_equal(skeleton, value)


class TestRoundTrip:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_order_preserved(self, order):
        value = {"grid": _big(order=order)}
        restored, arrays = _roundtrip(value)
        assert len(arrays) == 1
        assert _tree_equal(restored, value)
        assert restored["grid"].flags["F_CONTIGUOUS"] == (order == "F")

    def test_non_contiguous_view(self):
        base = _big((128, 64))
        view = base[::2, ::3]
        assert not view.flags["C_CONTIGUOUS"]
        assert view.nbytes >= SEGMENT_MIN_BYTES  # logical size qualifies
        restored, arrays = _roundtrip({"v": view})
        assert len(arrays) == 1
        assert _tree_equal(restored, {"v": view})

    def test_nested_skeleton(self):
        value = {
            "meta": {"name": "cell", "ok": True, "resolution": None},
            "grids": [_big(), (_big(dtype=np.int32), "label")],
            "small": np.arange(4),
            "rows": (1, 2.5, "three"),
        }
        restored, arrays = _roundtrip(value)
        assert len(arrays) == 2
        assert _tree_equal(restored, value)
        # restore hands back the very arrays extract pulled out...
        assert restored["grids"][0] is arrays[0]
        assert restored["grids"][1][0] is arrays[1]
        # ...containers keep their types, and the input was not mutated.
        assert isinstance(restored["grids"][1], tuple)
        assert isinstance(value["grids"][0], np.ndarray)

    def test_extraction_order_is_walk_order(self):
        a, b, c = _big(), _big(dtype=np.int64), _big(dtype=np.float32)
        _, arrays = extract_arrays({"x": a, "y": [b], "z": (c,)})
        assert [arr is want for arr, want in zip(arrays, [a, b, c])] == [
            True, True, True,
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        tree=st.recursive(
            st.one_of(
                st.integers(min_value=-10**9, max_value=10**9),
                st.floats(allow_nan=False, allow_infinity=False),
                st.text(max_size=8),
                st.none(),
                st.booleans(),
                npst.arrays(
                    dtype=st.sampled_from(
                        [np.uint8, np.int32, np.float64]
                    ),
                    shape=npst.array_shapes(max_dims=2, max_side=90),
                ),
            ),
            lambda child: st.one_of(
                st.lists(child, max_size=3),
                st.dictionaries(st.text(max_size=4), child, max_size=3),
                st.tuples(child, child),
            ),
            max_leaves=8,
        )
    )
    def test_arbitrary_primitive_trees(self, tree):
        restored, arrays = _roundtrip(tree)
        assert _tree_equal(restored, tree)

        def count(node):
            if isinstance(node, np.ndarray):
                return int(
                    node.dtype.kind in "biufc"
                    and node.nbytes >= SEGMENT_MIN_BYTES
                )
            if isinstance(node, dict):
                return sum(count(v) for v in node.values())
            if isinstance(node, (list, tuple)):
                return sum(count(v) for v in node)
            return 0

        assert len(arrays) == count(tree)


class TestHeader:
    def test_header_is_recognized(self):
        skeleton, arrays = extract_arrays({"g": _big()})
        header = make_header(skeleton, len(arrays))
        assert is_segmented_header(header)
        assert header["segments"] == 1
        # Survives the pickle trip the cache puts it through.
        assert is_segmented_header(pickle.loads(pickle.dumps(header)))

    @pytest.mark.parametrize("obj", [
        {"skeleton": 1, "segments": 2},
        {HEADER_MAGIC: 2},
        ["not", "a", "dict"],
        None,
    ])
    def test_non_headers_rejected(self, obj):
        assert not is_segmented_header(obj)

    @pytest.mark.parametrize("n", [0, 1, 7, 255, 256, 65535, 65536])
    def test_segment_count_read_without_unpickling(self, n):
        data = pickle.dumps(
            make_header({"lines": ["G1 X1"] * 50}, n),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        assert header_segments(data) == n

    @pytest.mark.parametrize("data", [
        # Count after the skeleton (the layout before the count moved
        # forward) and an old pickle protocol: read by unpickling.
        pickle.dumps(
            {HEADER_MAGIC: 1, "skeleton": {"k": 1}, "segments": 3},
            protocol=pickle.HIGHEST_PROTOCOL,
        ),
        pickle.dumps(make_header({"k": 1}, 3), protocol=2),
    ])
    def test_segment_count_fallback(self, data):
        assert header_segments(data) == 3

    @pytest.mark.parametrize("value", [
        "plain", {"skeleton": 1, "segments": 2}, [HEADER_MAGIC, 1],
    ])
    def test_plain_pickles_have_no_segments(self, value):
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        assert header_segments(data) is None


class TestNpySegmentIO:
    @pytest.mark.parametrize("make", [
        lambda: _big(order="C"),
        lambda: _big(order="F"),
        lambda: _big((128, 64))[::2, ::3],
        lambda: _big((SEGMENT_MIN_BYTES,), dtype=np.uint8),
    ])
    def test_write_digest_matches_file_bytes(self, tmp_path, make):
        array = make()
        path = tmp_path / "seg.npy"
        with open(path, "wb") as fh:
            digest, nbytes = write_npy(fh, array)
        assert nbytes == path.stat().st_size
        assert digest == hash_file(path)
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_mmap_read_is_equal_and_readonly(self, tmp_path):
        array = _big()
        path = tmp_path / "seg.npy"
        with open(path, "wb") as fh:
            write_npy(fh, array)
        loaded = load_npy_mmap(path)
        assert isinstance(loaded, np.memmap)
        assert not loaded.flags.writeable
        assert _tree_equal(np.asarray(loaded), array)

    @settings(max_examples=25, deadline=None)
    @given(
        data=npst.arrays(
            dtype=st.sampled_from([np.uint8, np.int16, np.float64]),
            shape=npst.array_shapes(min_dims=1, max_dims=3, max_side=24),
        ),
        fortran=st.booleans(),
    )
    def test_any_layout_roundtrips_through_npy(self, data, fortran):
        array = np.asfortranarray(data) if fortran else data
        buf = io.BytesIO()
        digest, nbytes = write_npy(buf, array)
        raw = buf.getvalue()
        assert nbytes == len(raw)
        assert digest == hashlib.sha256(raw).hexdigest()
        loaded = np.load(io.BytesIO(raw), allow_pickle=False)
        assert _tree_equal(loaded, np.asarray(array))
