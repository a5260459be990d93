import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from advent._codes import dense_codes

INT64 = np.iinfo(np.int64)


@settings(max_examples=200, deadline=None)
@given(st.integers(-(2**62), 2**62), st.sampled_from([1, 3, 100, 2**20, 2**40, 2**62]),
       st.lists(st.integers(0, 2**62), min_size=1, max_size=60))
def test_dense_codes_match_unique(base, spread, offsets):
    # Narrow spreads take the table side, wide ones the sort.
    keys = np.array([base + o % spread for o in offsets], dtype=np.int64)
    distinct, codes = dense_codes(keys)
    want, inverse = np.unique(keys, return_inverse=True)
    np.testing.assert_array_equal(distinct, want)
    np.testing.assert_array_equal(codes, inverse)
    assert distinct.dtype == np.int64 and codes.dtype == np.intp


def test_dense_codes_at_int64_extremes():
    keys = np.array([INT64.max, INT64.min, 0, INT64.min, -1], dtype=np.int64)
    distinct, codes = dense_codes(keys)
    np.testing.assert_array_equal(distinct, [INT64.min, -1, 0, INT64.max])
    np.testing.assert_array_equal(codes, [3, 0, 2, 0, 1])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([np.uint8, np.uint16]), st.data())
def test_dense_codes_of_narrow_keys(dtype, data):
    # Both sides: a few keys over the whole range sort, many keys in a short
    # range take the table.
    top = int(np.iinfo(dtype).max)
    lo = data.draw(st.integers(0, top))
    hi = data.draw(st.integers(lo, top))
    values = data.draw(st.lists(st.integers(lo, hi) | st.sampled_from([lo, hi]), min_size=1,
                                max_size=300))
    keys = np.array(values, dtype=dtype)
    distinct, codes = dense_codes(keys)
    want, inverse = np.unique(keys, return_inverse=True)
    np.testing.assert_array_equal(distinct, want)
    np.testing.assert_array_equal(codes, inverse)
    assert distinct.dtype == dtype and codes.dtype == np.intp
