import pytest
from hypothesis import given
from hypothesis import strategies as st

from chromatic_schur.coefficients import xi
from chromatic_schur.graphs import complete_graph, generalized_net
from chromatic_schur.partitions import (
    UNDEFINED,
    check_partition,
    partition_table,
    partitions_of,
    strip_trailing_ones,
)

# p(0)..p(8)
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22]


def test_strip_trailing_ones_examples():
    assert strip_trailing_ones((3, 2, 1, 1), 2) == (3, 2)
    assert strip_trailing_ones((2, 1), 2) is UNDEFINED
    assert strip_trailing_ones((1, 1, 1), 3) == ()
    with pytest.raises(ValueError):
        strip_trailing_ones((1,), -1)


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=8))
def test_strip_zero_is_identity(parts):
    lam = tuple(sorted(parts, reverse=True))
    assert strip_trailing_ones(lam, 0) == lam


def _strip_by_counting(lam, t):
    # the reference: count the trailing ones, then cut
    ones = 0
    for p in reversed(lam):
        if p != 1:
            break
        ones += 1
    if t > ones:
        return UNDEFINED
    return lam[: len(lam) - t] if t else lam


@given(st.lists(st.integers(min_value=1, max_value=4), max_size=8))
def test_strip_matches_counting_the_trailing_ones(parts):
    # small parts make runs of trailing ones common; t runs past the length
    lam = tuple(sorted(parts, reverse=True))
    for t in range(len(lam) + 3):
        assert strip_trailing_ones(lam, t) == _strip_by_counting(lam, t), (lam, t)


def test_none_is_not_the_marker():
    assert None is not UNDEFINED and UNDEFINED != None
    with pytest.raises(TypeError):
        xi(None, complete_graph(2))
    assert generalized_net(1, 2) is UNDEFINED
    assert strip_trailing_ones((2, 1), 2) is UNDEFINED


def test_partitions_of_counts_and_order():
    for n, expected in enumerate(PARTITION_COUNTS):
        assert len(partitions_of(n)) == expected
    assert partitions_of(0) == ((),)
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    # reverse lexicographic: strictly decreasing as tuples
    for n in range(9):
        lams = partitions_of(n)
        assert all(lams[i] > lams[i + 1] for i in range(len(lams) - 1))
        assert all(check_partition(lam) == lam and sum(lam) == n for lam in lams)


def test_partitions_of_rejects_negative():
    with pytest.raises(ValueError):
        partitions_of(-1)
    with pytest.raises(ValueError):
        partition_table(-1)
