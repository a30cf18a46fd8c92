"""Unit tests for the append-only array store."""

import numpy as np
import pytest

from repro.core.arrays import AppendBuffer


def test_prefix_views_are_read_only_and_survive_growth():
    buf = AppendBuffer(np.int64, (2,))
    buf = buf.append(0, np.arange(4).reshape(2, 2))
    first = buf.view(2)
    for n in range(2, 40, 3):  # several capacity doublings
        buf = buf.append(n, np.full((3, 2), n))
    assert first.tolist() == [[0, 1], [2, 3]]
    assert buf.view(2).tolist() == first.tolist()
    with pytest.raises(ValueError):
        first[0, 0] = 9


def test_branch_from_older_prefix_copies():
    base = AppendBuffer(np.int32).append(0, np.arange(3, dtype=np.int32))
    base = base.append(3, np.array([3], dtype=np.int32))  # in place
    tip = base.append(4, np.array([4], dtype=np.int32))
    branch = base.append(2, np.array([7], dtype=np.int32))
    assert branch is not tip
    assert branch.view(3).tolist() == [0, 1, 7]
    assert tip.view(5).tolist() == [0, 1, 2, 3, 4]
