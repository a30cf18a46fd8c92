"""Golden hashes of published QIT/ST arrays.

The hashes pin the exact bytes of a few fixed, seeded releases, so any
change to how groups are drawn or how the tables are rendered shows up
as a mismatch, not as a silently different (but still l-diverse)
publication.  They cover the offline ``anatomize()`` paths and the
incremental publisher at several versions.
"""

import hashlib

import numpy as np
import pytest

from repro.core.anatomize import anatomize
from repro.core.incremental import IncrementalAnatomizer
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table

SCHEMA = Schema([Attribute("A", range(7)), Attribute("B", range(5)),
                 Attribute("C", range(11))],
                Attribute("S", range(12)))


def _rows(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.integers(0, a.size, n)
                            for a in SCHEMA.attributes]).astype(np.int32)


def release_digest(release) -> str:
    """blake2b over the five published arrays, shapes and dtypes."""
    h = hashlib.blake2b(digest_size=16)
    for arr in (release.qit.qi_codes, release.qit.group_ids,
                release.st.group_ids, release.st.sensitive_codes,
                release.st.counts):
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _incremental() -> IncrementalAnatomizer:
    inc = IncrementalAnatomizer(SCHEMA, l=4, seed=11)
    rows = _rows(600, seed=2024)
    start = 0
    for size in (3, 50, 1, 97, 200, 249):
        inc.insert_codes(rows[start:start + size].tolist())
        start += size
    return inc


ANATOMIZE_GOLDEN = {
    "heap": "78f9701aa382bab82e6efb94625fb4d7",
    "fast": "7bc281b5b708e2a4413dcd155ec22b40",
}

INCREMENTAL_GOLDEN = {
    1: "767d1234e3f4220a2c80f12b72929e67",
    37: "722384a0728f15ee941ec29311711b52",
    "current": "4e1bd68c69fb06a1631e18c4027fd36d",
}


@pytest.mark.parametrize("method", sorted(ANATOMIZE_GOLDEN))
def test_anatomize_release_bytes(method):
    table = Table.from_codes(SCHEMA, _rows(503, seed=7))
    release = anatomize(table, l=4, seed=3, method=method)
    assert release_digest(release) == ANATOMIZE_GOLDEN[method]


@pytest.mark.parametrize("version", [1, 37, "current"],
                         ids=["v1", "v37", "current"])
def test_incremental_release_bytes(version):
    inc = _incremental()
    at = None if version == "current" else version
    assert release_digest(inc.publish(at_version=at)) \
        == INCREMENTAL_GOLDEN[version]
