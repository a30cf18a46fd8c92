"""Every publish path checked by the independent release oracle.

:mod:`tests.release_oracle` recomputes the privacy figures of a release
by brute force, sharing no code with :mod:`repro.obs.audit`.  Here it
runs on each way the repository publishes — offline heap and fast
Anatomize, the incremental publisher at several versions, the sharded
publisher, and the release served over HTTP — and its figures must
agree with the audit's.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.anatomize import anatomize
from repro.core.diversity import max_feasible_l
from repro.core.incremental import IncrementalAnatomizer
from repro.dataset.schema import Attribute, Schema
from repro.dataset.table import Table
from repro.obs.audit import audit_publication
from repro.service.http import ReproService, make_server
from repro.shard.anatomize import shard_anatomize

from tests.release_oracle import (
    agrees_with_audit,
    check_release,
    check_tables,
)

SCHEMA = Schema([Attribute("A", range(6)), Attribute("B", range(4))],
                Attribute("S", range(9)))


def random_rows(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.integers(0, a.size, n)
                            for a in SCHEMA.attributes]).astype(np.int32)


def assert_audited(release, l, rows, withheld=0, **audit_kwargs):
    report = check_tables(release, l, rows, withheld)
    audit = audit_publication(release, l, **audit_kwargs)
    assert audit.ok
    assert agrees_with_audit(report, audit.max_group_frequency,
                             audit.breach_probability, audit.method)
    assert release.breach_probability_bound() \
        == float(report.max_group_frequency)
    return report


@settings(max_examples=40, deadline=None)
@given(st.integers(8, 160), st.integers(0, 10_000),
       st.sampled_from(["heap", "fast"]))
def test_offline_anatomize(n, seed, method):
    rows = random_rows(n, seed)
    table = Table.from_codes(SCHEMA, rows)
    l = min(int(max_feasible_l(table)), 4)
    if l < 2:
        return
    release = anatomize(table, l=l, seed=seed, method=method)
    assert_audited(release, l, rows)


@pytest.mark.parametrize("exact_limit", [512, 0],
                         ids=["adversary-exact", "group-bound"])
def test_both_audit_methods_agree(exact_limit):
    rows = random_rows(300, seed=5)
    release = anatomize(Table.from_codes(SCHEMA, rows), l=3, seed=1)
    assert_audited(release, 3, rows, exact_limit=exact_limit)


def test_incremental_versions():
    rows = random_rows(400, seed=9)
    inc = IncrementalAnatomizer(SCHEMA, l=4, seed=2)
    for start in range(0, len(rows), 57):
        inc.insert_codes(rows[start:start + 57].tolist())
    for version in sorted({1, 7, inc.version // 2, inc.version}):
        release = inc.publish(at_version=version)
        published = inc.microdata(at_version=version).code_matrix()
        assert_audited(release, 4, published)
    # The current release preserves every ingested row but the buffered.
    assert_audited(inc.publish(), 4, rows, withheld=inc.buffered_count)


@pytest.mark.parametrize("shards", [2, 3])
def test_sharded(shards):
    rows = random_rows(500, seed=13)
    release = shard_anatomize(Table.from_codes(SCHEMA, rows), 3,
                              shards=shards, workers=1, seed=4)
    assert_audited(release, 3, rows)


def test_http_publish_with_tables():
    service = ReproService(batch_window_s=0.0005)
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]

    def call(method, path, body=None):
        request = urllib.request.Request(
            f"http://{host}:{port}{path}", method=method,
            data=None if body is None else json.dumps(body).encode(),
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=30) as resp:
            return json.loads(resp.read())

    try:
        call("POST", "/publications", {
            "name": "p", "l": 3, "seed": 1,
            "schema": {"qi": [{"name": "A", "size": 6},
                              {"name": "B", "size": 4}],
                       "sensitive": {"name": "S", "size": 9}}})
        rows = random_rows(240, seed=21)
        for start in range(0, len(rows), 80):
            call("POST", "/publications/p/ingest",
                 {"rows": rows[start:start + 80].tolist()})
            payload = call("GET", "/publications/p/publish"
                                  "?include_tables=1")
            served = payload["release"]
            # Size-based domains decode code c to the value c.
            qit = np.asarray(served["qit"], dtype=np.int64)
            st_rows = np.asarray(served["st"], dtype=np.int64)
            report = check_release(
                qit[:, :-1], qit[:, -1], st_rows[:, 0], st_rows[:, 1],
                st_rows[:, 2], 3, rows[:start + 80], payload["buffered"])
            audit = payload["privacy_audit"]
            assert audit["audited_version"] == served["version"]
            assert agrees_with_audit(report, audit["max_group_frequency"],
                                     audit["breach_probability"],
                                     audit["method"])
            assert served["breach_probability_bound"] \
                == float(report.max_group_frequency)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        service.close()

