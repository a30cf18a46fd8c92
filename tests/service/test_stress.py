"""Concurrency stress tests: mixed ingest + query against one
publication.

The consistency claim under test: every served answer is *exact* for
some published version (the one captured in its snapshot), even while
other threads are sealing new groups.  Because sealed groups are
immutable and append-only, the release at version ``v`` is always the
first ``v`` groups of the final state, so the expected answer for any
(query, version) pair can be recomputed after the run and compared
bit for bit.
"""

from __future__ import annotations

import sys
import threading

import numpy as np

from repro.query.batch import AnatomyIndex, WorkloadEncoding
from repro.query.estimators import AnatomyEstimator
from repro.query.predicates import CountQuery
from repro.service.frontend import QueryFrontend
from repro.service.registry import PublicationRegistry

N_THREADS = 32
CHUNKS_PER_INGESTER = 12
ROWS_PER_CHUNK = 12
QUERIES_PER_QUERIER = 25
L = 4


def test_mixed_ingest_query_stress(schema):
    registry = PublicationRegistry()
    publication = registry.create("stress", schema, l=L)
    publication.ingest([(i % 50, i % 20) for i in range(40)])

    frontend = QueryFrontend(registry, batch_window_s=0.0005)
    pool = [CountQuery(schema,
                       {"A": [(i * 5 + j) % 50 for j in range(6)]},
                       [i % 20, (i + 3) % 20])
            for i in range(20)]

    results: list[tuple[int, int, float]] = []  # (query idx, version, answer)
    results_lock = threading.Lock()
    errors: list[BaseException] = []
    start = threading.Barrier(N_THREADS + 1)

    def ingester(seed: int) -> None:
        rng = np.random.default_rng(seed)
        start.wait()
        for _ in range(CHUNKS_PER_INGESTER):
            rows = [(int(rng.integers(50)), int(rng.integers(20)))
                    for _ in range(ROWS_PER_CHUNK)]
            publication.ingest(rows)

    def querier(seed: int) -> None:
        rng = np.random.default_rng(seed)
        start.wait()
        for _ in range(QUERIES_PER_QUERIER):
            idx = int(rng.integers(len(pool)))
            answer = frontend.query("stress", pool[idx], timeout=60)
            with results_lock:
                results.append((idx, answer.version, answer.answer))

    def run(target, seed):
        def wrapped():
            try:
                target(seed)
            except BaseException as exc:  # noqa: BLE001 - report below
                errors.append(exc)
        return threading.Thread(target=wrapped, daemon=True)

    threads = [run(ingester, 1000 + i) for i in range(N_THREADS // 2)]
    threads += [run(querier, 2000 + i) for i in range(N_THREADS // 2)]
    for thread in threads:
        thread.start()
    start.wait()
    for thread in threads:
        thread.join(timeout=90)
        # a hung thread means a deadlock: fail, don't wait forever
        assert not thread.is_alive(), "stress thread deadlocked"
    frontend.close()
    assert not errors, errors

    assert len(results) == (N_THREADS // 2) * QUERIES_PER_QUERIER
    served_versions = sorted({version for _, version, _ in results})
    assert served_versions[-1] > served_versions[0], \
        "queries never observed an ingest: stress mix was not concurrent"

    # Every answer must be exact for its reported version.
    expected: dict[tuple[int, int], float] = {}
    for version in served_versions:
        release = publication.release_at(version)
        estimator = AnatomyEstimator(release)
        for idx, query in enumerate(pool):
            expected[(idx, version)] = estimator.estimate(query)
    for idx, version, answer in results:
        assert answer == expected[(idx, version)]

    # ... and the l-diversity audit passes on every version served.
    for version in served_versions:
        release = publication.release_at(version)
        assert release.partition.is_l_diverse(L)
        assert release.breach_probability_bound() <= 1.0 / L + 1e-12


def test_writers_not_starved_by_readers(schema):
    """Writer-priority RW locking: ingest completes promptly under a
    continuous query stream."""
    registry = PublicationRegistry()
    publication = registry.create("p", schema, l=L)
    publication.ingest([(i % 50, i % 20) for i in range(40)])
    frontend = QueryFrontend(registry, cache_size=0,
                             batch_window_s=0.0)
    query = CountQuery(schema, {"A": range(25)}, list(range(10)))
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            frontend.query("p", query, timeout=30)

    readers = [threading.Thread(target=reader, daemon=True)
               for _ in range(6)]
    for thread in readers:
        thread.start()
    try:
        for wave in range(5):
            result = publication.ingest(
                [((wave * 13 + i) % 50, i % 20) for i in range(24)])
            assert result["version"] == publication.version
    finally:
        stop.set()
        for thread in readers:
            thread.join(timeout=10)
        frontend.close()
    assert publication.version > 2


def test_lock_free_snapshots_are_complete(schema):
    """Snapshots are taken without the reader lock while a writer seals
    groups into shared append-only arrays: with a tiny thread switch
    interval, every snapshot must hold exactly its version's groups, and
    the index it built then must match a from-scratch index of the
    release read back after the run."""
    publication = PublicationRegistry().create("p", schema, l=L)
    seen: dict = {}
    errors: list[BaseException] = []
    done = threading.Event()

    def reader() -> None:
        try:
            while not done.is_set():
                snap = publication.snapshot()
                if snap.release is not None:
                    assert snap.release.n == L * snap.version
                    assert snap.release.st.group_count() == snap.version
                    seen.setdefault(snap.version, snap)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    readers = [threading.Thread(target=reader, daemon=True)
               for _ in range(4)]
    try:
        for thread in readers:
            thread.start()
        rng = np.random.default_rng(5)
        for _ in range(200):
            publication.ingest([(int(rng.integers(50)),
                                 int(rng.integers(20)))
                                for _ in range(10)])
    finally:
        done.set()
        for thread in readers:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in readers)
    assert not errors, errors
    assert len(seen) > 1
    queries = [CountQuery(schema, {"A": range(k, 50, 3)}, range(k, 20, 2))
               for k in range(3)]
    encoding = WorkloadEncoding(schema, queries)
    for version, snap in seen.items():
        scratch = AnatomyIndex(publication.release_at(version))
        index = snap.estimator.index
        assert np.array_equal(index.st_matrix, scratch.st_matrix)
        assert np.array_equal(index.evaluate(encoding),
                              scratch.evaluate(encoding))
