"""Extended snapshots equal from-scratch builds, and never change.

A publication's snapshot at version ``v`` is built by extending the
previous snapshot's index and audit with the groups sealed since.  For
random schemas and ingest sequences, every such snapshot must match a
from-scratch build of ``release_at(v)`` — the release re-rendered from
its partition, a full :class:`AnatomyIndex`, a fresh audit, and the
per-query estimator — bit for bit; and a snapshot held across later
ingests must keep its arrays and answers.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tables import AnatomizedTables
from repro.dataset.schema import Attribute, Schema
from repro.obs.audit import audit_publication
from repro.query.batch import AnatomyIndex, WorkloadEncoding
from repro.query.estimators import AnatomyEstimator
from repro.query.predicates import CountQuery
from repro.service.registry import Publication


def release_arrays(release) -> list[np.ndarray]:
    return [np.array(a) for a in (
        release.qit.qi_codes, release.qit.group_ids, release.st.group_ids,
        release.st.sensitive_codes, release.st.counts)]


@st.composite
def scenario(draw):
    d = draw(st.integers(1, 3))
    qi_sizes = [draw(st.integers(1, 9)) for _ in range(d)]
    sens_size = draw(st.integers(2, 12))
    schema = Schema([Attribute(f"Q{k}", range(s))
                     for k, s in enumerate(qi_sizes)],
                    Attribute("S", range(sens_size)))
    l = draw(st.integers(2, min(4, sens_size)))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(draw(st.integers(1, 7))):
        size = draw(st.integers(0, 45))
        rows = np.column_stack([rng.integers(0, a.size, size)
                                for a in schema.attributes])
        chunks.append((rows.tolist(), draw(st.booleans())))
    queries = []
    for _ in range(12):
        qi = {a.name: rng.choice(a.size, rng.integers(1, a.size + 1),
                                 replace=False).tolist()
              for a in schema.qi_attributes if rng.random() < 0.7}
        sensitive = rng.choice(sens_size, rng.integers(1, sens_size + 1),
                               replace=False).tolist()
        queries.append(CountQuery(schema, qi, sensitive))
    return schema, l, seed, chunks, queries


@settings(max_examples=60, deadline=None)
@given(scenario())
def test_extended_snapshots_match_scratch_builds(params):
    schema, l, seed, chunks, queries = params
    publication = Publication("p", schema, l, seed=seed)
    encoding = WorkloadEncoding(schema, queries)
    held = []
    for rows, read in chunks:
        publication.ingest(rows)
        if not read:  # several versions may seal between snapshots
            continue
        snap = publication.snapshot()
        if snap.release is None:
            continue
        v = snap.version
        scratch = AnatomizedTables.from_partition(
            publication.release_at(v).partition)
        arrays = release_arrays(snap.release)
        for got, want in zip(arrays, release_arrays(scratch)):
            assert np.array_equal(got, want)
        index = snap.estimator.index
        full = AnatomyIndex(scratch)
        exact = snap.estimator.estimate_workload(encoding, mode="exact")
        assert np.array_equal(exact, full.evaluate(encoding, mode="exact"))
        assert np.array_equal(index.evaluate(encoding, mode="fast"),
                              full.evaluate(encoding, mode="fast"))
        reference = AnatomyEstimator(scratch)
        assert exact.tolist() == [reference.estimate(q) for q in queries]
        assert snap.audit.to_json() \
            == audit_publication(scratch, l).to_json()
        held.append((snap, arrays, exact))

    # Snapshots held across later ingests are unchanged.
    for snap, arrays, exact in held:
        for got, want in zip(release_arrays(snap.release), arrays):
            assert np.array_equal(got, want)
        assert np.array_equal(
            snap.estimator.estimate_workload(encoding, mode="exact"),
            exact)
