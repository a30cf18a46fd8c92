"""The ``publish`` workload: the paper's offline pipeline, in process.

Each round runs Anatomize on the 200k-row table, renders QIT/ST, audits
the release, indexes it, answers the 1,000-query workload in exact
batch mode, then answers a sample of the same queries one at a time.
Nearly all of its work is in ``repro.core``, ``repro.obs.audit`` and
``repro.query.batch``; none is in ``repro.service``.
"""

from __future__ import annotations

import os
import resource
import time
from contextlib import contextmanager, nullcontext

import numpy as np

from repro.core.anatomize import anatomize_partition
from repro.core.tables import AnatomizedTables
from repro.obs.audit import audit_publication
from repro.query.batch import anatomy_index_for
from repro.query.estimators import AnatomyEstimator
from repro.shard.anatomize import shard_anatomize
from repro.shard.query import ShardedQueryEvaluator

from perfbench.inputs import Inputs
from perfbench.measure import Result, Spans, median, percentile
from perfbench.oracle import Release, check_release, same_answer


def _check_round(result: Result, inputs, release, audit, estimator,
                 answers, points, rng) -> None:
    """Oracle on the release, batch answers against the per-query
    estimator on a seeded sample, point answers against the batch."""
    l = inputs.scale.l
    for problem in check_release(Release.of(release), l, inputs.rows):
        result.violation(f"publish release: {problem}")
    if not audit.ok:
        result.violation(f"obs.audit reports a violation: {audit!r}")
    sample = rng.choice(len(inputs.queries), size=inputs.scale.sample_checks,
                        replace=False)
    batch_ok = all(same_answer(answers[i],
                               estimator.estimate(inputs.queries[i]))
                   for i in sample)
    result.count(batch_ok, "estimate_workload differs from estimate")
    for i, value in enumerate(points):
        result.count(same_answer(value, answers[i]),
                     f"point answer {i} differs from the batch answer")


def _round(inputs, spans: Spans | None, op: str) -> dict:
    """One publish round.  Every step leaves a wall-clock mark at its
    end; a traced round also wraps each step in a child span."""
    table, queries, l = inputs.table, inputs.queries, inputs.scale.l
    seed = inputs.seed
    marks = {"start": time.perf_counter()}
    root = None

    @contextmanager
    def step(name: str):
        if spans is None:
            yield
        else:
            with spans.span(name, op, root):
                yield
        marks[name] = time.perf_counter()

    with (nullcontext() if spans is None
          else spans.span("publish.round", op)) as root:
        with step("core.partition"):
            partition = anatomize_partition(table, l, seed=seed)
        with step("core.tables"):
            release = AnatomizedTables.from_partition(partition)
        with step("obs.audit"):
            audit = audit_publication(release, l)
        with step("query.index"):
            index = anatomy_index_for(release)
        estimator = AnatomyEstimator(release)
        if spans is None:
            with step("query.batch"):
                answers = estimator.estimate_workload(queries, mode="exact")
        else:
            # The traced round splits the batch into its two layers.
            with step("query.encode"):
                encoding = estimator.encode(queries)
            with step("query.evaluate"):
                answers = index.evaluate(encoding, mode="exact")
        points, latencies = [], []
        for query in queries[:inputs.scale.point_queries]:
            start = time.perf_counter()
            with step("query.point"):
                points.append(estimator.estimate_workload([query],
                                                          mode="exact")[0])
            latencies.append(time.perf_counter() - start)
    return {"marks": marks, "release": release, "audit": audit,
            "estimator": estimator, "answers": answers, "points": points,
            "latencies": latencies}


def _shard_probe(result: Result, inputs, spans: Spans, release,
                 answers) -> None:
    """``repro.shard`` against the unsharded path, shards = workers =
    nproc; outputs checked like the unsharded ones."""
    nproc = os.cpu_count() or 1
    l = inputs.scale.l
    with spans.span("shard.probe", "shard") as root:
        with spans.span("shard.anatomize", "shard", root):
            sharded = shard_anatomize(inputs.table, l, shards=nproc,
                                      workers=nproc, seed=inputs.seed)
        with ShardedQueryEvaluator(release, shards=nproc,
                                   workers=nproc) as evaluator:
            evaluator.estimate_workload(inputs.queries[:8], mode="exact")
            with spans.span("shard.evaluate", "shard", root):
                fanned = evaluator.estimate_workload(inputs.queries,
                                                     mode="exact")
    for problem in check_release(Release.of(sharded), l, inputs.rows):
        result.violation(f"shard_anatomize release: {problem}")
    result.count(all(same_answer(a, b) for a, b in zip(fanned, answers)),
                 "sharded exact answers differ from unsharded")


def run(scale, seed: int, seconds: float, trace: bool) -> tuple[Result,
                                                                 Spans]:
    result = Result()
    setups = []
    for _ in range(scale.setup_reps):
        start = time.perf_counter()
        inputs = Inputs(scale, seed)
        setups.append(time.perf_counter() - start)
    spans = Spans()
    rng = np.random.default_rng(seed)
    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        last = _round(inputs, spans if trace else None, f"round{len(rounds)}")
        _check_round(result, inputs, last["release"], last["audit"],
                     last["estimator"], last["answers"], last["points"], rng)
        # Keep only the timings, so memory does not grow with rounds.
        rounds.append({"marks": last["marks"],
                       "latencies": last["latencies"]})

    n, metrics = scale.base_rows, result.metrics
    if trace:
        _shard_probe(result, inputs, spans, last["release"], last["answers"])
        for name in ("core.partition", "core.tables", "obs.audit",
                     "query.index", "query.encode", "query.evaluate",
                     "shard.anatomize", "shard.evaluate"):
            metrics[name + "_s"] = median(spans.durations(name))
        metrics["query.point_ms"] = median(
            spans.durations("query.point")) * 1e3
        metrics["query.groups"] = last["release"].st.group_count()
        return result, spans

    def per_round(first: str, last_mark: str) -> float:
        return median(r["marks"][last_mark] - r["marks"][first]
                      for r in rounds)

    latencies = [x for r in rounds for x in r["latencies"]]
    metrics["setup_s"] = median(setups)
    metrics["publish_rows_per_s"] = n / per_round("start", "query.index")
    metrics["ingest_rows_per_s"] = n / per_round("start", "core.tables")
    metrics["batch_queries_per_s"] = scale.batch_queries / per_round(
        "query.index", "query.batch")
    metrics["fresh_ms"] = per_round("start", "query.batch") * 1e3
    metrics["query_p50_ms"] = percentile(latencies, 50) * 1e3
    metrics["query_p99_ms"] = percentile(latencies, 99) * 1e3
    metrics["query_qps"] = len(latencies) / sum(latencies)
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.samples = {"setup_s": len(setups), "rounds": len(rounds),
                      "query": len(latencies)}
    return result, spans
