"""The ``serve_read`` and ``serve_mixed`` workloads: the HTTP server in
a child process, driven over keep-alive connections.

Set-up, repeated ``Scale.setup_reps`` times with a fresh server each
time: start ``python -m repro serve`` with default flags (exact mode,
cache 4096, 1 ms window), create the publication, ingest the 200k base
rows in 20k-row chunks, and send one query, whose reply waits for the
first snapshot.  Then one 1,000-query batch request.  The last server
stays up for the timed phase:

* ``serve_read`` — every connection runs a closed loop of single
  queries: 80% fresh Section-7 queries, 20% repeats of an earlier one.
  An analyst waits for each reply, hence a closed loop; the repeats let
  the result cache show.
* ``serve_mixed`` — one connection ingests 1,000-row chunks; after each
  chunk is visible to the reader it waits for the reader's next 50
  answers.  The other connection runs a closed loop of fresh queries.

After the phase, outside the timed window, the served release (``GET
.../publish?include_tables=1``) goes through the release oracle, and
every served answer is compared with the per-query estimator on an
in-process replay of the same chunks with the same seed.
"""

from __future__ import annotations

import json
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from repro.core.tables import (
    AnatomizedTables,
    QuasiIdentifierTable,
    SensitiveTable,
)
from repro.obs.audit import audit_publication
from repro.query.batch import AnatomyIndex
from repro.query.estimators import AnatomyEstimator
from repro.query.predicates import CountQuery
from repro.service.frontend import QueryFrontend
from repro.service.registry import PublicationRegistry

from perfbench.client import Connection, ServerChild, child_env
from perfbench.inputs import Inputs, clients, encode, query_spec
from perfbench.measure import (
    Result, Spans, bucket_quantile, median, percentile)
from perfbench.oracle import Release, check_release, same_answer

ROOT = Path(__file__).resolve().parent.parent
NAME = "census"
QUERY = f"/publications/{NAME}/query"
INGEST = f"/publications/{NAME}/ingest"
TABLES = f"/publications/{NAME}/publish?include_tables=1"
QUERY_ENDPOINT = "/publications/{name}/query,POST"
#: In-process probes per traced serve_mixed run (each rebuilds at 200k).
MAX_PROBED_CHUNKS = 6
BATCH_REQUESTS = 2


class Ledger:
    """Operations and the answers they returned, checked after the run.

    An answer is keyed by ``(kind, index)``: ``("batch", i)`` is the
    i-th query of the 1,000-query workload, ``("fresh", i)`` the i-th
    query of the fresh stream.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.ops: list[tuple[str, bool, list[tuple]]] = []

    def add(self, what: str, ok: bool, answers=()) -> None:
        with self._lock:
            self.ops.append((what, ok, list(answers)))

    def settle(self, result: Result, reference) -> None:
        """Count every operation: failed on a bad status or on any
        answer that differs from ``reference(key, version)``."""
        for what, ok, answers in self.ops:
            wrong = [key for key, version, value in answers
                     if ok and not same_answer(value,
                                               reference(key, version))]
            if not ok:
                result.count(False, f"{what}: bad status")
            elif wrong:
                result.count(False, f"{what}: answer for {wrong[0]} differs "
                                    f"from the in-process estimator")
            else:
                result.count(True)


def prefix(release: AnatomizedTables, version: int) -> AnatomizedTables:
    """The release at ``version``: the first ``version`` groups of a
    later one (sealed groups are immutable and append-only)."""
    qit, st, schema = release.qit, release.st, release.schema
    rows = qit.group_ids <= version
    records = st.group_ids <= version
    return AnatomizedTables(
        schema,
        QuasiIdentifierTable(schema, qit.qi_codes[rows], qit.group_ids[rows]),
        SensitiveTable(schema, st.group_ids[records],
                       st.sensitive_codes[records], st.counts[records]))


class References:
    """Reference answers on the replayed release at each served version.

    Single-query answers are checked against the per-query
    ``AnatomyEstimator.estimate`` (a seeded sample of ``limit`` of them
    past that many).  Answers of a batch request are checked against the
    exact batch path, which the repository keeps bit-identical to
    ``estimate``, and a seeded sample of ``batch_sample`` of them against
    ``estimate`` itself.
    """

    def __init__(self, final: AnatomizedTables,
                 queries: dict[str, list[CountQuery]], keys: set,
                 limit: int, batch_sample: int, seed: int) -> None:
        rng = np.random.default_rng(seed)

        def sample(items: list, size: int) -> list:
            if len(items) <= size:
                return items
            return [items[i] for i in rng.choice(len(items), size=size,
                                                 replace=False)]

        single = sorted(k for k in keys if k[0][0] == "fresh")
        batched = sorted(k for k in keys if k[0][0] == "batch")
        per_query = set(sample(single, limit)) | set(
            sample(batched, batch_sample))
        self._values: dict[tuple, float] = {}
        by_version: dict[int, list[tuple]] = {}
        for key, version in keys:
            by_version.setdefault(version, []).append(key)
        for version, version_keys in sorted(by_version.items()):
            estimator = AnatomyEstimator(prefix(final, version))
            values = estimator.estimate_workload(
                [queries[kind][i] for kind, i in version_keys], mode="exact")
            for key, value in zip(version_keys, values):
                if (key, version) in per_query:
                    kind, i = key
                    value = estimator.estimate(queries[kind][i])
                self._values[(key, version)] = float(value)

    def __call__(self, key: tuple, version: int) -> float:
        return self._values[(key, version)]


class Session:
    """Inputs, pre-encoded request bodies, the fresh query stream and
    the ledger of one serve run."""

    def __init__(self, scale, seed: int) -> None:
        self.scale, self.seed = scale, seed
        self.inputs = Inputs(scale, seed)
        self.base_chunks = [chunk.tolist()
                            for chunk in self.inputs.base_chunks()]
        self.base_bodies = [encode({"rows": rows})
                            for rows in self.base_chunks]
        # The workload goes out as BATCH_REQUESTS requests per set-up,
        # so one run has several batch samples.
        queries = self.inputs.queries
        size = -(-len(queries) // BATCH_REQUESTS)
        self.batch_bodies = []
        for first in range(0, len(queries), size):
            specs = [query_spec(q) for q in queries[first:first + size]]
            self.batch_bodies.append(
                (first, len(specs), encode({"queries": specs})))
        self.first_body = encode(query_spec(self.inputs.queries[0]))
        self.stream = self.inputs.fresh_queries()
        self.stream_rows = self.inputs.stream_rows()
        self.ledger = Ledger()
        self.spans = Spans()
        self.sent_chunks: list[list] = []

    def queries(self) -> dict[str, list[CountQuery]]:
        return {"batch": self.inputs.queries, "fresh": self.stream.queries}

    def setup(self, started: float, conn: Connection) -> dict:
        """Create and load the publication and time it to the first
        snapshot, then send the workload as batch requests."""
        status, _, _, _ = conn.call("POST", "/publications",
                                    self.inputs.create_body(NAME))
        self.ledger.add("create", status == 201)
        ingest_start = time.perf_counter()
        for body in self.base_bodies:
            status, reply, _, ingest_end = conn.call("POST", INGEST, body)
            self.ledger.add("base ingest", status == 200)
        version = reply.get("version", -1)
        status, reply, _, first_end = conn.call("POST", QUERY,
                                                self.first_body)
        self.ledger.add("first query", status == 200 and
                        reply.get("version") == version,
                        [(("batch", 0), version, reply.get("answer"))])
        setup = {"setup": first_end - started,
                 "ingest": ingest_end - ingest_start,
                 "publish": first_end - ingest_start,
                 "fresh": first_end - ingest_end, "version": version,
                 "batch": []}
        for first, count, body in self.batch_bodies:
            status, reply, start, end = conn.call("POST", QUERY, body)
            answers = reply.get("answers", [])
            self.ledger.add("batch query", status == 200 and
                            len(answers) == count,
                            [(("batch", first + i), a["version"],
                              a["answer"]) for i, a in enumerate(answers)])
            setup["batch"].append((len(answers), end - start))
        return setup

    def replay(self, base: bool = True):
        """An in-process publication fed the same chunks, in the same
        order and with the same seed, as the server's."""
        registry = PublicationRegistry()
        publication = registry.create(NAME, self.inputs.schema,
                                      self.scale.l, seed=self.seed)
        for rows in self.base_chunks if base else ():
            publication.ingest(rows)
        return registry, publication

    def check(self, result: Result, served: dict, final_version: int,
              publication) -> None:
        """Oracle on the served release; every served answer against
        the in-process estimator on the replayed release."""
        streamed = sum(len(rows) for rows in self.sent_chunks)
        input_rows = np.concatenate([self.inputs.rows,
                                     self.stream_rows[:streamed]])
        final = publication.release_at(final_version)
        release = served.get("release") or {}
        if release.get("version") != final_version:
            result.violation("served release is not at the final version")
        else:
            served_release = Release.from_http(self.inputs.schema, release)
            for problem in check_release(served_release, self.scale.l,
                                         input_rows,
                                         withheld=served["buffered"]):
                result.violation(f"served release: {problem}")
            if not served_release.same_as(Release.of(final)):
                result.violation("served release differs from the "
                                 "in-process replay")
        keys = {(key, version) for _, ok, answers in self.ledger.ops
                if ok for key, version, _ in answers}
        reference = References(final, self.queries(), keys,
                               self.scale.reference_limit,
                               self.scale.sample_checks, self.seed)
        self.ledger.settle(result, reference)


def _service_counters(conn: Connection) -> dict:
    """Cache counters from the live server's ``/stats``; the coalesced
    batch sizes and the query endpoint's latency buckets from its
    ``/metrics``.  All are cumulative: a phase takes their difference."""
    _, stats, _, _ = conn.call("GET", "/stats")
    _, doc, _, _ = conn.call("GET", "/metrics?format=json")
    sizes = doc["metrics"].get("repro_service_coalesce_batch_size", {})
    sizes = sizes.get("values", {}).get("", {"sum": 0.0, "count": 0})
    latency = doc["metrics"]["repro_http_request_seconds"]
    return {"hits": stats["cache"]["hits"],
            "misses": stats["cache"]["misses"],
            "batch_sum": sizes["sum"], "batch_count": sizes["count"],
            "latency_bounds": latency["buckets"],
            "latency_counts": latency["values"][QUERY_ENDPOINT]["counts"]}


def _closed_loop(session: Session, port: int, deadline: float,
                 repeat_share: float, n_clients: int,
                 on_reply=None) -> list[tuple]:
    """``n_clients`` connections, each sending its next query when the
    previous reply arrives, until ``deadline``.  Returns replies as
    ``(fresh index, status, answer, version, start, end)``."""
    lock = threading.Lock()
    rng = random.Random(session.seed)
    sent: list[int] = []
    replies: list[tuple] = []

    def client() -> None:
        conn = Connection(port)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    if sent and rng.random() < repeat_share:
                        index = rng.choice(sent)
                    else:
                        index = session.stream.take()
                        sent.append(index)
                status, reply, start, end = conn.call(
                    "POST", QUERY, session.stream.bodies[index])
                record = (index, status, reply.get("answer"),
                          reply.get("version"), start, end)
                with lock:
                    replies.append(record)
                if on_reply is not None:
                    on_reply(record)
        finally:
            conn.close()

    with ThreadPoolExecutor(n_clients) as pool:
        for future in [pool.submit(client) for _ in range(n_clients)]:
            future.result()
    for index, status, answer, version, _, _ in replies:
        session.ledger.add("query", status == 200,
                           [(("fresh", index), version, answer)])
    return sorted(replies, key=lambda r: r[4])


def _writer(session: Session, port: int, deadline: float,
            cond: threading.Condition, seen: dict) -> list[tuple]:
    """serve_mixed's ingest connection.  Returns ``(rows, status,
    sealed groups, version, start, end)`` per chunk."""
    scale = session.scale
    stream = session.stream_rows
    chunks: list[tuple] = []
    conn = Connection(port)
    try:
        for first in range(0, len(stream), scale.mixed_chunk):
            if time.perf_counter() >= deadline:
                break
            rows = stream[first:first + scale.mixed_chunk].tolist()
            status, reply, start, end = conn.call(
                "POST", INGEST, encode({"rows": rows}))
            session.sent_chunks.append(rows)
            session.ledger.add("ingest", status == 200)
            version = reply.get("version", 0)
            chunks.append((len(rows), status, reply.get("sealed_groups", 0),
                           version, start, end))

            def left() -> float:
                return max(0.0, deadline - time.perf_counter())

            with cond:
                cond.wait_for(lambda: seen["version"] >= version
                              or not left(), timeout=left())
                target = seen["answers"] + scale.answers_per_chunk
                cond.wait_for(lambda: seen["answers"] >= target
                              or not left(), timeout=left())
    finally:
        conn.close()
    return chunks


def _mixed_phase(session: Session, port: int, seconds: float) -> dict:
    cond = threading.Condition()
    seen = {"version": 0, "answers": 0}

    def on_reply(record: tuple) -> None:
        with cond:
            seen["answers"] += 1
            if record[3] is not None:
                seen["version"] = max(seen["version"], record[3])
            cond.notify_all()

    started = time.perf_counter()
    deadline = started + seconds
    with ThreadPoolExecutor(1) as pool:
        writer = pool.submit(_writer, session, port, deadline, cond, seen)
        replies = _closed_loop(session, port, deadline, 0.0, 1, on_reply)
        chunks = writer.result()
    fresh = []
    for _, status, sealed, version, _, end in chunks:
        if sealed:
            later = [r[5] for r in replies
                     if r[3] is not None and r[3] >= version and r[5] > end]
            if later:
                fresh.append(min(later) - end)
    return {"started": started, "replies": replies, "chunks": chunks,
            "fresh": fresh}


def _read_probes(session: Session, publication, registry,
                 replies: list[tuple], result: Result) -> None:
    """serve_read's request sequence in process, on an identical release:
    parse, ``QueryFrontend.query`` (default settings) and the estimator's
    single-query batch, each a child span of the request."""
    spans, schema = session.spans, session.inputs.schema
    estimator = publication.snapshot().estimator
    with QueryFrontend(registry) as frontend:
        for n, (index, *_rest) in enumerate(replies):
            op = f"q{n}"
            with spans.span("replay.request", op) as root:
                with spans.span("http.parse", op, root):
                    spec = json.loads(session.stream.bodies[index])
                    query = CountQuery(schema, spec["qi"], spec["sensitive"])
                with spans.span("frontend.query", op, root):
                    answer = frontend.query(NAME, query)
                with spans.span("query.point", op, root):
                    point = estimator.estimate_workload([query],
                                                        mode="exact")[0]
            result.count(same_answer(answer.answer, point),
                         "in-process frontend and estimator disagree")


def _mixed_probes(session: Session, result: Result) -> None:
    """serve_mixed's chunk sequence in process: parse, ingest, and the
    snapshot rebuild after each sealing chunk at 200k and at 20k rows,
    plus its parts (publish, audit, index) on a twin publication."""
    scale, spans = session.scale, session.spans
    _, rebuilt = session.replay()
    _, parts = session.replay()
    _, small = session.replay(base=False)
    for first in range(0, scale.small_rows, scale.base_chunk):
        small.ingest(session.inputs.rows[first:min(
            scale.small_rows, first + scale.base_chunk)].tolist())
    for publication in (rebuilt, small):
        publication.snapshot()
    probed = 0
    for k, rows in enumerate(session.sent_chunks):
        op = f"c{k}"
        body = encode({"rows": rows})
        with spans.span("replay.chunk", op) as root:
            with spans.span("http.ingest_parse", op, root):
                rows = json.loads(body)["rows"]
            with spans.span("registry.ingest", op, root):
                sealed = rebuilt.ingest(rows)["sealed_groups"]
            parts.ingest(rows)
            small.ingest(rows)
            if not sealed or probed == MAX_PROBED_CHUNKS:
                continue
            probed += 1
            with spans.span("registry.snapshot", op, root):
                rebuilt.snapshot()
            with spans.span("core.incremental_publish", op, root):
                release = parts.release_at(parts.version)
            with spans.span("obs.audit", op, root):
                audit = audit_publication(release, scale.l)
            with spans.span("query.index", op, root):
                AnatomyIndex(release)
            with spans.span("registry.snapshot_20k", op, root):
                small.snapshot()
        result.count(audit.ok, "obs.audit reports a violation")


def _run(scale, seed: int, seconds: float, trace: bool,
         mixed: bool) -> tuple[Result, Spans]:
    session = Session(scale, seed)
    result = Result()
    setups = []
    reps = 1 if trace else scale.setup_reps
    for rep in range(reps):
        started = time.perf_counter()
        with ServerChild(ROOT, child_env(ROOT)) as server:
            conn = Connection(server.port)
            try:
                setups.append(session.setup(started, conn))
                if rep < reps - 1:
                    continue
                if trace:
                    before = _service_counters(conn)
                if mixed:
                    phase = _mixed_phase(session, server.port, seconds)
                else:
                    phase_start = time.perf_counter()
                    phase = {"started": phase_start,
                             "replies": _closed_loop(
                                 session, server.port, phase_start + seconds,
                                 scale.repeat_share, clients())}
                if trace:
                    after = _service_counters(conn)
                peak_rss_mb = server.peak_rss_mb()
                status, served, _, _ = conn.call("GET", TABLES)
                session.ledger.add("publish with tables", status == 200)
            finally:
                conn.close()

    versions = {s["version"] for s in setups}
    if len(versions) != 1:
        result.violation(f"set-ups reached different versions {versions}")
    chunks = phase.get("chunks", [])
    final_version = chunks[-1][3] if chunks else setups[-1]["version"]
    registry, publication = session.replay()
    for rows in session.sent_chunks:
        publication.ingest(rows)
    session.check(result, served, final_version, publication)

    replies = phase["replies"]
    latencies = [end - start for *_, start, end in replies]
    metrics = result.metrics
    if trace:
        spans = session.spans
        for n, (*_, start, end) in enumerate(replies):
            spans.record("http.query", f"q{n}", start, end)
        for k, (*_, start, end) in enumerate(chunks):
            spans.record("http.ingest", f"c{k}", start, end)
        metrics["http.client_ms"] = percentile(latencies, 50) * 1e3
        metrics["http.server_ms"] = bucket_quantile(
            after["latency_bounds"],
            [a - b for a, b in zip(after["latency_counts"],
                                   before["latency_counts"])], 0.5) * 1e3
        lookups = (after["hits"] + after["misses"]
                   - before["hits"] - before["misses"])
        metrics["service.cache_hit_ratio"] = (
            after["hits"] - before["hits"]) / lookups
        if mixed:
            _mixed_probes(session, result)
            for name in ("http.ingest_parse", "registry.ingest",
                         "registry.snapshot", "registry.snapshot_20k",
                         "core.incremental_publish", "obs.audit",
                         "query.index"):
                metrics[name + "_ms"] = median(spans.durations(name)) * 1e3
        else:
            metrics["http.wire_ms"] = (metrics["http.client_ms"]
                                       - metrics["http.server_ms"])
            metrics["frontend.batch_size"] = (
                (after["batch_sum"] - before["batch_sum"])
                / (after["batch_count"] - before["batch_count"]))
            _read_probes(session, publication, registry, replies, result)
            for name in ("http.parse", "frontend.query", "query.point"):
                metrics[name + "_ms"] = median(spans.durations(name)) * 1e3
            metrics["frontend.wait_ms"] = (metrics["frontend.query_ms"]
                                           - metrics["query.point_ms"])
        return result, spans

    metrics["setup_s"] = median(s["setup"] for s in setups)
    metrics["publish_rows_per_s"] = scale.base_rows / median(
        s["publish"] for s in setups)
    metrics["batch_queries_per_s"] = median(
        queries / elapsed for s in setups for queries, elapsed in s["batch"])
    metrics["query_p50_ms"] = percentile(latencies, 50) * 1e3
    metrics["query_p99_ms"] = percentile(latencies, 99) * 1e3
    metrics["query_qps"] = len(replies) / (
        max(r[5] for r in replies) - phase["started"])
    # Every ingest request of the run: the base loads of each set-up,
    # then serve_mixed's chunks.
    metrics["ingest_rows_per_s"] = (
        scale.base_rows * len(setups) + sum(c[0] for c in chunks)) / (
        sum(s["ingest"] for s in setups) + sum(c[5] - c[4] for c in chunks))
    if mixed:
        if phase["fresh"]:
            metrics["fresh_ms"] = median(phase["fresh"]) * 1e3
    else:
        metrics["fresh_ms"] = median(s["fresh"] for s in setups) * 1e3
    metrics["peak_rss_mb"] = peak_rss_mb
    result.samples = {"setups": len(setups), "query": len(replies),
                      "ingest_chunks": len(chunks),
                      "fresh": len(phase["fresh"]) if mixed else len(setups)}
    return result, session.spans


def run_read(scale, seed: int, seconds: float, trace: bool):
    return _run(scale, seed, seconds, trace, mixed=False)


def run_mixed(scale, seed: int, seconds: float, trace: bool):
    return _run(scale, seed, seconds, trace, mixed=True)
