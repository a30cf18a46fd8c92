"""The workloads and metrics of ``BENCHMARK.json``, and what that file
does not say: for each per-layer metric, the end-to-end metric it should
move and the workloads that cross its layer."""

from __future__ import annotations

import json
from pathlib import Path

_BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

WORKLOADS = tuple(w["name"] for w in _BENCHMARK["workloads"])
#: Every run with ``--trace 0`` reports all of them; README.md defines
#: each one per workload.
END_TO_END = tuple(m["name"] for m in _BENCHMARK["end_to_end"])
#: Every run with ``--trace 1`` reports all of them.
PER_LAYER = tuple(m["name"] for m in _BENCHMARK["per_layer"])
UNITS = {m["name"]: m["unit"]
         for m in _BENCHMARK["end_to_end"] + _BENCHMARK["per_layer"]}

#: Per-layer metric -> (end-to-end metric it should move, workloads that
#: cross the layer).  A workload reports 0 for a layer it does not cross.
LAYERS = {
    "core.partition_s": ("publish_rows_per_s", ("publish",)),
    "core.tables_s": ("publish_rows_per_s", ("publish",)),
    "obs.audit_s": ("publish_rows_per_s", ("publish",)),
    "query.index_s": ("publish_rows_per_s", ("publish",)),
    "query.encode_s": ("batch_queries_per_s", ("publish",)),
    "query.evaluate_s": ("batch_queries_per_s", ("publish",)),
    "query.groups": ("none (a change means the output changed)",
                     ("publish",)),
    "shard.anatomize_s": (
        "none; compare with core.partition_s + core.tables_s", ("publish",)),
    "shard.evaluate_s": (
        "none; compare with query.encode_s + query.evaluate_s", ("publish",)),
    "http.client_ms": ("query_p50_ms (traced - plain = overhead)",
                       ("serve_read", "serve_mixed")),
    "http.server_ms": ("query_p50_ms", ("serve_read", "serve_mixed")),
    "http.wire_ms": ("query_p50_ms, query_qps", ("serve_read",)),
    "http.parse_ms": ("query_p50_ms", ("serve_read",)),
    "frontend.query_ms": ("query_p50_ms, query_qps", ("serve_read",)),
    "query.point_ms": ("query_p50_ms", ("publish", "serve_read")),
    "frontend.wait_ms": ("query_p50_ms", ("serve_read",)),
    "frontend.batch_size": ("query_qps", ("serve_read",)),
    "service.cache_hit_ratio": ("query_p50_ms",
                                ("serve_read", "serve_mixed")),
    "http.ingest_parse_ms": ("ingest_rows_per_s", ("serve_mixed",)),
    "registry.ingest_ms": ("ingest_rows_per_s", ("serve_mixed",)),
    "registry.snapshot_ms": ("fresh_ms, query_p99_ms", ("serve_mixed",)),
    "registry.snapshot_20k_ms": ("flatness against registry.snapshot_ms",
                                 ("serve_mixed",)),
    "core.incremental_publish_ms": ("fresh_ms", ("serve_mixed",)),
    "obs.audit_ms": ("fresh_ms", ("serve_mixed",)),
    "query.index_ms": ("fresh_ms", ("serve_mixed",)),
}
