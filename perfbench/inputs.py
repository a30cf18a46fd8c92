"""Seeded inputs shared by every workload.

The data is the paper's CENSUS population; every draw below comes from
the benchmark's ``--seed``, so one seed always gives the same rows,
queries and chunks.  The program under test only ever receives the
generated inputs.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace

import numpy as np

from repro.dataset.census import CensusDataset
from repro.query.predicates import CountQuery
from repro.query.workload import WorkloadGenerator, make_workload
from repro.service.registry import schema_to_json

SENSITIVE = "Occupation"
QI_DIMENSIONS = 5
SELECTIVITY = 0.05


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark run.  ``FULL`` is the benchmark; ``TINY``
    exists so the benchmark's own tests finish in seconds."""

    population: int = 500_000
    base_rows: int = 200_000
    small_rows: int = 20_000
    l: int = 10
    batch_queries: int = 1000
    point_queries: int = 300
    sample_checks: int = 16
    base_chunk: int = 20_000
    mixed_chunk: int = 1000
    max_chunks: int = 128
    answers_per_chunk: int = 50
    fresh_pool: int = 1000
    repeat_share: float = 0.2
    setup_reps: int = 3
    #: Above this many distinct single-query answers, only a seeded
    #: sample of them is checked against the per-query estimator (the
    #: rest against the exact batch path, which the repository keeps
    #: bit-identical to it).
    reference_limit: int = 3000


FULL = Scale()
TINY = replace(FULL, population=20_000, base_rows=4_000, small_rows=1_000,
               batch_queries=100, point_queries=20, sample_checks=4,
               base_chunk=1_000, mixed_chunk=200, max_chunks=64,
               answers_per_chunk=10, fresh_pool=300, setup_reps=2)
SCALES = {"full": FULL, "tiny": TINY}


def clients() -> int:
    """Concurrent connections and client threads: at most ``nproc``,
    at most 2."""
    return max(1, min(2, os.cpu_count() or 1))


def query_spec(query: CountQuery) -> dict:
    """The JSON body of ``POST /publications/{name}/query``."""
    return {"qi": {name: sorted(codes)
                   for name, codes in query.qi_predicates.items()},
            "sensitive": sorted(query.sensitive_values)}


def encode(payload: dict) -> bytes:
    return json.dumps(payload).encode("utf-8")


class Inputs:
    """The base table, its schema, the 1,000-query workload, and the
    row stream that serve_mixed ingests."""

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        self.seed = int(seed)
        census = CensusDataset(n=scale.population, seed=self.seed)
        self.table = census.sample_view(QI_DIMENSIONS, SENSITIVE,
                                        scale.base_rows, seed=self.seed)
        self.schema = self.table.schema
        self.rows = self.table.code_matrix()
        self.queries = make_workload(self.schema, QI_DIMENSIONS,
                                     SELECTIVITY, scale.batch_queries,
                                     seed=self.seed)
        self._census = census

    def stream_rows(self) -> np.ndarray:
        """Rows for serve_mixed's 1,000-row chunks: a second seeded
        sample of the same population."""
        n = min(self.scale.population,
                self.scale.mixed_chunk * self.scale.max_chunks)
        return self._census.sample_view(
            QI_DIMENSIONS, SENSITIVE, n, seed=self.seed + 1).code_matrix()

    def fresh_queries(self) -> "QueryStream":
        return QueryStream(self.schema, self.scale.fresh_pool,
                           seed=self.seed + 2)

    def create_body(self, name: str) -> bytes:
        return encode({"name": name, "l": self.scale.l,
                       "schema": schema_to_json(self.schema),
                       "seed": self.seed})

    def base_chunks(self) -> list[np.ndarray]:
        step = self.scale.base_chunk
        return [self.rows[i:i + step]
                for i in range(0, len(self.rows), step)]


class QueryStream:
    """Section-7 queries drawn in a fixed order: a pre-generated pool,
    then more from the same generator if a fast server drains it."""

    def __init__(self, schema, pool: int, seed: int) -> None:
        self._generator = WorkloadGenerator(schema, QI_DIMENSIONS,
                                            SELECTIVITY, seed=seed)
        self.queries: list[CountQuery] = self._generator.workload(pool)
        self.bodies: list[bytes] = [encode(query_spec(q))
                                    for q in self.queries]
        self._next = 0

    def take(self) -> int:
        """Index of the next fresh query (not thread-safe: callers hold
        their own lock)."""
        if self._next == len(self.queries):
            query = self._generator.next_query()
            self.queries.append(query)
            self.bodies.append(encode(query_spec(query)))
        self._next += 1
        return self._next - 1
