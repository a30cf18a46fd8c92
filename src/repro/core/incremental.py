"""Incremental anatomization for growing microdata.

The paper anatomizes a static table.  Real registries grow, and
re-running Anatomize from scratch re-shuffles every tuple into a new
group — which both costs a full pass and, worse, lets an adversary
intersect group memberships across releases.  This module provides the
natural incremental scheme:

* **groups are immutable once published** — a tuple's Group-ID never
  changes across releases, so the adversary's view of any old tuple is
  identical in every release (no cross-release intersection attack on
  the grouping itself);
* newly inserted tuples accumulate in a private *buffer*; whenever the
  buffer can form new all-distinct groups of ``l`` tuples (the
  group-creation step of Figure 3 applied to the buffer alone), those
  groups are sealed and published;
* tuples still in the buffer are withheld from the publication — the
  release is always exactly l-diverse, at the price of publishing a few
  tuples late (at most ``λ_buffer * (ceil(n_buffer / λ) )``... bounded
  in practice by the buffer's own eligibility).

Scope note: this addresses *insertions* only.  Full re-publication
semantics with deletions and counterfeit tuples is the m-invariance
line of follow-up work and is out of scope for this reproduction.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Sequence
from functools import partial

import numpy as np

from repro.core.partition import Partition
from repro.core.arrays import AppendBuffer
from repro.core.tables import (
    AnatomizedTables,
    QuasiIdentifierTable,
    SensitiveTable,
)
from repro.dataset.schema import Schema
from repro.dataset.table import Table
from repro.exceptions import ReproError, SchemaError
from repro.obs import metrics
from repro.perf import record, span


def _consecutive_groups(table: Table, l: int) -> Partition:
    """The partition of ``table`` into consecutive groups of ``l`` rows."""
    return Partition(table, list(np.arange(len(table)).reshape(-1, l)),
                     validate=False)


class IncrementalAnatomizer:
    """Maintains an l-diverse publication over a growing tuple stream.

    Parameters
    ----------
    schema:
        The microdata schema.
    l:
        Diversity parameter; every sealed group has exactly ``l``
        tuples with pairwise distinct sensitive values.
    seed:
        Seed for the (arbitrary) tuple draws.

    Examples
    --------
    >>> from repro.dataset.hospital import hospital_schema
    >>> inc = IncrementalAnatomizer(hospital_schema(), l=2)
    >>> inc.insert_rows([(23, "M", 11000, "pneumonia"),
    ...                  (27, "M", 13000, "dyspepsia")])  # seals 1 group
    1
    >>> inc.published_tuple_count
    2
    >>> inc.buffered_count
    0
    """

    def __init__(self, schema: Schema, l: int,
                 seed: int | None = 0) -> None:
        if l < 1:
            raise ReproError(f"l must be >= 1, got {l}")
        self.schema = schema
        self.l = int(l)
        self._rng = np.random.default_rng(seed)
        #: Sealed rows in Group-ID order (group j is rows
        #: [(j-1)*l, j*l)): QI codes, and per row its Group-ID and its
        #: group's sorted sensitive codes — for all-distinct groups of
        #: l the ST records line up one per QIT row.  Append-only, so
        #: every release is a prefix view.
        self._qi = AppendBuffer(np.int32, (schema.d,))
        self._sensitive = AppendBuffer(np.int32)
        self._group_ids = AppendBuffer(np.int32)
        self._st_codes = AppendBuffer(np.int32)
        self._ones = AppendBuffer(np.int64)
        self._sealed = 0
        #: Buffered rows per sensitive code (Figure 3's hash buckets,
        #: maintained incrementally).
        self._buffer: dict[int, list[list[int]]] = {}
        self._buffered = 0

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #

    def _validate(self, rows: list) -> np.ndarray:
        """The batch as an ``(n, d+1)`` code matrix, or
        :class:`SchemaError` naming the first bad row or code.  Nothing
        is buffered before the whole batch passes."""
        attrs = self.schema.attributes
        width = len(attrs)
        try:
            codes = np.asarray(rows, dtype=np.int64)
        except (TypeError, ValueError, OverflowError):
            codes = None
        if codes is None or codes.ndim != 2 or codes.shape[1] != width:
            for row in rows:
                if len(row) != width:
                    raise SchemaError(
                        f"row has {len(row)} codes, schema expects "
                        f"{width}")
            raise SchemaError("row codes must be integers")
        sizes = np.fromiter((a.size for a in attrs), dtype=np.int64,
                            count=width)
        bad = np.flatnonzero(((codes < 0) | (codes >= sizes)).ravel())
        if len(bad):
            row, col = divmod(int(bad[0]), width)
            raise SchemaError(
                f"code {int(codes[row, col])} out of domain for "
                f"{attrs[col].name!r}")
        return codes

    def insert_codes(self, rows: Iterable[Sequence[int]]) -> int:
        """Insert rows given as code tuples ``(qi..., sensitive)``.

        The batch is validated as a whole first: a bad row raises
        :class:`SchemaError` and leaves the anatomizer unchanged.
        Returns the number of new groups sealed by this batch.
        """
        rows = list(rows)
        with span("incremental.ingest", rows=len(rows)):
            if rows:
                for row in self._validate(rows).tolist():
                    self._buffer.setdefault(row[-1], []).append(row)
                self._buffered += len(rows)
            sealed = self._drain_buffer()
        if metrics.enabled():
            metrics.inc("repro_incremental_rows_total", len(rows))
            if sealed:
                metrics.inc("repro_incremental_sealed_groups_total",
                            sealed)
        return sealed

    def insert_rows(self, rows: Iterable[Sequence[object]]) -> int:
        """Insert rows given as decoded values."""
        attrs = self.schema.attributes
        encoded = []
        for row in rows:
            if len(row) != len(attrs):
                raise SchemaError(
                    f"row has {len(row)} values, schema expects "
                    f"{len(attrs)}")
            encoded.append(tuple(a.encode(v)
                                 for a, v in zip(attrs, row)))
        return self.insert_codes(encoded)

    def insert_table(self, table: Table) -> int:
        """Insert every row of a table (schema must match)."""
        if table.schema != self.schema:
            raise SchemaError("table schema does not match")
        return self.insert_codes(table.code_matrix())

    def _drain_buffer(self) -> int:
        """Seal as many all-distinct groups of l tuples as the buffer
        allows (the group-creation step restricted to the buffer)."""
        start = time.perf_counter()
        sealed: list[list[int]] = []
        while True:
            nonempty = [c for c, rows in self._buffer.items() if rows]
            if len(nonempty) < self.l:
                break
            nonempty.sort(key=lambda c: len(self._buffer[c]),
                          reverse=True)
            for code in nonempty[:self.l]:
                rows = self._buffer[code]
                pick = int(self._rng.integers(len(rows)))
                rows[pick], rows[-1] = rows[-1], rows[pick]
                sealed.append(rows.pop())
        if sealed:
            self._append_groups(np.asarray(sealed, dtype=np.int32))
            record("incremental.seal", time.perf_counter() - start,
                   sealed=len(sealed) // self.l)
        return len(sealed) // self.l

    def _append_groups(self, rows: np.ndarray) -> None:
        """Append freshly sealed groups (``l`` consecutive rows each)."""
        n, groups = self._sealed * self.l, len(rows) // self.l
        sensitive = rows[:, -1]
        self._qi = self._qi.append(n, rows[:, :-1])
        self._sensitive = self._sensitive.append(n, sensitive)
        self._group_ids = self._group_ids.append(n, np.repeat(
            np.arange(self._sealed + 1, self._sealed + groups + 1,
                      dtype=np.int32), self.l))
        self._st_codes = self._st_codes.append(
            n, np.sort(sensitive.reshape(groups, self.l), axis=1).ravel())
        self._ones = self._ones.append(n, np.ones(len(rows), np.int64))
        self._buffered -= len(rows)
        self._sealed += groups

    # ------------------------------------------------------------------ #
    # state
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """Monotonically increasing release version.

        The version equals the number of sealed groups, so it bumps
        exactly when the release changes and, because groups are
        immutable and append-only, the release at version ``v`` is
        always the first ``v`` groups (see :meth:`publish`).
        """
        return self._sealed

    @property
    def published_tuple_count(self) -> int:
        return self.l * self._sealed

    @property
    def group_count(self) -> int:
        return self._sealed

    @property
    def buffered_count(self) -> int:
        """Tuples withheld from the current release."""
        return self._buffered

    def buffered_histogram(self) -> dict[int, int]:
        return {c: len(rows) for c, rows in self._buffer.items()
                if rows}

    # ------------------------------------------------------------------ #
    # publication
    # ------------------------------------------------------------------ #

    def _check_version(self, at_version: int | None) -> int:
        version = self.version if at_version is None else int(at_version)
        if not 1 <= version <= self._sealed:
            raise ReproError(
                "nothing to publish yet: fewer than l distinct "
                "sensitive values have arrived"
                if not self._sealed else
                f"no release at version {version}; current version is "
                f"{self.version}")
        return version

    def publish(self, at_version: int | None = None) -> AnatomizedTables:
        """The release at ``at_version`` (default: current) as QIT/ST.

        Group-IDs are stable across successive calls — group ``j`` in
        one release is group ``j`` in every later release, with
        identical membership — so the release at version ``v`` is the
        first ``v`` sealed groups, and its QIT/ST arrays are read-only
        prefix views of the sealed-row store: publishing copies
        nothing, and later ingests never change a release already
        handed out.
        """
        version = self._check_version(at_version)
        n = version * self.l
        gids = self._group_ids.view(n)
        qit = QuasiIdentifierTable(self.schema, self._qi.view(n), gids)
        st = SensitiveTable.from_sorted(
            self.schema, gids, self._st_codes.view(n), self._ones.view(n),
            np.arange(0, n + 1, self.l))
        return AnatomizedTables(
            self.schema, qit, st,
            partition=partial(_consecutive_groups, self.microdata(version),
                              self.l))

    def microdata(self, at_version: int | None = None) -> Table:
        """The *published* rows at ``at_version`` as a microdata table.

        This is the retained ground truth behind the release
        :meth:`publish` builds from the same sealed groups: row order
        follows Group-ID order, buffered (unpublished) tuples are
        excluded, so COUNT queries evaluated on it are the exact
        answers the release's anatomized estimate approximates — the
        canary utility monitor measures the paper's Section-7 relative
        error against exactly this table.
        """
        n = self._check_version(at_version) * self.l
        qi = self._qi.view(n)
        columns = {a.name: qi[:, k]
                   for k, a in enumerate(self.schema.qi_attributes)}
        columns[self.schema.sensitive.name] = self._sensitive.view(n)
        return Table(self.schema, columns, validate=False)

    def flush_report(self) -> dict[str, int]:
        """Why the buffered tuples cannot be sealed yet: per sensitive
        code, how many are waiting (fewer than l distinct codes have
        non-empty buckets)."""
        return {
            "buffered": self._buffered,
            "distinct_values_waiting": len(self.buffered_histogram()),
            "needed_distinct_values": self.l,
        }
