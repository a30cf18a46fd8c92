"""An independent check of a published release and of served answers.

The release oracle reads only the raw QIT (QI codes and Group-IDs) and
ST (Group-ID, sensitive code, count) arrays and the rows handed to the
publisher.  It shares no code with ``repro.obs.audit``: every bound is
recomputed here from the arrays with plain numpy.
"""

from __future__ import annotations

import math

import numpy as np

#: Slack for the floating-point posterior sums of the Corollary-1 check
#: (the group-level check is exact integer arithmetic).
BREACH_TOLERANCE = 1e-12


class Release:
    """The raw arrays of one QIT/ST pair."""

    def __init__(self, qi_codes, group_ids, st_group_ids, st_codes,
                 st_counts) -> None:
        self.qi_codes = np.asarray(qi_codes, dtype=np.int64)
        self.group_ids = np.asarray(group_ids, dtype=np.int64)
        self.st_group_ids = np.asarray(st_group_ids, dtype=np.int64)
        self.st_codes = np.asarray(st_codes, dtype=np.int64)
        self.st_counts = np.asarray(st_counts, dtype=np.int64)

    @classmethod
    def of(cls, release) -> "Release":
        """From an in-process ``AnatomizedTables``."""
        st = release.st
        return cls(release.qit.qi_codes, release.qit.group_ids,
                   st.group_ids, st.sensitive_codes, st.counts)

    @classmethod
    def from_http(cls, schema, payload: dict) -> "Release":
        """From the decoded ``qit``/``st`` rows of ``GET
        /publications/{name}/publish?include_tables=1``."""
        qit = payload["qit"]
        st = payload["st"]
        d = len(schema.qi_attributes)
        qi = np.empty((len(qit), d), dtype=np.int64)
        for k, attr in enumerate(schema.qi_attributes):
            code_of = {value: code for code, value in enumerate(attr.values)}
            qi[:, k] = [code_of[row[k]] for row in qit]
        code_of = {value: code
                   for code, value in enumerate(schema.sensitive.values)}
        return cls(qi, [row[d] for row in qit], [rec[0] for rec in st],
                   [code_of[rec[1]] for rec in st], [rec[2] for rec in st])

    def same_as(self, other: "Release") -> bool:
        return all(np.array_equal(a, b) for a, b in zip(
            (self.qi_codes, self.group_ids, self.st_group_ids,
             self.st_codes, self.st_counts),
            (other.qi_codes, other.group_ids, other.st_group_ids,
             other.st_codes, other.st_counts)))


def _row_keys(qi: np.ndarray, radix: np.ndarray) -> np.ndarray:
    """One int64 key per QI vector (mixed radix over the domains)."""
    keys = np.zeros(len(qi), dtype=np.int64)
    for k in range(qi.shape[1]):
        keys = keys * radix[k] + qi[:, k]
    return keys


def check_release(release: Release, l: int, input_rows: np.ndarray, *,
                  withheld: int = 0) -> list[str]:
    """Every violation found in ``release``; empty when it is sound.

    ``input_rows`` holds every row (QI codes, then the sensitive code)
    handed to the publisher, and ``withheld`` how many of them the
    publisher reports as not yet published (the incremental buffer).
    Checked:

    * QIT and ST describe the same groups, and each group's ST counts
      sum to its QIT size;
    * every group's largest sensitive count is at most size/l;
    * Corollary 1 per individual: for every distinct QI vector, the
      adversary's posterior over sensitive values — the average of the
      group distributions of the QIT rows carrying that vector — is at
      most 1/l;
    * the row count is the input's less ``withheld``, and the QI-vector
      and sensitive-value multisets are the input's (a sub-multiset
      short by exactly ``withheld`` rows when rows are withheld).
    """
    problems: list[str] = []
    input_rows = np.asarray(input_rows, dtype=np.int64)
    n = len(release.group_ids)
    if n != len(input_rows) - withheld:
        problems.append(f"release has {n} rows, expected "
                        f"{len(input_rows)} - {withheld} withheld")
    if n == 0:
        return problems or ["release is empty"]
    if (release.st_counts <= 0).any():
        problems.append("ST has a non-positive count")
        return problems

    groups, qit_sizes = np.unique(release.group_ids, return_counts=True)
    if not np.array_equal(groups, np.unique(release.st_group_ids)):
        problems.append("QIT and ST name different groups")
        return problems
    st_group = np.searchsorted(groups, release.st_group_ids)
    n_codes = int(max(release.st_codes.max(), input_rows[:, -1].max())) + 1
    pair = st_group * n_codes + release.st_codes
    if len(np.unique(pair)) != len(pair):
        problems.append("ST repeats a (group, value) record")
    st_sizes = np.bincount(st_group, weights=release.st_counts,
                           minlength=len(groups)).astype(np.int64)
    bad = np.flatnonzero(st_sizes != qit_sizes)
    if len(bad):
        problems.append(f"{len(bad)} groups whose ST counts do not sum "
                        f"to their QIT size (first Group-ID "
                        f"{groups[bad[0]]})")
    largest = np.zeros(len(groups), dtype=np.int64)
    np.maximum.at(largest, st_group, release.st_counts)
    over = np.flatnonzero(l * largest > qit_sizes)
    if len(over):
        g = over[0]
        problems.append(f"{len(over)} groups over 1/l: Group-ID "
                        f"{groups[g]} has a value {largest[g]} times in "
                        f"{qit_sizes[g]} rows (l={l})")

    radix = np.maximum(release.qi_codes.max(axis=0),
                       input_rows[:, :-1].max(axis=0)) + 1
    keys = _row_keys(release.qi_codes, radix)
    vectors, vector_of_row, rows_per_vector = np.unique(
        keys, return_inverse=True, return_counts=True)
    group_of_row = np.searchsorted(groups, release.group_ids)
    worst = 0.0
    for code in np.unique(release.st_codes):
        mask = release.st_codes == code
        share = np.zeros(len(groups))
        share[st_group[mask]] = release.st_counts[mask] / \
            qit_sizes[st_group[mask]]
        posterior = np.bincount(vector_of_row, weights=share[group_of_row],
                                minlength=len(vectors)) / rows_per_vector
        worst = max(worst, float(posterior.max()))
    if worst > 1.0 / l + BREACH_TOLERANCE:
        problems.append(f"Corollary 1 violated: an individual's breach "
                        f"probability is {worst:.6g} > 1/{l}")

    in_vectors, in_counts = np.unique(
        _row_keys(input_rows[:, :-1], radix), return_counts=True)
    rel_counts = np.bincount(vector_of_row)
    at = np.searchsorted(in_vectors, vectors)
    known = at < len(in_vectors)
    known[known] = in_vectors[at[known]] == vectors[known]
    # With the row count checked above, inclusion of the release's
    # multisets in the input's makes them equal up to the withheld rows.
    if not known.all() or (rel_counts > in_counts[at]).any():
        problems.append("QIT holds QI vectors the input does not")
    in_hist = np.bincount(input_rows[:, -1], minlength=n_codes)
    st_hist = np.bincount(release.st_codes, weights=release.st_counts,
                          minlength=n_codes).astype(np.int64)
    if (st_hist > in_hist).any():
        problems.append("ST holds sensitive values the input does not")
    return problems


def same_answer(served: float, reference: float) -> bool:
    """Bit-for-bit equality of a served answer with its reference."""
    return (not math.isnan(served)) and float(served) == float(reference)
