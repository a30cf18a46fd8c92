"""An independent oracle for published anatomy releases.

It reads only the five raw arrays of a release (QIT QI codes and
Group-IDs; ST Group-IDs, sensitive codes and counts) and the rows that
were handed to the publisher, and recomputes every privacy figure by
brute force in exact rational arithmetic.  It imports nothing from
``repro``, so it shares no code with :mod:`repro.obs.audit` or with the
publishers it checks.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from fractions import Fraction

import numpy as np


class OracleReport:
    """What the oracle measured on one sound release."""

    def __init__(self, max_group_frequency: Fraction,
                 breach: Fraction) -> None:
        #: ``max_j c_j(v) / |QI_j|`` over every group and value.
        self.max_group_frequency = max_group_frequency
        #: The largest Corollary-1 posterior over distinct QI vectors.
        self.breach = breach


def check_release(qi_codes, group_ids, st_group_ids, st_codes, st_counts,
                  l: int, input_rows, withheld: int = 0) -> OracleReport:
    """Check a release; raise ``AssertionError`` naming the first fault.

    ``input_rows`` are all rows handed to the publisher (QI codes, then
    the sensitive code); ``withheld`` of them may be unpublished.
    """
    qi_rows = [tuple(int(v) for v in row) for row in qi_codes]
    gids = [int(g) for g in group_ids]
    records = list(zip((int(g) for g in st_group_ids),
                       (int(c) for c in st_codes),
                       (int(k) for k in st_counts)))
    inputs = [tuple(int(v) for v in row) for row in input_rows]

    sizes = Counter(gids)
    histograms: dict[int, dict[int, int]] = defaultdict(dict)
    for gid, code, count in records:
        assert count > 0, f"group {gid}: non-positive count {count}"
        assert code not in histograms[gid], \
            f"group {gid}: value {code} recorded twice"
        histograms[gid][code] = count
    assert set(histograms) == set(sizes), "QIT and ST name different groups"

    max_frequency = Fraction(0)
    for gid, hist in histograms.items():
        assert sum(hist.values()) == sizes[gid], \
            f"group {gid}: ST counts do not sum to its QIT size"
        top = max(hist.values())
        assert top * l <= sizes[gid], \
            f"group {gid}: a value {top} times in {sizes[gid]} rows " \
            f"breaks 1/{l}"
        max_frequency = max(max_frequency, Fraction(top, sizes[gid]))

    # Corollary 1, brute force: the adversary averages the group
    # distributions of every QIT row carrying the target's QI vector.
    rows_of: dict[tuple, list[int]] = defaultdict(list)
    for qi, gid in zip(qi_rows, gids):
        rows_of[qi].append(gid)
    breach = Fraction(0)
    for candidates in rows_of.values():
        posterior: dict[int, Fraction] = defaultdict(Fraction)
        for gid in candidates:
            for code, count in histograms[gid].items():
                posterior[code] += Fraction(count, sizes[gid]
                                            * len(candidates))
        breach = max(breach, max(posterior.values()))
    assert breach <= Fraction(1, l), \
        f"an individual's breach probability {breach} exceeds 1/{l}"

    # Rows are preserved: the published QI vectors and sensitive values
    # are the input's, short by exactly the withheld rows.
    assert len(qi_rows) == len(inputs) - withheld, \
        f"{len(qi_rows)} published rows, expected " \
        f"{len(inputs)} - {withheld}"
    published_qi = Counter(qi_rows)
    published_sensitive = Counter()
    for _, code, count in records:
        published_sensitive[code] += count
    assert not published_qi - Counter(row[:-1] for row in inputs), \
        "QIT holds QI vectors the input does not"
    assert not published_sensitive - Counter(row[-1] for row in inputs), \
        "ST holds sensitive values the input does not"
    return OracleReport(max_frequency, breach)


def check_tables(release, l: int, input_rows,
                 withheld: int = 0) -> OracleReport:
    """:func:`check_release` on an object with ``qit``/``st`` tables."""
    qit, st = release.qit, release.st
    return check_release(qit.qi_codes, qit.group_ids, st.group_ids,
                         st.sensitive_codes, st.counts, l, input_rows,
                         withheld)


def agrees_with_audit(report: OracleReport, max_group_frequency: float,
                      breach_probability: float, method: str) -> bool:
    """Whether an audit's figures match the oracle's.

    The group frequency is a single division, so it must match to the
    bit.  An exact adversary's breach is a float sum, equal within
    rounding; a group-bound audit reports the group frequency, which
    must bound the true breach.
    """
    if max_group_frequency != float(report.max_group_frequency):
        return False
    if method == "adversary-exact":
        return abs(breach_probability - float(report.breach)) <= 1e-12
    return (breach_probability == max_group_frequency
            and float(report.breach) <= breach_probability)
