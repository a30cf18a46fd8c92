"""The benchmark's own tests: tiny runs of every workload, the release
oracle and answer check, and the server child's lifetime.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.anatomize import anatomize
from repro.dataset.census import CensusDataset

from perfbench import serve
from perfbench.client import ServerChild, child_env
from perfbench.inputs import TINY
from perfbench.measure import Result
from perfbench.oracle import Release, check_release, same_answer
from perfbench.spec import END_TO_END, LAYERS, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_completes_and_passes_its_checks(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "1", "--trace", trace, "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    if trace == "0":
        assert set(result["metrics"]) == set(END_TO_END)
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert set(result["metrics"]) == set(PER_LAYER)
        for name in PER_LAYER:
            if (workload in LAYERS[name][1]
                    and name != "service.cache_hit_ratio"):
                assert result["metrics"][name]["value"] != 0, name


def test_every_per_layer_metric_has_a_layer_entry():
    assert set(LAYERS) == set(PER_LAYER)
    for _, crossing in LAYERS.values():
        assert set(crossing) <= set(WORKLOADS)


@pytest.fixture(scope="module")
def small_release():
    table = CensusDataset(n=2_000, seed=5).occ(3)
    return table, anatomize(table, l=4, seed=0)


def test_oracle_accepts_a_sound_release(small_release):
    table, release = small_release
    assert check_release(Release.of(release), 4, table.code_matrix()) == []


def test_oracle_rejects_a_group_over_one_over_l(small_release):
    table, release = small_release
    raw = Release.of(release)
    # Fold the first group's second record into its first: that group
    # now holds one value twice, over 1/l, with its size unchanged.
    first = np.flatnonzero(raw.st_group_ids == raw.st_group_ids[0])
    counts = raw.st_counts.copy()
    counts[first[0]] += counts[first[1]]
    keep = np.ones(len(counts), dtype=bool)
    keep[first[1]] = False
    corrupt = Release(raw.qi_codes, raw.group_ids, raw.st_group_ids[keep],
                      raw.st_codes[keep], counts[keep])
    problems = check_release(corrupt, 4, table.code_matrix())
    assert any("over 1/l" in p for p in problems)
    assert any("Corollary 1" in p for p in problems)


def test_oracle_rejects_lost_or_invented_rows(small_release):
    table, release = small_release
    rows = table.code_matrix()
    assert check_release(Release.of(release), 4, rows[1:])
    assert check_release(Release.of(release), 4, rows, withheld=1)


def test_answer_check_rejects_a_perturbed_answer():
    exact = 1234.5
    assert same_answer(exact, exact)
    assert not same_answer(float(np.nextafter(exact, np.inf)), exact)
    ledger = serve.Ledger()
    ledger.add("query", True, [(("fresh", 0), 7, exact)])
    ledger.add("query", True, [(("fresh", 1), 7, exact + 1e-9)])
    result = Result()
    ledger.settle(result, lambda key, version: exact)
    assert (result.attempted, result.failed) == (2, 1)
    assert not result.correct


def _port_is_free(port: int) -> bool:
    with socket.socket() as sock:
        return sock.connect_ex(("127.0.0.1", port)) != 0


def test_server_child_stops_when_the_body_raises():
    with pytest.raises(RuntimeError):
        with ServerChild(ROOT, child_env(ROOT)) as server:
            child, port = server.process, server.port
            assert not _port_is_free(port)
            raise RuntimeError("run failed")
    assert child.poll() is not None
    assert _port_is_free(port)


def test_server_child_stops_when_a_serve_run_fails(monkeypatch):
    started = []

    class Recorded(ServerChild):
        def __enter__(self):
            started.append(super().__enter__())
            return self

    def fail(*args, **kwargs):
        raise RuntimeError("phase failed")

    monkeypatch.setattr(serve, "ServerChild", Recorded)
    monkeypatch.setattr(serve, "_closed_loop", fail)
    with pytest.raises(RuntimeError, match="phase failed"):
        serve.run_read(TINY, 4, 0.5, False)
    assert started
    for server in started:
        assert server.process.poll() is not None
        assert _port_is_free(server.port)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(tmp_path, "--workload", "publish", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
