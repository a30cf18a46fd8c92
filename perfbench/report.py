"""The traced-run report: per-layer metrics beside the end-to-end metric
each should move, and the tracing overhead of every workload.

    python3 perfbench/report.py --seed 1 --seconds 20

For every workload it runs ``perfbench/run.py`` twice, plain and traced,
with the same seed, and prints:

* the plain run's end-to-end metrics;
* every per-layer metric of the traced run that the workload crosses,
  with the end-to-end metric it should move and that metric's plain
  value;
* the tracing overhead, traced minus plain;
* self time per span name, from the traced run's span file.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not __package__:
    # Run as a script: import the benchmark as the ``perfbench`` package.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perfbench.inputs import FULL  # noqa: E402
from perfbench.measure import Spans  # noqa: E402
from perfbench.spec import (  # noqa: E402
    END_TO_END, LAYERS, PER_LAYER, UNITS, WORKLOADS)


def _run(workload: str, seed: int, seconds: float,
         trace: int) -> tuple[dict, list[str]]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} (trace {trace}) failed with code "
                         f"{done.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def _self_times(lines: list[str]) -> dict[str, float]:
    path = next(line.split(" ", 1)[1] for line in lines
                if line.startswith("spans "))
    spans = Spans()
    with (ROOT / path).open() as records:
        for line in records:
            record = json.loads(line)
            spans.record(record["name"], record["op"], record["start"],
                         record["end"], record["parent"])
    return spans.self_times()


def _overhead(workload: str, plain: dict, traced: dict) -> str:
    if workload == "publish":
        before = FULL.base_rows / plain["publish_rows_per_s"]
        after = sum(traced[name] for name in (
            "core.partition_s", "core.tables_s", "obs.audit_s",
            "query.index_s"))
        return (f"publish pipeline {after:.4f} s traced - {before:.4f} s "
                f"plain = {after - before:+.4f} s")
    before, after = plain["query_p50_ms"], traced["http.client_ms"]
    return (f"query p50 {after:.3f} ms traced (http.client_ms) - "
            f"{before:.3f} ms plain = {after - before:+.3f} ms")


def report(workload: str, seed: int, seconds: float) -> None:
    plain_doc, _ = _run(workload, seed, seconds, 0)
    traced_doc, traced_lines = _run(workload, seed, seconds, 1)
    plain = {k: v["value"] for k, v in plain_doc["metrics"].items()}
    traced = {k: v["value"] for k, v in traced_doc["metrics"].items()}
    print(f"== {workload}  seed {seed}  {seconds:g} s")
    for label, doc in (("plain", plain_doc), ("traced", traced_doc)):
        print(f"   {label}: correct={doc['correct']} "
              f"attempted={doc['attempted']} failed={doc['failed']}")
    print("   end-to-end (plain run)")
    for name in END_TO_END:
        print(f"     {name:30s} {plain[name]:14.6g} {UNITS[name]}")
    print("   per-layer (traced run)            value  unit   "
          "should move -> its plain value")
    for name in PER_LAYER:
        moves, crossing = LAYERS[name]
        if workload not in crossing:
            continue
        target = moves.split(" ")[0].rstrip(",")
        now = (f" -> {plain[target]:.6g} {UNITS[target]}"
               if target in plain else "")
        print(f"     {name:30s} {traced[name]:12.6g} {UNITS[name]:6s} "
              f"{moves}{now}")
    print(f"   tracing overhead: {_overhead(workload, plain, traced)}")
    print("   self time per span (traced run, total seconds)")
    for name, total in sorted(_self_times(traced_lines).items(),
                              key=lambda item: -item[1]):
        print(f"     {name:30s} {total:10.4f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    for workload in WORKLOADS:
        report(workload, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
