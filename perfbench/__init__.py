"""The repository benchmark: offline publish, HTTP point queries, and
ingest beside queries, each checked for correctness.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``; see ``perfbench/README.md``.
"""
