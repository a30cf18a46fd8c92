"""Run one benchmark workload and print its result as the last line.

    python3 perfbench/run.py --workload publish --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
same operations with per-layer spans and prints the per-layer metrics
instead (spans go to ``perfbench/out/``).  The last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads; the server child
# inherits the same environment.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_PINS:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def _terminate(signum, frame) -> None:
    # Unwind through the context managers that stop the server child.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    from perfbench.spec import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every input, for the "
                             "benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the repro package is missing under {ROOT}/src; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _terminate)

    import numpy

    from perfbench import publish, serve
    from perfbench.inputs import SCALES

    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "scale": args.scale, "nproc": os.cpu_count(),
           "thread_pins": {name: os.environ[name] for name in THREAD_PINS},
           "python": platform.python_version(),
           "numpy": numpy.__version__}
    print("env " + json.dumps(env), flush=True)

    runner = {"publish": publish.run, "serve_read": serve.run_read,
              "serve_mixed": serve.run_mixed}[args.workload]
    result, spans = runner(SCALES[args.scale], args.seed, args.seconds,
                           bool(args.trace))
    if args.trace:
        path = (ROOT / "perfbench" / "out"
                / f"spans-{args.workload}-seed{args.seed}.jsonl")
        spans.write(path)
        print(f"spans {path.relative_to(ROOT)}")
    if result.samples:
        print("samples " + json.dumps(result.samples))
    line = result.line(bool(args.trace), args.workload)
    for problem in result.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(line, flush=True)
    return 0 if result.correct else 1


if __name__ == "__main__":
    # Import the benchmark as the ``perfbench`` package, not as loose
    # modules of the script's directory.
    sys.path[0] = str(ROOT)
    sys.exit(main())
