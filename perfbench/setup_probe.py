"""Time one workload's set-up in this fresh interpreter and print it as JSON.

Set-up is importing the engine, building the model zoo and constructing the
workload's sessions; generating the inputs is excluded.  ``run.py`` starts
this script several times per run because imports dominate set-up and only
a new interpreter pays for them.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <max_workers>``
"""

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main() -> None:
    name, seed, max_workers = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    start = time.perf_counter()
    import repro  # noqa: F401
    import workloads
    from repro.frontend.registry import get_library_zoo

    imported = time.perf_counter()
    workload = workloads.all_workloads(max_workers)[name]
    inputs = workload.build(seed)
    built = time.perf_counter()
    workload.sessions(inputs, get_library_zoo())
    done = time.perf_counter()
    print(json.dumps({"setup_s": (imported - start) + (done - built)}))


if __name__ == "__main__":
    main()
