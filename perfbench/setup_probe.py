"""Time one workload's set-up in a fresh interpreter and print the seconds.

Usage: python3 setup_probe.py WORKLOAD SEED CHECKOUT_ROOT WORK_DIR

Set-up covers importing ``dynclear`` and the benchmark's workload module,
config validation, ``build_environment`` and writing any generated input
file into WORK_DIR.
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> None:
    name, seed, root, work_dir = argv
    sys.path[:0] = [os.path.join(root, "src"), os.path.dirname(os.path.abspath(__file__))]
    from workloads import WORKLOADS

    WORKLOADS[name].prepare(int(seed), root, work_dir, False)
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main(sys.argv[1:])
