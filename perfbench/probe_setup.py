"""Time what ``fracdecomp solve`` does before its first solve, in this interpreter.

    PYTHONPATH=src python3 perfbench/probe_setup.py p7 0.75 [ALPHA ...]

Prints the seconds spent importing ``fracdecomp.cli`` and building and
auditing the problem spec for each order.
"""

import sys
import time


def main(argv) -> None:
    t0 = time.perf_counter()
    import fracdecomp.cli  # noqa: F401  (the import is what is timed)
    from fracdecomp import problems

    pid, alphas = argv[0], argv[1:]
    for alpha in alphas:
        problems.validate_consistency(problems.builtin(pid, float(alpha), "manufactured"))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
