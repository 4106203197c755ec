"""A fixed reference computation, timed between the CLI runs.

Usage::

    python perfbench/reference.py

It imports no part of ``repro`` and its inputs never change, so its
time moves only with the host's speed.  The mix follows the CLI's:
importing numpy and scipy, dictionary-heavy Python, whole-array numpy
arithmetic and a batch of small HiGHS linear programs.  Dividing a
CLI run's time by the reference runs around it takes out the host's
slow drift (on a shared 2-vCPU KVM guest the same CLI run took up to
1.7 times as long when other tenants were busy) and keeps every change
to the program.
"""

import random

import numpy
import scipy.optimize


def main() -> None:
    generator = random.Random(20240101)
    counts: dict[int, int] = {}
    for index in range(100_000):
        key = generator.randrange(40_000)
        counts[key] = counts.get(key, 0) + index
    ordered = sorted(counts.items(), key=lambda item: (item[1], item[0]))

    values = numpy.arange(1_000_000, dtype=float)
    for _ in range(8):
        values = numpy.sqrt(values * 1.0001 + 1.0)
    total = float(numpy.convolve(values[:8_000], values[:1_000]).sum())

    rng = numpy.random.default_rng(7)
    objective = 0.0
    for _ in range(20):
        costs = -rng.random(30)
        bounds = rng.random((12, 30))
        result = scipy.optimize.linprog(costs, A_ub=bounds,
                                        b_ub=numpy.ones(12),
                                        bounds=(0, 1), method="highs")
        objective += result.fun
    print(len(ordered), round(total, 3), round(objective, 6))


if __name__ == "__main__":
    main()
