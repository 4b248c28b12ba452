"""A fixed amount of work that is no part of ``repro``: the benchmark's yardstick.

    python perfbench/reference.py

The benchmark launches this between the ``repro`` invocations it measures, with
the same environment, and scales every time it reports by how long these
launches took in the same run (see ``host_factors`` in ``run.py``).  A shared
host's speed drifts by tens of percent over minutes, and a launch of this
script slows down and speeds up with it.  The work mirrors what a ``repro
report`` process spends its time on: interpreter start-up and the numpy
import, LAPACK and BLAS calls, Python loops and JSON.  It must not change, or
times measured before and after the change stop being comparable.
"""

import json

import numpy as np


def main() -> float:
    rng = np.random.default_rng(20240521)
    matrix = rng.standard_normal((160, 160))
    spectrum = sum(float(np.linalg.svd(matrix, compute_uv=False)[0]) for _ in range(3))
    product = float(np.abs(matrix @ matrix.T).sum())
    total = 0
    for value in range(150_000):
        total += value * value % 7
    document = [{"row": row, "label": str(row), "value": row * 0.5} for row in range(15_000)]
    decoded = json.loads(json.dumps(document))
    return spectrum + product + total + len(decoded)


if __name__ == "__main__":
    main()
