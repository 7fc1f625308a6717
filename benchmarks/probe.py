"""Machine-speed probe: a fixed amount of work that does not use bdmadapt.

    python3 benchmarks/probe.py

Imports numpy and scipy in a fresh process and runs a fixed mix of the kinds
of work the workloads do (a sparse LU of a saddle-point matrix, batched small
dense solves and contractions, a Python loop over tuples and dicts), then
prints {"probe_s": seconds} as its only line.  benchmarks/run.py runs it
between repetitions: the shared machine's speed drifts by tens of percent
over minutes, and the ratio of workload time to probe time does not.
"""

import json
import time


def main():
    t0 = time.perf_counter()
    import numpy as np
    from scipy.sparse import bmat, diags, identity, kron
    from scipy.sparse.linalg import splu

    n = 90
    tri = diags([-1.0, 4.0, -1.0], [-1, 0, 1], shape=(n, n))
    mass = (kron(identity(n), tri) + kron(tri, identity(n))).tocsc()
    div = diags([1.0, -1.0], [0, 1], shape=(n * n // 2, n * n))
    saddle = bmat([[mass, -div.T], [div, None]], format="csc")
    rhs = np.linspace(0.0, 1.0, saddle.shape[0])
    rng = np.random.default_rng(0)
    local = rng.random((2000, 15, 15)) + 15.0 * np.eye(15)
    load = rng.random((2000, 15))
    table = rng.random((2, 2, 15, 15))
    for _ in range(3):
        splu(saddle).solve(rhs)
        np.linalg.solve(local, load[..., None])
        np.einsum("nab,abij->nij", local[:, :2, :2], table)
        np.einsum("ni,nij,nj->n", load, local, load)
        edges = {}
        for k in range(40000):
            key = (k % 613, (k * 7) % 211)
            edges[key] = edges.get(key, 0) + 1
    print(json.dumps({"probe_s": time.perf_counter() - t0}))


if __name__ == "__main__":
    main()
