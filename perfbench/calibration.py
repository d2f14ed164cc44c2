"""Calibration kernels: fixed work owned by the benchmark, timed all
through a run to gauge how fast the machine is at that moment.

On a shared machine the same solve can take twice as long from one minute
to the next.  Each workload names the kernel that does its kind of work,
and the kernel runs between every two timed solves; a solve's time is
reported in reference seconds, measured seconds times REFERENCE_S[kernel]
/ the geometric mean of the kernel's times just before and just after it.
A change to millopt cannot move these kernels.
"""

from __future__ import annotations

import numpy as np


def es_like() -> None:
    """An ES-style generation loop on small arrays: interpreter and
    small-array numpy overhead, like es.step and batch_evaluate."""
    rng = np.random.default_rng(0)
    genomes = rng.random((15, 10))
    sigmas = np.full((15, 10), 0.3)
    for _ in range(50):
        first, second = rng.integers(0, 15, 105), rng.integers(0, 15, 105)
        take = rng.integers(0, 2, (105, 10)).astype(bool)
        children = np.where(take, genomes[first], genomes[second])
        steps = 0.5 * (sigmas[first] + sigmas[second])
        steps = steps * np.exp(0.2 * rng.standard_normal((105, 1)) + 0.3 * rng.standard_normal((105, 10)))
        children = np.clip(children + steps * rng.standard_normal((105, 10)), 0.01, 1.0)
        score = (children[:, :5] / children[:, 5:] ** 0.8).sum(axis=1)
        order = np.argsort(-score, kind="stable")[:15]
        genomes, sigmas = children[order], steps[order]


def grid_like() -> None:
    """One masked arg-min over a 512 x 2000 block, the shape of a grid
    oracle chunk: large-array, memory-bound numpy."""
    v = np.linspace(1.0, 2.0, 512)[:, None]
    f = np.linspace(0.1, 0.5, 2000)[None, :]
    values = 3.0 / v / f + 0.5 * v**2.3 * f**1.1 + 1.0
    np.argmin(np.where(2.0 * v * f**0.8 <= 1.5, values, np.inf))


KERNELS = {"es_like": es_like, "grid_like": grid_like}

# Each kernel's time on a 2-vCPU Intel Xeon KVM guest (2 MiB L2 per core),
# the fastest first quartile seen there: results are given in seconds of
# that machine at that speed.
REFERENCE_S = {"es_like": 0.0062, "grid_like": 0.0135}
