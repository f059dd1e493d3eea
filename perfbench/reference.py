"""A fixed reference computation, timed next to every op, to cancel host speed swings.

On a shared 2-core VM the same op took 240 ms in one 30 s window and 430 ms
in another, and this kernel slowed with it (0.9 to 1.5 ms).  The end-to-end
times are therefore reported at reference speed: each measured time is
multiplied by ``REF_MS`` / (kernel time measured right after it).  The kernel
mixes the library's two kinds of work, small-array numpy and plain Python
loops, and calls nothing in the package, so a change to the package cannot
move it.
"""

from __future__ import annotations

import time

import numpy as np

#: kernel time that defines reference speed; times are reported as if the kernel took this long
REF_MS = 1.0

_RNG = np.random.default_rng(0)
_POINTS = _RNG.standard_normal((400, 3))
_FORM = _RNG.standard_normal((3, 3)) + 1j * _RNG.standard_normal((3, 3))


def kernel() -> float:
    total = 0.0
    for _ in range(20):
        quad = np.einsum("ni,ij,nj->n", _POINTS, _FORM, _POINTS)
        total += float(np.exp(1j * np.pi * quad).sum().real)
        total += sum(i * i for i in range(300))
    return total


def kernel_ms(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` kernel runs, in milliseconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)) * 1e3
