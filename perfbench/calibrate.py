"""Host-speed calibration: a fixed kernel timed between CLI invocations.

On a shared host the CPU runs in a fast state and in one up to twice as
slow, switching every few seconds; a run of 36 s can sit in either.  The
worker times ``measure(kind)`` before and after every invocation and divides
the invocation's wall time by the mean of the two readings.  Multiplied by
``REFERENCE_S[kind]`` this gives the invocation's time at reference speed:
the speed at which the kernel takes ``REFERENCE_S[kind]`` seconds.  The
kernels do not import rqit, so a change to the program cannot change them.

Not all code slows down alike when the host does: interpreted Python slows
most, large dense kernels least.  So there are two kernels, each matched to
the work of the workloads that use it:

- ``mixed``: interpreted Python, numpy calls on small batched arrays and
  LAPACK on a 200 x 200 matrix, in about equal shares.  For workloads made
  of many small calls.
- ``dense``: rank-one updates of an 800 x 800 complex matrix, the way the
  shared state is built, and LAPACK on a 320 x 320 matrix.  For workloads
  made of a few calls on large dense operators.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds each kernel takes on a 2-core Xeon host in its fast state, rounded.
REFERENCE_S = {"mixed": 0.04, "dense": 0.03}

_rng = np.random.default_rng(20121012)
_SYM = _rng.standard_normal((200, 200))
_SYM = _SYM + _SYM.T
_BATCH = _rng.standard_normal((256, 2, 2)) + 1j * _rng.standard_normal((256, 2, 2))


def _python_part() -> int:
    acc = 0
    table = {}
    for i in range(110000):
        acc += (i * i) % 7
        table[i & 255] = acc
    return acc + len(table)


def _numpy_part() -> float:
    total = 0.0
    for _ in range(40):
        q, _r = np.linalg.qr(_BATCH)
        prod = np.einsum("nij,njk,nlk->nil", q, _BATCH, q.conj())
        total += float(np.abs(prod).sum())
    return total


def _lapack_part() -> float:
    total = 0.0
    for _ in range(8):
        total += float(np.linalg.eigvalsh(_SYM)[-1])
    return total


_VEC = _rng.standard_normal(800) + 1j * _rng.standard_normal(800)
_SYM_LARGE = _rng.standard_normal((320, 320))
_SYM_LARGE = _SYM_LARGE + _SYM_LARGE.T


def _outer_part() -> float:
    # Allocated per call, so that the worker's peak resident set does not
    # carry it on top of the program's.
    acc = np.zeros((_VEC.size, _VEC.size), dtype=complex)
    for k in range(4):
        acc += 0.5**k * np.outer(_VEC, _VEC.conj())
    return float(acc[0, 0].real)


def _lapack_large_part() -> float:
    total = 0.0
    for _ in range(2):
        total += float(np.linalg.eigvalsh(_SYM_LARGE)[-1])
    return total


PARTS = {
    "mixed": (_python_part, _numpy_part, _lapack_part),
    "dense": (_outer_part, _lapack_large_part),
}


def measure(kind: str) -> float:
    """Wall seconds of one pass of the ``kind`` kernel."""
    t0 = time.perf_counter()
    for part in PARTS[kind]:
        part()
    return time.perf_counter() - t0


if __name__ == "__main__":
    for kind in PARTS:
        samples = sorted(measure(kind) for _ in range(41))
        print(f"{kind}: min {samples[0]:.4f} s, median {samples[20]:.4f} s")
