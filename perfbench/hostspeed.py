"""Host-speed probe for normalising times.

On a host whose cores are shared with other tenants, speed drifts by tens
of percent over a few seconds, for interpreter-bound and BLAS-bound code
alike (NOTES.md). The probe is a fixed mix of interpreter and small-matrix
work owned by the benchmark (it calls nothing in ``siggate``), so a change
to the library cannot move it. The benchmark runs it between library
calls; a phase's time divided by the mean probe time over that phase,
times ``REF_PROBE_S``, is its time in reference-probe seconds. A slow
spell of the host slows the calls and the probes alike and cancels out.
(When this was tuned, the ratio of means drifted no more than the mean of
per-call ratios.)
"""

import time

import numpy as np

# Median probe time on the reference machine (NOTES.md); it only sets the
# scale of normalised times, not their ratios.
REF_PROBE_S = 0.005

_SMALL = np.linspace(-1.0, 1.0, 16 * 16).reshape(16, 16)
_LARGE = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)


def probe() -> float:
    """Seconds taken by the fixed probe work right now.

    Half interpreter-bound small-matrix work (like the tape and the tiny
    models), half 64 x 64 BLAS work (like the n~128 forwards): on this
    kind of host neither half alone tracks every workload's slow spells.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(120):
        acc += float(np.tanh(_SMALL @ _SMALL.T + 0.01 * i).sum())
        acc += sum(x * x for x in range(150))
    for i in range(60):
        acc += float(np.tanh(_LARGE @ _LARGE.T * 0.01 + i).sum())
    return time.perf_counter() - start


def normalised(seconds: float, probe_times) -> float:
    """``seconds`` measured while ``probe_times`` were taken, in reference seconds."""
    return seconds * REF_PROBE_S * len(probe_times) / sum(probe_times)
