"""Host-speed reference: the time metrics' normaliser.

This host shares its cores with other machines, and its speed drifts by
±20% over minutes (CPU time drifts with wall time; it is not steal time).
Runs a few minutes apart therefore disagree by more than any useful bound,
whatever statistic a run reports. ``SpeedProbe`` times a fixed reference
pass, made of the kinds of work the program does (MLP forward passes over
8192 pixels, elementwise maths and a sort on 16-bit images, small numpy
calls and a pure-Python loop), between the benchmark's calls. Over a run
the probe and the program slow down together, so

    factor = REF_PASS_S / trimmed mean(reference pass time)

over the passes of a phase (the set-ups, or the loop) scales that phase's
times to a host on which one pass takes ``REF_PASS_S``: a time in
reference seconds. The mean drops the slowest and fastest tenth of the
passes, so that a rare stall, which costs the program's long calls a few
percent, does not count many times over in a short pass. The probe's
inputs and work are fixed, and it calls nothing in dwspectral, so a change
to the program cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REF_PASS_S = 0.025  # about one pass on the 2-core Xeon VM the bounds were set on


def trimmed_mean(values) -> float:
    """Mean of the values left when the lowest and highest tenth are cut."""
    xs = sorted(values)
    cut = len(xs) // 10
    return statistics.fmean(xs[cut:len(xs) - cut])


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20171202)
        self.x = rng.standard_normal((8192, 4))  # small: no mark on peak RSS
        self.w1 = rng.standard_normal((4, 60))
        self.w2 = rng.standard_normal((61, 3))
        self.image = rng.integers(0, 65536, (8, 128, 128), dtype=np.uint16)
        self.small = rng.standard_normal(16)
        self.passes: list[float] = []
        for _ in range(2):  # page in the arrays
            self._work()

    def _work(self) -> None:
        for _ in range(8):
            hidden = np.tanh(self.x @ self.w1)
            hidden = np.hstack([hidden, np.ones((len(hidden), 1))])
            (hidden @ self.w2).argmax(axis=1)
        logs = np.log1p(self.image.astype(np.float64))
        np.sort((logs[0] - logs.mean(axis=0)).ravel())
        acc = self.small
        for _ in range(1500):
            acc = np.maximum(acc * 0.5, self.small)
        total = 0
        for i in range(30000):
            total += i * i % 7

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            self._work()
            self.passes.append(time.perf_counter() - t0)


def factor(passes) -> float:
    """Scale from this host's time to reference seconds, over ``passes``."""
    return REF_PASS_S / trimmed_mean(passes)
