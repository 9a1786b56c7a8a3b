"""A fixed reference kernel that gauges the host's speed during a run.

The benchmark runs on a few cores of a shared host, where neighbours slow
every instruction (shared caches, memory bandwidth, sibling hyperthreads,
clock changes) for tens of seconds at a time. CPU seconds of one round
spread 30-50% from run to run there, while the medians within a run stay
close. The kernel here is the benchmark's own code on fixed inputs: the
einsum Tucker product and the beta-divergence of ``checks``, text
formatting and parsing of floats, and many numpy calls on tiny arrays. It
does not touch the program, so a change to the program cannot move it.

The worker times one kernel between operations, once at least
``EVERY_S`` CPU seconds have passed since the last one, and scales each
operation's CPU seconds by ``NOMINAL_S / kernel seconds``, the kernel
seconds being the mean of the samples on either side of it. A scaled time
is then the time the operation would take on a host where the kernel takes
``NOMINAL_S``, which is its median on the machine the README names.
"""

import time

import numpy as np

import checks

# (big, text, tiny) repetitions per kernel, in about the shares of numpy
# work on 80x96xL tensors, text formatting and parsing, and Python call
# overhead in each workload's operations
MIX = {"song_kl": (8, 25, 0), "decompose_is_euc": (9, 20, 0), "small_sweep": (0, 0, 1000)}
NOMINAL_S = {"song_kl": 0.0674, "decompose_is_euc": 0.0655, "small_sweep": 0.0457}
EVERY_S = {"song_kl": 1.0, "decompose_is_euc": 1.0, "small_sweep": 0.5}


class Gauge:
    """Kernel samples taken between operations, and the scale factor of
    each stretch of operations between two samples."""

    def __init__(self, workload):
        rng = np.random.default_rng(12345)   # fixed: the kernel ignores --seed
        # the big part writes into buffers made here and the other parts
        # allocate only blocks below glibc's mmap threshold, so the
        # kernel's speed does not hang on how the program left the heap
        self.x = rng.random((80 * 96, 100)) + 0.1
        self.a, self.b = rng.random((80 * 96, 48)), rng.random((48, 100))
        self.y, self.t = np.empty_like(self.x), np.empty_like(self.x)
        self.tiny = rng.random((2, 12, 10, 8)) + 0.1
        self.text = rng.random(1000)
        self.mix = MIX[workload]
        self.nominal = NOMINAL_S[workload]
        self.every = EVERY_S[workload]
        self.samples = []
        self.since = 0.0
        self.kernel()                        # warm-up, not a sample

    def kernel(self):
        """CPU seconds of one run of the kernel."""
        n_big, n_text, n_tiny = self.mix
        x, y, t = self.x, self.y, self.t
        t0 = time.process_time()
        for _ in range(n_big):               # a product and a KL divergence, 80x96x100
            np.matmul(self.a, self.b, out=y)
            np.divide(x, y, out=t)
            np.log(t, out=t)
            np.multiply(x, t, out=t)
            t -= x
            t += y
            t.sum()
        for _ in range(n_text):              # 1000 floats to .17g text and back
            np.array(" ".join(f"{v:.17g}" for v in self.text).split(), dtype=np.float64)
        for _ in range(n_tiny):
            for beta in (0.0, 0.5, 1.0, 2.0):
                checks.beta_divergence(self.tiny[0], self.tiny[1], beta)
        return time.process_time() - t0

    def sample(self):
        self.samples.append(self.kernel())
        self.since = 0.0

    def stretch(self, cpu_s):
        """Index of the stretch an operation of `cpu_s` CPU seconds that
        has just ended belongs to; samples the kernel when the stretch is
        long enough. Call ``sample`` once before the first operation."""
        index = len(self.samples) - 1
        self.since += cpu_s
        if self.since >= self.every:
            self.sample()
        return index

    def scales(self):
        """Scale factor per stretch; call after the last operation."""
        if self.since:
            self.sample()
        s = np.array(self.samples)
        return self.nominal / ((s[:-1] + s[1:]) / 2.0)
