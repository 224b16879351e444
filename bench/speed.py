"""Host speed sampled alongside a measured process, to scale its times.

The virtual machines this benchmark runs on change speed by up to 1.8x within
seconds (the same process takes 3.7 s or 6.6 s a minute apart), and at times
stop the virtual CPU: the host's steal counter then takes 6-12% of the time,
in stalls of up to 0.1 s.  Two measures answer the two effects:

- every interval is measured in the process's CPU time, which a stolen
  interval does not advance.  The program is single-threaded and CPU-bound
  here (BLAS pinned to one thread, outputs written to the page cache), so
  its CPU time is its wall time less the stalls;
- a timer signal runs a fixed probe every ``PERIOD_S`` inside the measured
  process, between the program's own bytecodes, and every interval is scaled
  by how long the probe took around it:

    scaled = (interval - probe time inside it) * REF_PROBE_S / probe duration

``REF_PROBE_S`` is a constant, so scaled times read as seconds on a host that
runs the probe in that long, and a slower program reads slower whatever the
host's speed.  The probe mixes the three kinds of work the program does:
numpy calls on 8x8 complex matrices, plain Python arithmetic, and
transcendental functions over arrays of a few hundred abscissae, as in the
bath integrands.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
# About the probe's median duration on the machine named in NOTES.md, so that
# scaled times there read close to unscaled ones.
REF_PROBE_S = 300e-6
# Probe samples this far (CPU seconds) either side of an interval also
# describe it; short scenarios (about 40 ms on figures) hold one or two.
PAD_S = 0.1
_A = (np.arange(64).reshape(8, 8) % 7 - 3.0) / 10.0 + 0j
_W = np.linspace(0.01, 10.0, 640)


def _probe() -> None:
    x = _A
    for _ in range(20):
        x = (_A @ x) * 0.1 + x * 0.5
    s = 0
    for i in range(400):
        s += i * i
    for t in (0.5, 1.0, 2.0):
        np.sin(_W * t) / np.tanh(_W) * np.exp(-_W)


class Sampler:
    """Runs the probe on SIGALRM and keeps (end, duration) per sample, in
    process CPU time, the clock of every interval passed to ``scaled``."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        # the probe's temporaries are freed by reference counting; a
        # collection here would scan the program's objects and charge the probe
        enabled = gc.isenabled()
        gc.disable()
        start = time.process_time()
        _probe()
        end = time.process_time()
        if enabled:
            gc.enable()
        self.samples.append((end, end - start))

    def start(self) -> None:
        _probe()  # first call pays for numpy's dispatch set-up
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Program time in the CPU-time interval [start, end] at the reference speed, in seconds."""
        inside = sum(d for t, d in self.samples if start <= t <= end)
        near = sorted(d for t, d in self.samples if start - PAD_S <= t <= end + PAD_S)
        if not near:
            raise RuntimeError(f"no probe sample within {PAD_S} s of [{start}, {end}]")
        # trimmed mean: follows a change of speed inside the interval, which
        # the median would not, and drops probes that an interrupt stretched
        k = len(near) // 10
        duration = statistics.fmean(near[k:len(near) - k])
        return (end - start - inside) * REF_PROBE_S / duration
