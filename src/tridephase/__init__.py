"""Dephasing dynamics and coherence measures for three-qubit registers.

The package models pure dephasing of three qubits coupled to bosonic
environments, either one bath per qubit or a single shared bath, with
exact memoryless rates or the full finite-memory kernels of an ohmic
spectral density with exponential cutoff.  Coherence is tracked through
the relative entropy of coherence in the computational basis.

Layered bottom-up, each module importing only modules below it: ``numerics``
(log-gamma and digamma series, number and time validation), ``bath`` (closed-form decoherence kernels), ``states`` (the
state catalog and the one density-matrix check), ``measures`` (the
relative entropy of coherence), ``dynamics`` (two independent propagation
engines and the coherence trace), ``runner`` (scenario configs and CSV
output) and ``cli``.
"""

from .bath import BathSpec, kernel_integrals, kernel_rates, markov_rate
from .dynamics import coherence_trace, propagate_grid
from .measures import rel_entropy_coherence
from .runner import ScenarioConfig, run_scenarios, trace_csv_bytes
from .states import StateSpec, make_state

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BathSpec", "markov_rate",
    "kernel_rates", "kernel_integrals",
    "StateSpec", "make_state",
    "propagate_grid", "coherence_trace",
    "rel_entropy_coherence",
    "ScenarioConfig", "run_scenarios", "trace_csv_bytes",
]
