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

from .bath import (DEFAULT_ETA, DEFAULT_KBT, DEFAULT_LAMBDA_CUTOFF, BathSpec,
                   kernel_integrals, kernel_rates, markov_rate)
from .dynamics import ENGINES, OMEGA0, coherence_trace, propagate_grid
from .measures import rel_entropy_coherence
from .runner import ConfigError, RunResult, ScenarioConfig, parse_config, run_scenarios, trace_csv_bytes
from .states import MIXED_STATE_NAMES, PURE_STATE_NAMES, STATE_NAMES, StateSpec, make_state

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BathSpec", "markov_rate",
    "kernel_rates", "kernel_integrals",
    "DEFAULT_ETA", "DEFAULT_LAMBDA_CUTOFF", "DEFAULT_KBT",
    "StateSpec", "make_state",
    "STATE_NAMES", "PURE_STATE_NAMES", "MIXED_STATE_NAMES",
    "propagate_grid", "coherence_trace", "ENGINES", "OMEGA0",
    "rel_entropy_coherence",
    "ScenarioConfig", "RunResult", "ConfigError", "parse_config",
    "run_scenarios", "trace_csv_bytes",
]
