"""Dephasing dynamics and coherence measures for three-qubit registers.

The package models pure dephasing of three qubits coupled to bosonic
environments, either one bath per qubit or a single shared bath, with
exact memoryless rates or the full finite-memory kernels of an ohmic
spectral density with exponential cutoff.  Coherence is tracked through
the relative entropy of coherence in the computational basis.

Layered bottom-up, each module importing only modules below it: ``numerics``
(log-gamma and digamma series, Hermitian spectrum, fixed-step integrator,
number and time validation), ``bath`` (closed-form decoherence kernels),
``states`` (the state catalog and its invariant residuals), ``measures``
(entropy and coherence), ``dynamics`` (two independent propagation engines
and the coherence trace), ``runner`` (scenario configs and CSV output) and
``cli``.
"""

from .bath import (DEFAULT_ETA, DEFAULT_KBT, DEFAULT_LAMBDA_CUTOFF, BathSpec,
                   cumulative_decoherence, dephasing_rate, lamb_kernel, markov_rate)
from .dynamics import ENGINES, OMEGA0, coherence_trace, propagate, propagate_grid
from .measures import rel_entropy_coherence, von_neumann_entropy
from .runner import ConfigError, RunResult, ScenarioConfig, parse_config, run_scenarios, trace_csv_bytes
from .states import MIXED_STATE_NAMES, PURE_STATE_NAMES, STATE_NAMES, StateSpec, make_state

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BathSpec", "markov_rate",
    "dephasing_rate", "cumulative_decoherence", "lamb_kernel",
    "DEFAULT_ETA", "DEFAULT_LAMBDA_CUTOFF", "DEFAULT_KBT",
    "StateSpec", "make_state",
    "STATE_NAMES", "PURE_STATE_NAMES", "MIXED_STATE_NAMES",
    "propagate", "propagate_grid",
    "coherence_trace", "ENGINES", "OMEGA0",
    "von_neumann_entropy", "rel_entropy_coherence",
    "ScenarioConfig", "RunResult", "ConfigError", "parse_config",
    "run_scenarios", "trace_csv_bytes",
]
