"""Dephasing dynamics and coherence measures for three-qubit registers.

The package models pure dephasing of three qubits coupled to bosonic
environments, either one bath per qubit or a single shared bath, with
exact memoryless rates or the full finite-memory kernels of an ohmic
spectral density with exponential cutoff.  Coherence is tracked through
the relative entropy of coherence in the computational basis.

Layered bottom-up: ``numerics`` (log-gamma and digamma series, Hermitian
spectrum, fixed-step integrator, time validation), ``bath`` (closed-form
decoherence kernels), ``states`` (the state catalog and its invariant
residuals), ``dynamics`` (two independent propagation engines), ``measures``
(entropy and coherence), ``runner``/``cli`` (scenario configs and CSV output).
"""

from .bath import (DEFAULT_ETA, DEFAULT_KBT, DEFAULT_LAMBDA_CUTOFF, BathSpec,
                   cumulative_decoherence, dephasing_rate, lamb_kernel, markov_rate)
from .dynamics import ENGINES, OMEGA0, PropagatorSpec, coherence_trace, propagate, propagate_grid
from .measures import CoherenceTrace, dephase, rel_entropy_coherence, von_neumann_entropy
from .runner import (ConfigError, RunResult, ScenarioConfig, parse_config,
                     reproduce, run_scenarios, trace_csv_bytes)
from .states import MIXED_STATE_NAMES, PURE_STATE_NAMES, STATE_NAMES, StateSpec, make_state

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BathSpec", "markov_rate",
    "dephasing_rate", "cumulative_decoherence", "lamb_kernel",
    "DEFAULT_ETA", "DEFAULT_LAMBDA_CUTOFF", "DEFAULT_KBT",
    "StateSpec", "make_state",
    "STATE_NAMES", "PURE_STATE_NAMES", "MIXED_STATE_NAMES",
    "PropagatorSpec", "propagate", "propagate_grid",
    "coherence_trace", "ENGINES", "OMEGA0",
    "von_neumann_entropy", "dephase", "rel_entropy_coherence",
    "CoherenceTrace",
    "ScenarioConfig", "RunResult", "ConfigError", "parse_config",
    "run_scenarios", "trace_csv_bytes", "reproduce",
]
