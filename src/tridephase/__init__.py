"""Dephasing dynamics and coherence measures for three-qubit registers.

The package models pure dephasing of three qubits coupled to bosonic
environments, either one bath per qubit or a single shared bath, with
exact memoryless rates or the full finite-memory kernels of an ohmic
spectral density with exponential cutoff.  Coherence is tracked through
the relative entropy of coherence in the computational basis.

Layered bottom-up: ``numerics`` (log-gamma and digamma series, eigensolver,
fixed-step integrator, time validation), ``bath`` (spectral density and
closed-form decoherence kernels), ``states`` (the state catalog),
``dynamics`` (two independent propagation engines), ``measures`` (entropy
and coherence), ``runner``/``cli`` (scenario configs and CSV output).
"""

from .bath import (DEFAULT_ETA, DEFAULT_KBT, DEFAULT_LAMBDA_CUTOFF, BathSpec,
                   cumulative_decoherence, dephasing_rate, lamb_kernel, markov_rate,
                   spectral_density)
from .dynamics import (ENGINES, OMEGA0, PropagatorSpec, coherence_trace,
                       decoherence_exponent, propagate, propagate_grid)
from .measures import CoherenceTrace, dephase, rel_entropy_coherence, von_neumann_entropy
from .numerics import (HermitianEig, PropagationError, hermitian_eigendecomposition,
                       ode_propagate)
from .runner import (ConfigError, RunResult, ScenarioConfig, parse_config,
                     reproduce, run_scenarios, trace_csv_bytes)
from .states import (MIXED_STATE_NAMES, PURE_STATE_NAMES, STATE_NAMES,
                     StateReport, StateSpec, make_state, validate)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BathSpec", "spectral_density", "markov_rate",
    "dephasing_rate", "cumulative_decoherence", "lamb_kernel",
    "DEFAULT_ETA", "DEFAULT_LAMBDA_CUTOFF", "DEFAULT_KBT",
    "StateSpec", "StateReport", "make_state", "validate",
    "STATE_NAMES", "PURE_STATE_NAMES", "MIXED_STATE_NAMES",
    "PropagatorSpec", "propagate", "propagate_grid", "decoherence_exponent",
    "coherence_trace", "ENGINES", "OMEGA0",
    "von_neumann_entropy", "dephase", "rel_entropy_coherence",
    "CoherenceTrace",
    "HermitianEig", "hermitian_eigendecomposition",
    "PropagationError", "ode_propagate",
    "ScenarioConfig", "RunResult", "ConfigError", "parse_config",
    "run_scenarios", "trace_csv_bytes", "reproduce",
]
