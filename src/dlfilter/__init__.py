"""Dynamic likelihood filtering for 1-D stochastic advection.

Exact truth generators, a stochastic Lax-Friedrichs model, sparse synthetic
observation networks, a reference Kalman filter, the dynamic likelihood
filter, and a reproducible experiment harness.
"""

__version__ = "0.1.0"

from .core import GridSpec, NoiseSource, StateEstimate, gaussian_vector, make_grid
from .truth import (Drift, TruthConfig, TruthField, generate_truth, initial_pulse,
                    mean_speed, pulse_profile, step_characteristic_exact)
from .model import ModelConfig, lax_friedrichs_matrix, lax_friedrichs_weights, model_step
from .obsnet import (Observation, ObservationBatch, ObsNetwork, build_network,
                     observation_matrix, observations_by_step, sample_observations)
from .kalman import FilterError, analysis, condition, forecast, gain_columns
from .dlf import (DlfStepResult, LikelihoodAssembly, Pool, dlf_step, multi_analysis, project,
                  propagate_observation, propagate_variance, rank_order, viability_filter)
from .harness import (MetricTable, RunResult, ScenarioConfig, center_of_mass,
                      circular_distance, default_config, load_config, run_scenario,
                      summarize_run, sweep, write_outputs)

__all__ = [
    "GridSpec", "NoiseSource", "StateEstimate", "gaussian_vector", "make_grid",
    "Drift", "TruthConfig", "TruthField", "generate_truth", "initial_pulse",
    "mean_speed", "pulse_profile", "step_characteristic_exact",
    "ModelConfig", "lax_friedrichs_matrix", "lax_friedrichs_weights", "model_step",
    "Observation", "ObservationBatch", "ObsNetwork", "build_network", "observation_matrix",
    "observations_by_step", "sample_observations",
    "FilterError", "analysis", "condition", "forecast", "gain_columns",
    "DlfStepResult", "LikelihoodAssembly", "Pool", "dlf_step", "multi_analysis", "project",
    "propagate_observation", "propagate_variance", "rank_order", "viability_filter",
    "MetricTable", "RunResult", "ScenarioConfig", "center_of_mass", "circular_distance",
    "default_config", "load_config", "run_scenario", "summarize_run", "sweep",
    "write_outputs",
]
