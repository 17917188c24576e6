"""Simulation and certification toolkit for disturbance-driven PDE decay.

Solvers for three one-parameter PDE families (reaction-diffusion,
recirculating transport, boundary-damped wave), truncation-based energy
functionals evaluated along the computed trajectories, and closed-form
decay bounds with explicit constants checked stamp by stamp.
"""

from .certify import (CheckReport, IssBound, bound_heat_classical,
                      bound_parabolic_q, bound_transport_p, bound_transport_q,
                      bound_wave_m, bound_wave_r_eps, check_trajectory,
                      prepare_bound)
from .config import ConfigError, RunPlan, build_plan, bundled_names, load_config, load_plan
from .fields import AXES, Grid, Trajectory, lq_norm
from .glf import (GlfSeries, GlfSpec, dissipation_rate, dissipation_report,
                  glf_for_parabolic, glf_for_transport, glf_for_wave,
                  invert_monotone, local_speed_floor, series,
                  wave_forcing_slack, weighted_energy)
from .signals import SpaceTimeField, TimeSignal, sup_field, sup_window
from .solvers import (AssumptionViolationError, ParabolicScenario,
                      ScenarioError, SolverConfig, SolverDivergedError,
                      TransportScenario, WaveScenario, reconstruct_wave_state,
                      solve_parabolic, solve_transport, solve_wave)
from .trunc import (TruncationPair, gronwall_envelope_at, property_sides,
                    young_epsilon_gap)

__version__ = "0.1.0"
