"""Pseudospectral laboratory for the stochastic damped cubic wave equation
on the 2-torus: truncated dynamics, renormalized stochastic objects, energy
diagnostics, and the Girsanov asymptotic-coupling construction."""

__version__ = "0.17.0"

from .config import ConfigError, SimConfig, load_config
from .dynamics import BlowUpError, FlowState, flow_init, full_flow, v_step
from .noise import StickState, sample_increment, step_covariance, stick_init
from .propagator import apply_S, xalpha_norm
from .spectral import (
    bracket_multiplier,
    dealiased_product,
    pair_norm,
    project_leq,
    sobolev_norm,
    to_physical,
    to_spectral,
)

__all__ = [
    "ConfigError", "SimConfig", "load_config",
    "BlowUpError", "FlowState", "flow_init", "full_flow", "v_step",
    "StickState", "sample_increment", "step_covariance", "stick_init",
    "apply_S", "xalpha_norm",
    "bracket_multiplier", "dealiased_product", "pair_norm", "project_leq",
    "sobolev_norm", "to_physical", "to_spectral",
]
