"""mcvd: channel modeling toolkit for molecular communication via diffusion.

Simulates first-hitting reception between a reflecting spherical transmitter
and an absorbing spherical receiver, fits closed-form channel models to the
simulated received signal, and trains a small network to predict the model
coefficients directly from system parameters.
"""
from .analysis import RmseGroup, evaluate_vds, export_curves, rmse
from .channel import (
    erfc,
    point_hit_fraction,
    sample_model,
    sample_point_formula,
    sir_curve,
)
from .fitting import FitProblem, FitResult, fit
from .network import CaseRecord, Network, TrainReport, forward, train
from .pipeline import (
    ParameterGrid,
    RunManifest,
    predict_vds,
    reduced_grids,
    run_phase1,
    run_phase2,
    study_grids,
)
from .simulate import SimConfig, simulate_case
from .types import (
    MissingArtifactError,
    ModelKind,
    ModelParams,
    NumericError,
    Provenance,
    ReceivedSignal,
    SystemParams,
    TimeGrid,
    ValidationError,
)

__version__ = "0.1.0"
