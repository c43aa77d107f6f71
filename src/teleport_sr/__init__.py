"""Noise-benefit analysis of qubit teleportation with thresholded feedforward.

The package simulates a teleportation protocol whose two classical
feedforward bits travel as weak bipolar signals over a noisy classical
channel and are threshold-detected.  It computes the teleportation fidelity
both in closed form and by Monte Carlo, locates optimal noise levels, and
verifies the forbidden-interval conditions under which added channel noise
helps rather than hurts.
"""

from .analysis import (
    EntanglementResource,
    MonotoneRegimeError,
    OptimalNoise,
    SweepResult,
    TheoremLimitReport,
    analytic_at,
    analytic_fidelity,
    default_scale_grid,
    estimate_fidelity,
    find_optimal_noise,
    sweep,
    theorem_limit_check,
)
from .channel import (
    ChannelConfig,
    DetectionStats,
    Interval,
    detect,
    detection_probabilities,
    encode,
    forbidden_interval,
    sr_predicted,
    transmit_bits,
)
from .noise import (
    AlphaStable,
    Gaussian,
    Laplace,
    NoiseClass,
    NoiseClassification,
    NoiseModel,
    Uniform,
    classify,
    noise_from_json,
    noise_to_json,
)
from .qstate import (
    BellBits,
    DensityMatrix,
    PauliWeights,
    QubitState,
    STATE_PRESETS,
    bell_measure,
    bob_mixed_state,
    corrected_state,
    fidelity_against,
    pauli_weights,
)

__version__ = "0.1.0"
