"""Noise-benefit analysis of qubit teleportation with thresholded feedforward.

The package simulates a teleportation protocol whose two classical
feedforward bits travel as weak bipolar signals over a noisy classical
channel and are threshold-detected.  It computes the teleportation fidelity
both in closed form and by Monte Carlo, locates optimal noise levels, and
verifies the forbidden-interval conditions under which added channel noise
helps rather than hurts.

The package API is each module's ``__all__``, re-exported here.
"""

from .analysis import *
from .channel import *
from .noise import *
from .qstate import *

__version__ = "0.1.0"
