"""Hazard-rate functions from reliability engineering.

The paper's first modeling approach (Section II-A) treats a resilience
curve as a scaled bathtub-shaped hazard function: performance starts
high, dips, and rises again exactly as a bathtub hazard does. This
subpackage provides the two hazard forms the paper evaluates — the
quadratic (Eq. 1) and Hjorth's competing-risks form (Eq. 4).
"""

from repro.hazards.base import HazardFunction
from repro.hazards.quadratic import QuadraticHazard
from repro.hazards.hjorth import HjorthHazard

__all__ = [
    "HazardFunction",
    "QuadraticHazard",
    "HjorthHazard",
]
