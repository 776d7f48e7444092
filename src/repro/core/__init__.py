"""Core resilience-curve containers, phase detection, and shape taxonomy."""

from repro.core.curve import ResilienceCurve
from repro.core.episodes import Episode, split_episodes
from repro.core.phases import ResiliencePhases, detect_phases
from repro.core.shapes import CurveShape, classify_shape

__all__ = [
    "ResilienceCurve",
    "Episode",
    "split_episodes",
    "ResiliencePhases",
    "detect_phases",
    "CurveShape",
    "classify_shape",
]
