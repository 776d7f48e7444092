"""Tests for the base-class hazard fallbacks shared by every hazard."""

import numpy as np

from repro.hazards import HjorthHazard, QuadraticHazard
from repro.hazards.base import HazardFunction


class TestGenericBathtubDetector:
    """The base-class grid detector must agree with closed forms."""

    def test_base_detector_on_hjorth(self):
        hazard = HjorthHazard(1.0, 0.2, 0.002)
        generic = HazardFunction.is_bathtub(hazard, horizon=100.0)
        assert generic == hazard.is_bathtub(horizon=100.0) == True  # noqa: E712

    def test_base_detector_on_monotone(self):
        hazard = QuadraticHazard(1.0, 0.1, 0.01)
        assert (np.diff(hazard.rate(np.linspace(0.0, 50.0, 20))) > 0).all()
        assert HazardFunction.is_bathtub(hazard, horizon=50.0) is False
        assert hazard.is_bathtub(horizon=50.0) is False
