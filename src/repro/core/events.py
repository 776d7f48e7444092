"""Disruption event descriptors.

Events carry the provenance of a resilience curve: what happened, when,
and how severe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.exceptions import ParameterError

__all__ = ["DisruptionEvent"]


@dataclass(frozen=True)
class DisruptionEvent:
    """A disruptive event acting on a system.

    Attributes
    ----------
    name:
        Short label, e.g. ``"2020 COVID-19 recession"``.
    onset:
        Time at which the event begins (``t_h`` in the paper).
    magnitude:
        Fractional performance loss at the trough, in ``(0, 1]``.
        ``0.14`` means performance bottoms out 14% below nominal.
    degradation_duration:
        Time from onset to the trough (0 means instantaneous drop,
        the paper's ``t_d = t_h`` case).
    recovery_duration:
        Time from trough back to steady state; ``None`` when the system
        does not recover within the horizon of interest.
    metadata:
        Free-form provenance.
    """

    name: str
    onset: float
    magnitude: float
    degradation_duration: float = 0.0
    recovery_duration: float | None = None
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not 0.0 < self.magnitude <= 1.0:
            raise ParameterError(
                f"magnitude must lie in (0, 1], got {self.magnitude}"
            )
        if self.degradation_duration < 0.0:
            raise ParameterError(
                f"degradation_duration must be >= 0, got {self.degradation_duration}"
            )
        if self.recovery_duration is not None and self.recovery_duration <= 0.0:
            raise ParameterError(
                f"recovery_duration must be positive when given, "
                f"got {self.recovery_duration}"
            )

    @property
    def trough_time(self) -> float:
        """Time at which performance reaches its minimum."""
        return self.onset + self.degradation_duration

    @property
    def end_time(self) -> float | None:
        """Time of full recovery, or ``None`` when unrecovered."""
        if self.recovery_duration is None:
            return None
        return self.trough_time + self.recovery_duration
