"""Datasets: the seven U.S. recession curves and synthetic generators.

The paper evaluates on normalized payroll-employment curves for seven
U.S. recessions from the BLS Current Employment Statistics program.
The exact BLS series are not redistributable offline, so
:mod:`repro.datasets.recessions` reconstructs each curve from the
public record of the recession (trough depth, trough month, recovery
duration, post-recovery growth); see DESIGN.md for the substitution
rationale. :mod:`repro.datasets.synthetic` generates curves of
controlled shape (V/U/W/L/J) for tests and ablations.
"""

from repro.datasets.recessions import (
    RECESSION_NAMES,
    load_all_recessions,
    load_recession,
    recession_shape_label,
)
from repro.datasets.synthetic import (
    curve_from_model,
    make_shape_curve,
)
from repro.datasets.loader import curve_from_csv, curve_to_csv
from repro.datasets.outage import (
    SCENARIOS,
    OutageBurst,
    OutageScenario,
    episode_curve,
    generate_fleet,
)
from repro.datasets.store import (
    STORE_SCHEMA_VERSION,
    EpisodeChunk,
    EpisodeStore,
    EpisodeStoreWriter,
)
from repro.datasets.stream import (
    StreamEvent,
    interleave_streams,
    iter_curve,
    replay_recessions,
)

__all__ = [
    "RECESSION_NAMES",
    "load_recession",
    "load_all_recessions",
    "recession_shape_label",
    "make_shape_curve",
    "curve_from_model",
    "curve_from_csv",
    "curve_to_csv",
    "StreamEvent",
    "iter_curve",
    "interleave_streams",
    "replay_recessions",
    "EpisodeStore",
    "EpisodeStoreWriter",
    "EpisodeChunk",
    "STORE_SCHEMA_VERSION",
    "OutageBurst",
    "OutageScenario",
    "SCENARIOS",
    "episode_curve",
    "generate_fleet",
]
