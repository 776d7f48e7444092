"""Golden wire records: a scripted server transcript and a serve-replay.

Two files under ``tests/golden/`` pin what the forecast service puts on
the wire:

* ``serve_transcript.jsonl`` — the responses of :func:`run_transcript`,
  a 60-request script (register, observe, forecast, drift, report,
  stats and unregister on three ``episode_curve`` streams) driven
  through ``ForecastServer._handle_line`` in process, with five
  ``refit_tick()`` calls between requests;
* ``serve_replay_1980.jsonl`` — the output of
  ``repro serve-replay 1980 --model quadratic --every 3 --points 4
  --no-cache``.

Records compare key for key and string for string; floats compare
after :func:`repro.utils.tables.format_float`, the rounding the golden
tables use, because builds of numpy/scipy may differ in the last bits.
``elapsed_ms`` and the ``stats`` op's ``slo`` block are timings and are
never recorded or compared.

Run as a script::

    python tests/serving/wire_golden.py record-transcript OUT.jsonl
    python tests/serving/wire_golden.py compare ACTUAL.jsonl GOLDEN.jsonl

``compare`` exits 1 and prints the first differences when the records
differ (CI compares its serve-replay output this way).
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path
from typing import Any, Iterator

from repro.datasets.outage import episode_curve
from repro.fitting.options import EngineOptions
from repro.serving.server import ForecastServer, ServerConfig
from repro.utils.tables import format_float

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
TRANSCRIPT_GOLDEN = GOLDEN_DIR / "serve_transcript.jsonl"
REPLAY_GOLDEN = GOLDEN_DIR / "serve_replay_1980.jsonl"

#: The serve-replay command line whose output is ``serve_replay_1980.jsonl``.
REPLAY_ARGS = (
    "serve-replay", "1980", "--model", "quadratic",
    "--every", "3", "--points", "4", "--no-cache",
)

def transcript_config() -> ServerConfig:
    """The server the transcript runs against: ticks driven by hand."""
    return ServerConfig(
        family="quadratic",
        refit_every_k=4,
        refit_interval=0.0,
        options=EngineOptions(
            engine="scipy", cache=False, trace=False, executor="serial",
            n_random_starts=2, seed=0,
        ),
    )


def _points(scenario: str) -> list[list[float]]:
    curve = episode_curve(scenario, 0, n_points=20, horizon=19.0)
    return [[float(t), float(p)] for t, p in zip(curve.times, curve.performance)]


def transcript_steps() -> list[dict[str, Any] | None]:
    """The 60 requests, with ``None`` where a refit tick runs."""
    v, u, l = _points("V"), _points("U"), _points("L")
    steps: list[dict[str, Any] | None] = [
        {"op": "ping"},
        {"op": "register", "key": "v", "family": "quadratic", "nominal": 1.0},
        {"op": "register", "key": "u", "family": "competing_risks"},
        {"op": "register", "key": "l"},
        {"op": "register", "key": "v"},  # duplicate: 400
        {"op": "forecast", "key": "v"},  # no points yet: 400
        {"op": "observe", "key": "v", "points": v[:6]},
        {"op": "observe", "key": "u", "points": u[:7]},
        {"op": "observe", "key": "l", "points": l[:6]},
        {"op": "drift", "key": "v"},  # no fit yet
        {"op": "forecast", "key": "v", "horizon": 6, "n_points": 5},  # first fit
        {"op": "forecast", "key": "u", "horizon": 6.5, "n_points": 4},
        {"op": "report", "key": "l"},
        {"op": "drift", "key": "v"},
        {"op": "stats"},
        {"op": "observe", "key": "v", "t": v[6][0], "p": v[6][1]},
        {"op": "observe", "key": "v", "t": v[7][0], "p": v[7][1]},
        {"op": "observe", "key": "v", "t": v[7][0], "p": v[7][1]},  # not after: 400
        {"op": "drift", "key": "v"},
        {"op": "forecast", "key": "v", "horizon": 3, "n_points": 3},  # incumbent
        None,  # nothing due yet
        {"op": "observe", "key": "v", "points": v[8:10]},
        {"op": "observe", "key": "u", "points": u[7:12]},
        {"op": "observe", "key": "l", "points": l[6:9]},
        None,  # v and u due
        {"op": "forecast", "key": "v", "horizon": 4, "n_points": 3},
        {"op": "forecast", "key": "u", "horizon": 4, "n_points": 3, "confidence": 0.8},
        {"op": "forecast", "key": "l", "horizon": 4, "n_points": 3},
        {"op": "drift", "key": "l"},
        {"op": "report", "key": "u", "horizon": 5},
        {"op": "observe", "key": "l", "points": l[9:12]},
        {"op": "observe", "key": "v", "points": v[10:14]},
        {"op": "drift", "key": "v"},
        {"op": "stats"},
        None,  # v and l due
        {"op": "forecast", "key": "l", "horizon": 2, "n_points": 2},
        {"op": "report", "key": "v"},
        {"op": "forecast", "key": "nope"},  # 404
        {"op": "register", "key": "w", "nominal": 1},
        {"op": "observe", "key": "w", "points": _points("W")[:3]},
        {"op": "forecast", "key": "w"},  # too few points: 400
        {"op": "unregister", "key": "w"},
        {"op": "drift", "key": "w"},  # 404
        {"op": "observe", "key": "u", "points": u[12:16]},
        {"op": "observe", "key": "l", "points": l[12:16]},
        {"op": "observe", "key": "v", "points": v[14:20]},
        {"op": "drift", "key": "u"},
        {"op": "forecast", "key": "u", "horizon": 8, "n_points": 6},  # stale
        None,  # all three due
        {"op": "forecast", "key": "u", "horizon": 8, "n_points": 6},
        {"op": "report", "key": "l", "horizon": 3},
        {"op": "drift", "key": "v"},
        {"op": "observe", "key": "u", "points": u[16:20]},
        {"op": "observe", "key": "l", "points": l[16:20]},
        {"op": "stats"},
        None,  # u and l due
        {"op": "forecast", "key": "v", "horizon": 10, "n_points": 4},
        {"op": "forecast", "key": "l", "horizon": 10, "n_points": 4},
        {"op": "report", "key": "u"},
        {"op": "drift", "key": "u"},
        {"op": "unregister", "key": "v"},
        {"op": "ping"},
        {"op": "stats"},
        {"op": "forecast", "key": "v"},  # 404 after unregister
        {"op": "report", "key": "l", "horizon": 1},
    ]
    for index, step in enumerate(s for s in steps if s is not None):
        step["id"] = index + 1
    return steps


def _strip_timings(response: dict[str, Any]) -> dict[str, Any]:
    response.pop("elapsed_ms", None)
    if response.get("op") == "stats" and response.get("ok"):
        response["result"].pop("slo", None)
    return response


async def _drive() -> list[dict[str, Any]]:
    server = ForecastServer(transcript_config())
    records: list[dict[str, Any]] = []
    ticks = 0
    for step in transcript_steps():
        if step is None:
            ticks += 1
            adopted = await server.refit_tick()
            records.append({"tick": ticks, "adopted": sorted(adopted)})
            continue
        line = json.dumps(step).encode("utf-8")
        records.append(_strip_timings(await server._handle_line(line)))
    return records


def run_transcript() -> list[dict[str, Any]]:
    """The transcript's records: one per request, one per refit tick."""
    return asyncio.run(_drive())


def normalize(value: Any) -> Any:
    """*value* with every float rendered by :func:`format_float`."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, dict):
        return {key: normalize(item) for key, item in value.items()}
    if isinstance(value, list):
        return [normalize(item) for item in value]
    return value


def differences(
    actual: list[dict[str, Any]], golden: list[dict[str, Any]]
) -> Iterator[str]:
    """Human-readable differences between two record lists."""
    if len(actual) != len(golden):
        yield f"{len(actual)} records, golden has {len(golden)}"
    for index, (got, want) in enumerate(zip(actual, golden)):
        got_n, want_n = normalize(got), normalize(want)
        if got_n != want_n:
            yield (
                f"record {index + 1}:\n  got    {json.dumps(got_n, sort_keys=True)}"
                f"\n  golden {json.dumps(want_n, sort_keys=True)}"
            )


def read_jsonl(path: Path | str) -> list[dict[str, Any]]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def write_jsonl(path: Path | str, records: list[dict[str, Any]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "record-transcript":
        write_jsonl(argv[1], run_transcript())
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        diffs = list(differences(read_jsonl(argv[1]), read_jsonl(argv[2])))
        for line in diffs[:10]:
            print(line)
        if diffs:
            print(f"{argv[1]} differs from {argv[2]}: {len(diffs)} difference(s)")
            return 1
        print(f"{argv[1]} matches {argv[2]}")
        return 0
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
