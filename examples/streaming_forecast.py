#!/usr/bin/env python3
"""Online forecasting: serve live recovery predictions as data arrives.

The batch workflow fits a finished curve; a resilience service never
sees one. This example replays two recessions as interleaved telemetry
into a :class:`~repro.serving.ForecastSession` — one shared fit cache,
tracer, and executor for the whole fleet — and after every quarter of
new data prints each stream's current model, forecast recovery month,
and 95% confidence band at the forecast horizon. Warm-started
incremental refits keep each update cheap: the previous optimum is the
only start unless the policy schedules a periodic full sweep.

At the end, `finalize()` re-fits each completed curve cold and shows
that streaming lost nothing: the final parameters are bit-identical to
a one-shot batch fit.

Run:  python examples/streaming_forecast.py
"""

from repro import EngineOptions, fit_least_squares, load_recession, make_model
from repro.datasets.stream import replay_recessions
from repro.serving import ForecastSession, RefitPolicy

DATASETS = ("1990-93", "2001-05")
MODEL = "competing_risks"
HORIZON = 12.0  # forecast one year ahead


def main() -> None:
    options = EngineOptions(cache=True, executor="serial")
    policy = RefitPolicy(every_k=1, full_refit_every=12)
    session = ForecastSession(options=options, family=MODEL, policy=policy)

    print(f"Streaming {', '.join(DATASETS)} into one forecast session\n")
    for event in replay_recessions(DATASETS):
        forecaster = session.push(event)
        if not forecaster.ready or (event.index + 1) % 3 != 0:
            continue
        forecast = forecaster.forecast(HORIZON, n_points=5)
        recovery = (
            f"month {forecast.recovery_time:5.1f}"
            if forecast.recovery_time is not None
            else "beyond horizon"
        )
        band_low = forecast.band.lower[-1]
        band_high = forecast.band.upper[-1]
        print(
            f"[{event.key}] month {event.time:3.0f}  "
            f"n={forecast.n_observations:2d}  "
            f"recovery {recovery}  "
            f"index in {HORIZON:.0f}mo: "
            f"[{band_low:.3f}, {band_high:.3f}]"
        )

    print("\nEnd of streams — finalizing each curve with a cold fit:")
    for key in session.keys():
        final = session[key].finalize()
        oneshot = fit_least_squares(
            make_model(MODEL), load_recession(key),
            options=EngineOptions(cache=False),
        )
        identical = final.model.params == oneshot.model.params
        print(
            f"[{key}] SSE {final.sse:.6f}, "
            f"bit-identical to the batch fit: {identical}"
        )

    stats = session.stats()
    print(
        f"\nSession totals: {stats['observations']} observations, "
        f"{stats['refits_warm']} warm / {stats['refits_cold']} cold / "
        f"{stats['refits_full']} full refits, "
        f"{stats['forecasts']} forecasts served."
    )


if __name__ == "__main__":
    main()
