#!/usr/bin/env python3
"""Infrastructure outage: predict recovery of a utility during a storm.

The paper motivates predictive resilience modeling with emergency
management: during a disruption, decision makers need to know *when*
the system will be back, not a retrospective score. This example plays
that scenario end-to-end on the Poisson outage/restore process of
:mod:`repro.datasets.outage` (component outages arrive in a burst, each
restores after a random delay, and performance is the fraction of
components in service):

1. draw a 96-hour "V" outage episode (one tight burst, fast restores),
2. observe only its first 36 hours,
3. fit the competing-risks model to the partial curve, and
4. predict time-to-recovery and the interval-based resilience metrics —
   then compare against what actually happened.

A "U" episode (a drawn-out burst with a restore plateau) closes the
example: its trough falls after the observed window, and a fit that has
not yet seen the recovery cannot predict it.

Run:  python examples/infrastructure_outage.py
"""

import numpy as np

from repro import ResilienceCurve, fit_least_squares, make_model
from repro.datasets.outage import episode_curve
from repro.metrics.interval import METRICS, MetricContext
from repro.utils.ascii_plot import ascii_plot
from repro.utils.tables import format_table

SEED = 2022
HORIZON_HOURS = 96.0
OBSERVED_HOURS = 36.0
TARGET = 0.95


def outage(scenario: str) -> ResilienceCurve:
    """Hourly telemetry of one outage episode over the full horizon."""
    return episode_curve(
        scenario, seed=SEED, n_points=int(HORIZON_HOURS) + 1, horizon=HORIZON_HOURS
    )


def actual_recovery(truth: ResilienceCurve) -> float | None:
    """First hour after the trough at which capacity is back to TARGET."""
    recovered = truth.times[
        (truth.times > truth.trough_time) & (truth.performance >= TARGET)
    ]
    return float(recovered[0]) if recovered.size else None


def main() -> None:
    truth = outage("V")
    observed = truth.window(0.0, OBSERVED_HOURS)

    print(
        f"The storm knocked the grid to {truth.min_performance:.1%} capacity "
        f"at hour {truth.trough_time:.0f}."
    )
    print(f"Fitting on the first {OBSERVED_HOURS:.0f}h of telemetry only.\n")

    fit = fit_least_squares(make_model("competing_risks"), observed)
    model = fit.model
    print(f"Fitted competing-risks model: {model.param_dict}")

    # --- When will the grid be back to 95% capacity? -------------------
    predicted_recovery = model.recovery_time(TARGET, horizon=10 * HORIZON_HOURS)
    actual = actual_recovery(truth)
    print(f"\nPredicted return to {TARGET:.0%} capacity: hour {predicted_recovery:.1f}")
    if actual is None:
        print("Actual: never within the observed horizon")
    else:
        print(f"Actual return to {TARGET:.0%} capacity:    hour {actual:.1f}")

    # --- Interval metrics over the unobserved future -------------------
    # Use the paper's piecewise form: hold P(t_r) constant once the
    # model recovers (the raw competing-risks curve grows without bound).
    future_start = OBSERVED_HOURS
    dense = np.linspace(0.0, HORIZON_HOURS, 385)
    forecast = ResilienceCurve(
        dense,
        model.predict_clamped(dense, truth.nominal, horizon=10 * HORIZON_HOURS),
        nominal=truth.nominal,
        name="forecast",
    )
    actual_ctx = MetricContext.from_curve(
        truth, hazard_time=future_start, recovery_time=HORIZON_HOURS
    )
    predicted_ctx = MetricContext.from_curve(
        forecast, hazard_time=future_start, recovery_time=HORIZON_HOURS
    )
    rows = []
    for name, metric in METRICS.items():
        try:
            actual_value = metric(actual_ctx)
            predicted_value = metric(predicted_ctx)
        except Exception:
            continue
        delta = (
            abs(actual_value - predicted_value) / abs(actual_value)
            if actual_value
            else float("nan")
        )
        rows.append([name, actual_value, predicted_value, delta])
    print()
    print(
        format_table(
            ["Metric (hours x capacity)", "Actual", "Predicted", "rel.err"],
            rows,
            title=f"Interval metrics over the unobserved window [{future_start:.0f}h, {HORIZON_HOURS:.0f}h]",
            float_digits=4,
        )
    )

    # --- Picture --------------------------------------------------------
    # Later series draw over earlier ones: reality goes over the dense
    # forecast, and the telemetry over the part of reality it observed.
    print()
    print(
        ascii_plot(
            {
                "model forecast": (forecast.times, forecast.performance),
                "what actually happened": (truth.times, truth.performance),
                "telemetry (observed)": (observed.times, observed.performance),
            },
            title="Grid capacity: observed window, reality, and the model's forecast",
        )
    )

    # --- A trough the window has not reached ---------------------------
    slow = outage("U")
    slow_fit = fit_least_squares(
        make_model("competing_risks"), slow.window(0.0, OBSERVED_HOURS)
    )
    print(
        f"\nA U-shaped outage bottoms out at hour {slow.trough_time:.0f}, after "
        f"the {OBSERVED_HOURS:.0f}h window."
    )
    try:
        slow_recovery = slow_fit.model.recovery_time(TARGET, horizon=10 * HORIZON_HOURS)
        print(f"Its fit predicts a return to {TARGET:.0%} at hour {slow_recovery:.1f}.")
    except ValueError:
        print(f"Its fit never returns to {TARGET:.0%}: the window shows no recovery yet.")
    slow_actual = actual_recovery(slow)
    if slow_actual is not None:
        print(f"Actual return to {TARGET:.0%} capacity: hour {slow_actual:.1f}")


if __name__ == "__main__":
    main()
