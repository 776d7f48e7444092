"""R3 fixture: entry points that drop the options= contract."""

__all__ = ["fit_widget", "serve_widget", "sweep_widget"]


def fit_widget(curve, *, cache=None, trace=None, executor=None):
    """Takes the engine knobs but no options bundle."""
    return curve, cache, trace, executor


def serve_widget(stream, *, executor=None):
    """Serving-style entry point that leaks an engine knob instead of
    taking options=."""
    return stream, executor


def sweep_widget(grid, *, options=None, executor=None, n_workers=None):
    """Grid entry point that carries executor/n_workers loose beside
    its options bundle."""
    return grid, options, executor, n_workers
