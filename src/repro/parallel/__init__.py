"""Parallel execution backends for the fitting stack.

The hot path of every artifact the paper reproduces is dozens to
thousands of independent bounded least-squares problems (multi-start
points, model families, episodes, experiment grid cells).
:class:`~repro.parallel.executor.FitExecutor` abstracts *how* those
independent work units run — serially, on a thread pool (NumPy/scipy
release the GIL inside the linear algebra), or on a process pool
(sidesteps the GIL entirely at pickling cost) — while guaranteeing
deterministic, input-ordered results on every backend.
"""

from repro.parallel.executor import (
    DEFAULT_EXECUTOR_ENV,
    DEFAULT_WORKERS_ENV,
    ExecutorLike,
    FitExecutor,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    available_backends,
    default_worker_count,
    get_executor,
)

__all__ = [
    "DEFAULT_EXECUTOR_ENV",
    "DEFAULT_WORKERS_ENV",
    "ExecutorLike",
    "FitExecutor",
    "ProcessExecutor",
    "SerialExecutor",
    "ThreadExecutor",
    "available_backends",
    "default_worker_count",
    "get_executor",
]
