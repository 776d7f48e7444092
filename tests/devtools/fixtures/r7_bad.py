"""R7 fixture: a blocking sink reachable from an async handler.

Seeded regression of the serving-layer bug this rule was built to
catch: an async protocol handler walks through a synchronous helper
into a blocking call on the event loop.
"""

import time

__all__ = ["handle_report", "refresh", "solve"]


def solve(data):
    time.sleep(0.5)
    return sum(data)


def refresh(data):
    return solve(data)


async def handle_report(data):
    return refresh(data)
