"""R7 fixture: blocking work funneled off the loop."""

import asyncio
import time

__all__ = ["handle_report", "solve"]


def solve(data):
    time.sleep(0.5)
    return sum(data)


async def handle_report(data):
    loop = asyncio.get_running_loop()
    return await loop.run_in_executor(None, solve, data)
