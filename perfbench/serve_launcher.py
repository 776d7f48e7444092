"""Start the forecast server the way ``repro serve`` does.

Usage::

    python3 perfbench/serve_launcher.py [--cpu N] [--ledger PATH] -- serve --port 0 ...

Everything after ``--`` is handed to ``repro.cli.main`` unchanged.
``--cpu`` pins the server to one CPU before anything is imported. With
``--ledger``, the layer wrappers of :mod:`ledger` (and a ``gc.callbacks``
hook) are installed before the server starts, and every recorded span is
written to *PATH* as JSON after the server shuts down.

The server stops on SIGINT, as ``repro serve`` does on Ctrl-C; the
default SIGINT handler is restored first in case the parent ignored it.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import pin, use_source_tree  # noqa: E402


def main(argv: list[str]) -> int:
    if "--" not in argv:
        print("usage: serve_launcher.py [--cpu N] [--ledger PATH] -- serve ...", file=sys.stderr)
        return 2
    split = argv.index("--")
    own, serve_args = argv[:split], argv[split + 1 :]
    ledger_path = own[own.index("--ledger") + 1] if "--ledger" in own else None
    pin(int(own[own.index("--cpu") + 1]) if "--cpu" in own else None)
    use_source_tree()
    ledger = None
    if ledger_path:
        from ledger import Ledger, install

        ledger = Ledger()
        install(ledger, server=True)
    signal.signal(signal.SIGINT, signal.default_int_handler)
    from repro.cli import main as repro_main

    code = repro_main(serve_args)
    if ledger is not None and ledger_path:
        tmp = ledger_path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(ledger.export(), handle)
        os.replace(tmp, ledger_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
