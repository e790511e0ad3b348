"""``liberate serve`` as a child process, optionally with the layer ledger.

Usage::

    python3 perfbench/serve_child.py [--spans FILE] serve --port 0 --ops-port 0 ...

Everything after the optional ``--spans FILE`` is handed to the
``liberate`` CLI unchanged; without ``--spans`` this is exactly
``liberate serve``.  With it, the ledger is installed before the CLI builds
the environment and the ladder, and each SIGUSR1 records a ledger snapshot
(the benchmark marks the start and end of each measured block that way).
SIGINT stops the server; the CLI then prints its final snapshot, and the
ledger marks go to ``FILE.ledger.json`` and the window's spans to ``FILE``.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> int:
    spans = None
    if argv[:1] == ["--spans"]:
        spans, argv = argv[1], argv[2:]
    ledger = None
    marks: list[dict] = []
    if spans:
        from ledger import Ledger

        ledger = Ledger().install()
        ledger.install_event_loop()
        setup = ledger.snapshot()

        def mark(_signum, _frame) -> None:
            snap = ledger.snapshot()
            snap["t"] = time.perf_counter()
            marks.append(snap)
            ledger.recording = len(marks) % 2 == 1

        signal.signal(signal.SIGUSR1, mark)

    from repro.cli.main import main as cli

    code = cli(argv)
    if ledger is not None:
        ledger.write_spans(spans)
        with open(spans + ".ledger.json", "w", encoding="utf-8") as handle:
            json.dump({"setup": setup, "marks": marks, "flows_peak": ledger.flows_peak}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
