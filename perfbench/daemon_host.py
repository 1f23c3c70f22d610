"""Run ``repro daemon`` in this process, optionally traceable from outside.

Usage (from the repository root)::

    python3 perfbench/daemon_host.py --max-inflight N --bundle-dir DIR \\
        [--trace-out PATH]

Without ``--trace-out`` this is exactly ``repro daemon`` on ephemeral
ports.  With it, ``SIGUSR1`` installs the layer wrappers of
:mod:`perfbench.layers` on the live daemon and ``SIGUSR2`` removes them
and writes the per-layer aggregates and spans to ``PATH`` (and
``PATH.spans.jsonl``).  ``SIGINT`` stops the daemon as it would stop
from a terminal.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--max-inflight", type=int, required=True)
    parser.add_argument("--bundle-dir", required=True)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args()

    from repro.cli import main as repro_main

    argv = ["daemon", "--port", "0", "--admin-port", "0",
            "--max-inflight", str(args.max_inflight),
            "--bundle-dir", args.bundle_dir]
    if args.trace_out is None:
        return repro_main(argv)

    from perfbench.layers import LayerTracer, server_counters
    from repro.daemon.server import ReproDaemon

    live: list[ReproDaemon] = []
    original_start = ReproDaemon.start

    async def start(daemon: ReproDaemon) -> None:
        live.append(daemon)
        await original_start(daemon)

    ReproDaemon.start = start
    tracer = LayerTracer()
    window: dict[str, float] = {}

    def begin(signum, frame) -> None:
        daemon = live[0]
        window.update(server_counters(daemon.server, daemon.profiler))
        tracer.install(daemon.server)

    def end(signum, frame) -> None:
        tracer.uninstall()
        daemon = live[0]
        after = server_counters(daemon.server, daemon.profiler)
        out = Path(args.trace_out)
        tracer.write_spans(out.with_name(out.name + ".spans.jsonl"))
        payload = {
            "aggregates": tracer.aggregates(),
            "delta": {k: after[k] - window[k] for k in after},
        }
        tmp = out.with_name(out.name + ".tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(out)

    signal.signal(signal.SIGUSR1, begin)
    signal.signal(signal.SIGUSR2, end)
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
