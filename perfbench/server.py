"""Start one ReproServer for the benchmark; optionally traced.

Usage (from the repository root)::

    python3 perfbench/server.py [--trace-out PATH]

The server has no ``cache_dir``, so no disk-warm state carries from one
server to the next.  Once listening it prints ``PORT <n>`` on stdout.  On
SIGTERM it drains gracefully; with ``--trace-out`` the layer wrappers of
``tracing.py`` are installed before the server (and with it every
service and solver registry) is built, and the recorded spans are written
to PATH after the drain.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


async def serve(recorder, trace_out) -> None:
    from repro.server import ReproServer

    server = ReproServer(port=0)
    await server.start()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, server.request_drain)
    print(f"PORT {server.port}", flush=True)
    await server.serve_forever()
    if recorder is not None:
        recorder.dump(trace_out)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-out", help="write recorded spans here at drain")
    args = parser.parse_args()
    recorder = None
    if args.trace_out:
        from tracing import Recorder

        recorder = Recorder()
        recorder.install()
    asyncio.run(serve(recorder, args.trace_out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
