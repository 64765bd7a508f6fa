"""Child process of the ``net-d5-lut`` workload: one ``NetServer``.

Usage: ``python3 perfbench/netserver.py '<JSON list of CodeSpec dicts>'``.

Starts a :class:`repro.service.net.NetServer` with the default
:class:`repro.service.ServiceConfig` and one worker process, prewarmed with
the given code specs, prints the port it listens on, serves until its
standard input closes, then drains and exits.  Closing standard input (or
the parent exiting) is the only stop signal, so the server never outlives
the benchmark.
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from repro.service import CodeSpec, ServiceConfig
    from repro.service.net import NetServer

    prewarm = [CodeSpec.from_dict(entry) for entry in json.loads(sys.argv[1])]
    server = NetServer(ServiceConfig(), processes=1, prewarm=prewarm)
    _host, port = server.start()
    try:
        print(port, flush=True)
        sys.stdin.read()
    finally:
        server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
