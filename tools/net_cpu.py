"""CPU per request of each process of the network decode path.

Starts a one-worker :class:`~repro.service.net.NetServer` in a child process
(this script re-run with ``--serve``), then drives ``net-d5-lut``-shaped
traffic through one :class:`~repro.service.net.NetClient`: three d=5
circuit-level ``lut+union-find`` sessions at p = 0.001 / 0.002 / 0.005 mixed
6:3:1, as closed loops of 1, 16 and 64 outstanding requests submitted from
one thread.  Client, front end and worker are all pinned to one CPU, so the
three processes share it the way they share a small host.

For each window it prints the user+system CPU per request of the client
(split by thread), the front-end process and the worker process, and the
requests per request frame the client sent.  CPU times are read from
``/proc/<pid>/stat`` and ``/proc/<pid>/task/<tid>/stat``, so this runs on
Linux only; their resolution is one clock tick (usually 10 ms), which is
why each window runs thousands of requests.

Usage::

    PYTHONPATH=src python tools/net_cpu.py                 # windows 1, 16, 64
    PYTHONPATH=src python tools/net_cpu.py --windows 16 --requests 30000
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import queue
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

DISTANCE = 5
ERROR_RATES = (0.001, 0.002, 0.005)
MIX = (6, 3, 1)
DECODER = "lut+union-find"
TICK_SECONDS = 1.0 / os.sysconf("SC_CLK_TCK")


def cpu_seconds(path: str) -> float:
    """User + system CPU seconds of the process or thread ``path`` names
    (``/proc/<pid>`` or ``/proc/<pid>/task/<tid>``)."""
    with open(os.path.join(path, "stat"), encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * TICK_SECONDS


def serve(specs: str) -> int:
    """Child mode: serve until standard input closes (like
    ``perfbench/netserver.py``), after printing ``port front-pid worker-pid``."""
    from repro.service import CodeSpec, ServiceConfig
    from repro.service.net import NetServer

    server = NetServer(
        ServiceConfig(), processes=1, prewarm=[CodeSpec.from_dict(s) for s in json.loads(specs)]
    )
    _host, port = server.start()
    try:
        (worker,) = multiprocessing.active_children()
        print(port, os.getpid(), worker.pid, flush=True)
        sys.stdin.read()
    finally:
        server.stop()
    return 0


def traffic(seed: int, total: int):
    import numpy as np

    from repro.graphs import SyndromeSampler
    from repro.service import CodeSpec, DecodeRequest, SessionKey

    codes = [CodeSpec(DISTANCE, "circuit_level", rate) for rate in ERROR_RATES]
    keys = [SessionKey(code, DECODER) for code in codes]
    weights = np.array(MIX, dtype=float) / sum(MIX)
    choice = np.random.default_rng([seed, 1]).choice(len(keys), size=total, p=weights)
    pools = []
    for index, code in enumerate(codes):
        sampler = SyndromeSampler(code.build_graph(), seed=np.random.SeedSequence([seed, index]))
        pools.append(iter(sampler.sample_batch(int((choice == index).sum()))))
    requests = [DecodeRequest(keys[k], next(pools[int(k)]), i) for i, k in enumerate(choice)]
    return codes, keys, requests


def closed_loop(client, requests, window: int) -> None:
    """Keep ``window`` requests outstanding until every one is answered."""
    completions: queue.SimpleQueue = queue.SimpleQueue()
    cursor = inflight = 0
    while cursor < len(requests) or inflight:
        while inflight < window and cursor < len(requests):
            future = client.submit(requests[cursor])
            future.add_done_callback(completions.put)
            cursor += 1
            inflight += 1
        completions.get(timeout=60).result()
        inflight -= 1


def thread_cpu() -> dict[str, float]:
    """CPU seconds of each live thread of this process, by thread name."""
    names = {thread.native_id: thread.name for thread in threading.enumerate()}
    seconds: dict[str, float] = {}
    for tid in os.listdir("/proc/self/task"):
        name = names.get(int(tid), f"tid-{tid}")
        try:
            seconds[name] = seconds.get(name, 0.0) + cpu_seconds(f"/proc/self/task/{tid}")
        except FileNotFoundError:  # the thread exited meanwhile
            pass
    return seconds


def measure(window: int, total: int, seed: int) -> dict:
    from repro.graphs import Syndrome
    from repro.service import DecodeRequest
    from repro.service.net import NetClient

    codes, keys, requests = traffic(seed, total)
    specs = json.dumps([code.to_dict() for code in codes])
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--serve", specs],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        port, front_pid, worker_pid = map(int, child.stdout.readline().split())
        with NetClient("127.0.0.1", port) as client:
            for key in keys:  # build every session before the clock starts
                client.decode(DecodeRequest(key, Syndrome(defects=())), timeout=60)
            frames_before = sum(client.wire_stats()["batch_histogram"].values())
            threads_before = thread_cpu()
            front_before = cpu_seconds(f"/proc/{front_pid}")
            worker_before = cpu_seconds(f"/proc/{worker_pid}")
            started = time.perf_counter()
            closed_loop(client, requests, window)
            wall = time.perf_counter() - started
            threads_after = thread_cpu()
            front = cpu_seconds(f"/proc/{front_pid}") - front_before
            worker = cpu_seconds(f"/proc/{worker_pid}") - worker_before
            frames = sum(client.wire_stats()["batch_histogram"].values()) - frames_before
    finally:
        child.stdin.close()
        child.wait(60)
        child.stdout.close()
    per_thread = {
        name: (seconds - threads_before.get(name, 0.0)) / total * 1e6
        for name, seconds in threads_after.items()
    }
    client_us = sum(per_thread.values())
    return {
        "window": window,
        "requests": total,
        "requests_per_s": total / wall,
        "requests_per_frame": total / frames,
        "client_us": client_us,
        "client_threads_us": per_thread,
        "front_end_us": front / total * 1e6,
        "worker_us": worker / total * 1e6,
        "total_us": client_us + (front + worker) / total * 1e6,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--windows", type=int, nargs="+", default=[1, 16, 64])
    parser.add_argument(
        "--requests", type=int, default=None,
        help="requests per window (default: 5000 for a window of 1, else 20000)",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--serve", metavar="SPECS", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.serve is not None:
        return serve(args.serve)
    # Children inherit the affinity: all three processes share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    print("window  req/frame  req/s  client (by thread)  front-end  worker  total  [us CPU/req]")
    for window in args.windows:
        total = args.requests or (5000 if window == 1 else 20000)
        row = measure(window, total, args.seed)
        threads = " ".join(
            f"{name.removeprefix('repro-net-client-')}={us:.1f}"
            for name, us in sorted(row["client_threads_us"].items())
        )
        print(
            f"{window:6d}  {row['requests_per_frame']:9.1f}  {row['requests_per_s']:7.0f}"
            f"  {row['client_us']:7.1f}  ({threads})  {row['front_end_us']:9.1f}"
            f"  {row['worker_us']:6.1f}  {row['total_us']:6.1f}",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
