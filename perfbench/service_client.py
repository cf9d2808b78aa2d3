"""Closed-loop HTTP client for the service-mixed workload (standard library only).

Runs as its own process so that its work does not share the server's
interpreter lock.  ``--connections`` threads each send their next request
only after the previous reply arrived.  Most requests are cache hits:
``POST /runs {"spec": …}`` (three in four) and ``GET /results/<key>``, for
results the benchmark stored before starting the service.  Thread 0 turns
every ``--miss-every``-th request into a miss: it POSTs a spec at a new seed
and polls ``GET /jobs/<key>`` until the job reads ``done``.

Every status code is checked, and every hit payload is compared with the
stored metrics.  The last line of standard output is one JSON object of
statistics.
"""

from __future__ import annotations

import argparse
import http.client
import json
import random
import threading
import time

clock = time.perf_counter
POLL_S = 0.005


def request(port: int, method: str, path: str, body=None):
    """One request on its own connection (the service closes after each)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        connection.request(method, path, body=payload, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.hit_latencies_s = []
        self.miss_latencies_s = []
        self.miss_keys = []
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.queue_depth_max = 0

    def record(self, ok: bool, what: str) -> None:
        with self.lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(what)


def hit(port, stored, rng, stats):
    entry = stored[rng.randrange(len(stored))]
    if rng.random() < 0.75:
        start = clock()
        status, body = request(port, "POST", "/runs", {"spec": entry["spec"]})
        elapsed = clock() - start
        ok = status == 200 and body.get("cached") is True
    else:
        start = clock()
        status, body = request(port, "GET", f"/results/{entry['key']}")
        elapsed = clock() - start
        ok = status == 200
    ok = ok and body.get("cache_key") == entry["key"] and body.get("metrics") == entry["metrics"]
    stats.record(ok, f"hit {entry['key']}: status {status}")
    if ok:
        with stats.lock:
            stats.hit_latencies_s.append(elapsed)


def miss(port, spec, stats, deadline):
    start = clock()
    status, body = request(port, "POST", "/runs", {"spec": spec})
    if status != 202:
        stats.record(False, f"miss POST: status {status}, expected 202")
        return
    key = body["cache_key"]
    while True:
        status, body = request(port, "GET", f"/jobs/{key}")
        if status != 200 or body.get("status") == "failed":
            stats.record(False, f"miss poll {key}: status {status} {body.get('error')}")
            return
        if body.get("status") == "done":
            elapsed = clock() - start
            break
        if clock() > deadline:
            stats.record(False, f"miss {key} not done before the deadline")
            return
        time.sleep(POLL_S)
    ok = body.get("metrics", {}).get("messages_delivered", -1) <= body["metrics"].get(
        "messages_generated", -1)
    stats.record(ok, f"miss {key}: delivered exceeds generated")
    with stats.lock:
        stats.miss_latencies_s.append(elapsed)
        stats.miss_keys.append(key)


def loop(index, args, stored, misses, stats, end):
    rng = random.Random(f"{args.seed}:{index}")
    sent = 0
    next_miss = args.miss_offset
    while clock() < end:
        sent += 1
        try:
            if index == 0 and sent % args.miss_every == 0 and next_miss < len(misses):
                next_miss += 1
                miss(args.port, misses[next_miss - 1], stats, end + 60)
            else:
                hit(args.port, stored, rng, stats)
        except (OSError, http.client.HTTPException, ValueError) as exc:
            stats.record(False, f"{type(exc).__name__}: {exc}")


def sample_health(port, stats, end):
    while clock() < end:
        status, body = request(port, "GET", "/health")
        if status == 200:
            with stats.lock:
                stats.queue_depth_max = max(stats.queue_depth_max, body["queue_depth"])
        time.sleep(0.02)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--requests", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--connections", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--miss-every", type=int, default=100)
    parser.add_argument("--miss-offset", type=int, default=0)
    parser.add_argument("--health", action="store_true",
                        help="also sample GET /health for the queue depth")
    args = parser.parse_args()
    with open(args.requests, encoding="utf-8") as handle:
        requests = json.load(handle)

    stats = Stats()
    start = clock()
    end = start + args.seconds
    threads = [
        threading.Thread(target=loop, args=(i, args, requests["stored"],
                                            requests["misses"], stats, end))
        for i in range(args.connections)
    ]
    if args.health:
        threads.append(threading.Thread(target=sample_health, args=(args.port, stats, end)))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    print(json.dumps({
        "window_s": clock() - start,
        "hit_latencies_s": stats.hit_latencies_s,
        "miss_latencies_s": stats.miss_latencies_s,
        "miss_keys": stats.miss_keys,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "errors": stats.errors,
        "queue_depth_max": stats.queue_depth_max,
    }))


if __name__ == "__main__":
    main()
