"""Server processes and the client side of the two serve workloads.

Servers run as ``ssd serve`` / ``ssd cluster start`` processes, so the
numbers measure the program and not GIL contention with the load
generator.  The load is a closed loop of one caller: one connection
that sends its next GET_FUNCTION when the last reply has arrived, like
a VM paging in code.  (Two client threads in one process share its GIL:
their tail latency measured the interpreter's 5 ms thread switch.)

Timed loops run under :meth:`common.Pace.sampling`: each request's
latency leaves out the ticks that fell inside it, and is scaled by the
ticks of its block of :data:`BLOCK` requests.

The untraced loop uses the public :class:`repro.serve.ServeClient`.  The
traced loop speaks the wire protocol directly (``build_get_function`` +
``encode_frame``, ``read_frame``, ``parse_ok_function``) so that each
client layer gets its own span, and alternates traced with untraced
requests on the same path, so the tracing cost is measured in-run.
"""

from __future__ import annotations

import contextlib
import json
import socket
import statistics
import time
from typing import Dict, List, Optional, Sequence, Tuple

from common import (OUT, Metrics, Pace, Paced, Processes, ProcessGroup,
                    Spans, percentile, prometheus_sums, quiesce, ssd_argv)

HOST = "127.0.0.1"
TIMEOUT = 30.0
#: requests paced by one window of ticks
BLOCK = 128

Request = Tuple[int, int]   # (container index, function index)


def start_server(processes: Processes, tag: str,
                 *options: str) -> Tuple[ProcessGroup, int]:
    """``ssd serve --port 0`` with ``options``; returns (group, port)."""
    port_file = OUT / f"{tag}.port"
    port_file.unlink(missing_ok=True)
    group = processes.start(
        ssd_argv("serve", "--host", HOST, "--port", "0",
                 "--port-file", str(port_file), *options), f"{tag}.log")
    return group, group.wait_for_file(port_file)


def start_cluster(processes: Processes, tag: str):
    """``ssd cluster start`` with its defaults (3 shards, R=2, default
    router config); returns (group, router port, {shard id: port})."""
    port_file = OUT / f"{tag}.port"
    state_file = OUT / f"{tag}.state.json"
    for path in (port_file, state_file):
        path.unlink(missing_ok=True)
    group = processes.start(
        ssd_argv("cluster", "start", "--host", HOST, "--port", "0",
                 "--port-file", str(port_file),
                 "--state-file", str(state_file)), f"{tag}.log")
    state = group.wait_for_file(state_file, parse=json.loads)
    shards = {entry["shard_id"]: int(entry["port"])
              for entry in state["shards"]}
    return group, int(state["router"]["port"]), shards


def client(port: int):
    from repro.serve import ServeClient

    return ServeClient(HOST, port, timeout=TIMEOUT)


def put(pace: Pace, port: int, data: bytes) -> Tuple[str, float]:
    """PUT a container; returns (container id, seconds less ticks)."""
    with client(port) as conn:
        start = time.perf_counter()
        container_id, _, _ = conn.put(data)
        return container_id, pace.work(start, time.perf_counter())


def stats(port: int) -> dict:
    with client(port) as conn:
        return conn.stats()


def metric_sums(port: int) -> Dict[str, float]:
    with client(port) as conn:
        return prometheus_sums(conn.metrics_text())


class RawConnection:
    """One socket speaking the wire protocol through its public
    functions, timing each client-side layer of a GET_FUNCTION."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=TIMEOUT)
        self.stream = self.sock.makefile("rwb")
        self.request_id = 0

    def get_function(self, container_id: str, findex: int):
        """Returns (function, response bytes, t0, t_encoded, t_replied,
        t_parsed)."""
        from repro.errors import ProtocolError, RemoteError
        from repro.serve import protocol

        self.request_id += 1
        t0 = time.perf_counter()
        frame = protocol.encode_frame(protocol.Message(
            type=protocol.GET_FUNCTION, request_id=self.request_id,
            body=protocol.build_get_function(container_id, findex)))
        t1 = time.perf_counter()
        self.stream.write(frame)
        self.stream.flush()
        response = protocol.read_frame(self.stream)
        t2 = time.perf_counter()
        if response is None or response.request_id != self.request_id:
            raise ProtocolError("reply lost or out of order")
        if response.type == protocol.ERROR:
            code, message = protocol.parse_error(response.body)
            raise RemoteError(message, code=code)
        function = protocol.parse_ok_function(response.body)
        return function, len(response.body), t0, t1, t2, time.perf_counter()

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


class LoopResult:
    """What a closed loop produced: per-request latencies (paced and
    wall seconds), verified and failed requests, and client-layer
    samples.

    Answers are checked as they arrive and then dropped: kept, they
    would grow the client's heap and with it the cost of its garbage
    collections, slowing the later requests of a run."""

    def __init__(self, references=()) -> None:
        self.references = references
        self.answered = 0
        self.latencies: List[Paced] = []
        self.wrong: List[str] = []
        #: requests refused or failed: no answer to check
        self.errors: List[str] = []
        #: seconds spent on requests, wall and paced (ticks left out)
        self.elapsed = 0.0
        self.paced_elapsed = 0.0
        self.traced_latencies: List[float] = []
        self.layers: Dict[str, List[float]] = {
            "encode": [], "wait": [], "parse": [], "bytes": []}

    def check(self, request: Request, function) -> None:
        cid, findex = request
        self.answered += 1
        if function != self.references[cid].functions[findex]:
            self.wrong.append(f"{request}: wrong function")

    @property
    def failures(self) -> List[str]:
        return self.wrong + self.errors

    def rate(self) -> Paced:
        """Answered requests per second, paced and wall."""
        return (self.answered / self.paced_elapsed,
                self.answered / self.elapsed)

    def merge(self, other: "LoopResult") -> None:
        self.answered += other.answered
        self.latencies += other.latencies
        self.wrong += other.wrong
        self.errors += other.errors
        self.elapsed += other.elapsed
        self.paced_elapsed += other.paced_elapsed
        self.traced_latencies += other.traced_latencies
        for key, values in other.layers.items():
            self.layers[key] += values


def closed_loop(port: int, ids: Sequence[str], references,
                requests: Sequence[Request], seconds: Optional[float],
                spans: Optional[Spans] = None,
                pace: Optional[Pace] = None) -> LoopResult:
    """One connection through ``requests`` once (``seconds`` None) or
    cycled until ``seconds`` of requests have run; traced, every other
    request recorded, when ``spans`` is given; sampled, each block of
    :data:`BLOCK` requests paced by its own ticks, when ``pace`` is
    given.  Each answer is compared with
    ``references[container].functions[findex]``."""
    from repro.errors import ProtocolError, RemoteError

    out = LoopResult(references)

    def connect():
        return client(port) if spans is None else RawConnection(port)

    conn = connect()

    def one(index: int):
        """Send request ``index``; ``(start, end, traced layer times)``,
        or None if it failed."""
        nonlocal conn
        request = requests[index % len(requests)]
        cid, findex = request
        try:
            if spans is None:
                start = time.perf_counter()
                function = conn.function(ids[cid], findex)
                result = (start, time.perf_counter(), None)
            else:
                function, size, t0, t1, t2, t3 = conn.get_function(
                    ids[cid], findex)
                result = (t0, t3, None)
                if index % 2:
                    root = spans.record("serve.request", t0, t3)
                    spans.record("serve.protocol.encode_request", t0, t1,
                                 root, root)
                    spans.record("serve.client.wait", t1, t2, root, root)
                    spans.record("serve.protocol.parse_response", t2, t3,
                                 root, root)
                    result = (t0, time.perf_counter(), (t1, t2, t3, size))
        except (RemoteError, ProtocolError, OSError) as exc:
            out.errors.append(f"{request}: {type(exc).__name__}: {exc}")
            if not isinstance(exc, RemoteError):
                conn.close()
                conn = connect()
            return None
        out.check(request, function)
        return result

    def wall(start: float, end: float) -> float:
        return end - start

    work = pace.work if pace else wall
    try:
        quiesce()
        index = 0
        with pace.sampling() if pace else contextlib.nullcontext():
            while (index < len(requests) if seconds is None
                   else out.elapsed < seconds):
                stop = index + BLOCK
                if seconds is None:
                    stop = min(stop, len(requests))
                start = time.perf_counter()
                block = [one(i) for i in range(index, stop)]
                end = time.perf_counter()
                index = stop
                factor = pace.factor(start, end) if pace else 1.0
                out.elapsed += work(start, end)
                out.paced_elapsed += work(start, end) * factor
                for sent, done, traced in filter(None, block):
                    if traced is None:
                        latency = work(sent, done)
                        out.latencies.append((latency * factor, latency))
                        continue
                    t1, t2, t3, size = traced
                    for key, value in (("encode", work(sent, t1)),
                                       ("wait", work(t1, t2)),
                                       ("parse", work(t2, t3)),
                                       ("bytes", size)):
                        out.layers[key].append(value)
                    out.traced_latencies.append(work(sent, done))
    finally:
        conn.close()
    return out


def add_client_metrics(metrics: Metrics, loop: LoopResult,
                       rates: Sequence[Paced], trace: bool) -> None:
    """End-to-end latency/throughput and, traced, the client layers."""
    millis = [(p * 1e3, w * 1e3) for p, w in loop.latencies]
    metrics.add_percentile("get_function_p50_ms", "ms", millis, 0.50)
    metrics.add_percentile("get_function_p99_ms", "ms", millis, 0.99)
    metrics.add_paced("requests_per_s", "1/s", rates)
    if not trace:
        return
    micros = {key: [s * 1e6 for s in values]
              for key, values in loop.layers.items() if key != "bytes"}
    metrics.add_median("serve.protocol.encode_request_us", "us",
                       micros["encode"])
    metrics.add_median("serve.client.wait_us", "us", micros["wait"])
    metrics.add_median("serve.protocol.parse_response_us", "us",
                       micros["parse"])
    metrics.add_median("serve.protocol.response_bytes", "bytes",
                       loop.layers["bytes"])
    totals = [e + w + p for e, w, p in zip(micros["encode"], micros["wait"],
                                          micros["parse"])]
    metrics.add_median("serve.protocol.parse_share", "ratio",
                       [p / t for p, t in zip(micros["parse"], totals)])
    untraced = percentile([w for _, w in loop.latencies], 0.50)
    metrics.add("trace.overhead_share", "ratio",
                percentile(loop.traced_latencies, 0.50) / untraced - 1.0,
                [t / untraced - 1.0 for t in loop.traced_latencies])


def verify(loop: LoopResult, oracle) -> None:
    """Fold a loop's checked answers and failures into the run's oracle."""
    oracle.tally(loop.answered + len(loop.errors), loop.failures)


def server_layers(layers: Dict[str, List[float]], front: dict,
                  before: List[dict], after: List[dict]) -> None:
    """serve.server.* / serve.cache.* / serve.prefetch.* over the timed
    window: request latency from the STATS of the server the client
    talks to (``front``), the rest summed over the servers that decode
    (``before``/``after`` STATS of each)."""
    def delta(*path: str) -> float:
        total = 0.0
        for old, new in zip(before, after):
            for key in path[:-1]:
                old, new = old.get(key) or {}, new.get(key) or {}
            total += new.get(path[-1], 0) - old.get(path[-1], 0)
        return total

    request = front["latency"].get("GET_FUNCTION", {})
    hits, misses = delta("cache", "hits"), delta("cache", "misses")
    issued = delta("prefetch", "issued")
    decode_p50 = [stats["decode_latency"]["p50_ms"] for stats in after
                  if stats["decode_latency"]["count"]]
    for name, value in (
            ("serve.server.request_p50_ms", request.get("p50_ms", 0.0)),
            ("serve.server.request_p99_ms", request.get("p99_ms", 0.0)),
            ("serve.server.decodes", delta("decodes_total")),
            ("serve.server.decode_p50_ms",
             statistics.median(decode_p50) if decode_p50 else 0.0),
            ("serve.cache.hit_rate",
             hits / (hits + misses) if hits + misses else 0.0),
            ("serve.cache.evictions", delta("cache", "evictions")),
            ("serve.cache.admission_rejects",
             delta("cache_admission", "rejects")),
            ("serve.prefetch.issued", issued),
            ("serve.prefetch.hit_ratio",
             delta("prefetch", "hits") / issued if issued else 0.0)):
        layers.setdefault(name, []).append(float(value))
