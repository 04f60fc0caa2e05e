"""Server-side observability: request counts, latencies, decode accounting.

One :class:`ServerMetrics` instance per server, updated from the event
loop and from decode worker threads.  Since the observability layer
landed, the counters themselves live in a :class:`~repro.obs.MetricsRegistry`
(per-server by default, so tests don't cross-pollute; pass
``registry=REGISTRY`` to publish into the process-wide one) — the
``STATS`` payload built by :meth:`ServerMetrics.snapshot` is a *view*
over those registry families, and :meth:`ServerMetrics.expose_text`
serves the same numbers in Prometheus text format for ``GET_METRICS``.

Registry families, all prefixed ``serve_``:

* ``serve_requests_total{type=...}``     — requests answered, by wire type
* ``serve_errors_total{code=...}``       — ERROR frames sent, by code name
* ``serve_bytes_in_total`` / ``serve_bytes_out_total``
* ``serve_connections_total{event=opened|closed}``
* ``serve_connections_active``           — gauge, opened minus closed
* ``serve_protocol_failures_total``      — lost frame boundaries
* ``serve_timeouts_total``               — requests past the deadline
* ``serve_coalesced_total``              — requests that joined an
  in-flight decode instead of starting one
* ``serve_decodes_total``                — decode work actually performed
* ``serve_delta_patches_total``          — GET_DELTA requests answered
  with a patch
* ``serve_delta_bytes_saved_total``      — full-transfer bytes avoided
  by those patches (full container size minus patch size)
* ``serve_prefetch_issued_total``        — background decodes issued by
  the markov prefetcher
* ``serve_prefetch_hits_total``          — GET_FUNCTION requests served
  from a prefetched cache entry
* ``serve_delta_no_base_total``          — GET_DELTA requests refused
  E_NO_BASE (the client fell back to a full transfer)
* ``serve_request_seconds{type=...}``    — request latency histogram
* ``serve_decode_seconds``               — cache-miss decode latency
  (the ``serve.decode`` span only; cache hits and coalesced joins are
  excluded)

Latency *percentiles* (p50/p99/max in the STATS payload) still come from
bounded reservoirs (:class:`LatencyReservoirs`: the most recent
:data:`RESERVOIR_SIZE` samples per request type) — exact for test-sized
runs, constant memory under unbounded traffic — while the registry
histogram gives scrapers fixed-bucket cumulative counts.

Per-function decode attribution (``decodes_for``, the acceptance check
"only the functions reached were decompressed, exactly once") keeps its
own exact ``(container_id, findex)`` table; the registry family carries
the total, not the per-function cardinality.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from typing import Deque, Dict, List, Optional, Union

from ..obs import DEFAULT_TIME_BUCKETS, MetricsRegistry

#: samples kept per request type for percentile estimation
RESERVOIR_SIZE = 2048


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample set."""
    if not samples:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


class LatencyReservoirs:
    """The most recent latency samples per key, summarized on demand."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._samples: Dict[str, Deque[float]] = {}

    def add(self, key: str, seconds: float) -> None:
        with self._lock:
            reservoir = self._samples.get(key)
            if reservoir is None:
                reservoir = deque(maxlen=RESERVOIR_SIZE)
                self._samples[key] = reservoir
            reservoir.append(seconds)

    def summary(self, key: str) -> Dict[str, Union[int, float]]:
        """``count`` and ``p50_ms``/``p99_ms``/``max_ms`` for one key."""
        with self._lock:
            samples = list(self._samples.get(key, ()))
        return {
            "count": len(samples),
            "p50_ms": percentile(samples, 0.50) * 1e3,
            "p99_ms": percentile(samples, 0.99) * 1e3,
            "max_ms": (max(samples) * 1e3) if samples else 0.0,
        }

    def summaries(self) -> Dict[str, Dict[str, Union[int, float]]]:
        """:meth:`summary` of every key, in key order."""
        with self._lock:
            keys = sorted(self._samples)
        return {key: self.summary(key) for key in keys}


class _RequestMetrics:
    """What every frame service counts per answer: requests by wire type,
    ERROR frames by code, and latency by wire type (a histogram for
    scrapers, reservoirs for the STATS percentiles)."""

    def __init__(self, registry: Optional[MetricsRegistry],
                 prefix: str) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self._requests = self.registry.counter(
            f"{prefix}_requests_total", "Requests answered, by wire type.")
        self._errors = self.registry.counter(
            f"{prefix}_errors_total", "ERROR frames sent, by error code name.")
        self._latency_hist = self.registry.histogram(
            f"{prefix}_request_seconds", "Request latency, by wire type.",
            buckets=DEFAULT_TIME_BUCKETS)
        self._latency = LatencyReservoirs()

    def _record_answer(self, type_name: str, seconds: float) -> None:
        self._requests.inc(type=type_name)
        self._latency_hist.observe(seconds, type=type_name)
        self._latency.add(type_name, seconds)

    def record_error(self, code_name: str) -> None:
        self._errors.inc(code=code_name)

    def expose_text(self) -> str:
        """Prometheus text exposition of this service's registry."""
        return self.registry.expose_text()

    def _answers_snapshot(self) -> dict:
        """The requests/errors/latency part of a STATS payload."""
        requests = {dict(labels).get("type", ""): count
                    for labels, count in self._requests.collect().items()}
        errors = {dict(labels).get("code", ""): count
                  for labels, count in self._errors.collect().items()}
        return {
            "requests": dict(sorted(requests.items())),
            "requests_total": sum(requests.values()),
            "errors": dict(sorted(errors.items())),
            "errors_total": sum(errors.values()),
            "latency": self._latency.summaries(),
        }


class ServerMetrics(_RequestMetrics):
    """Thread-safe server counters backed by a metrics registry."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        super().__init__(registry, "serve")
        self._lock = threading.Lock()
        self._bytes_in = self.registry.counter(
            "serve_bytes_in_total", "Request body bytes received.")
        self._bytes_out = self.registry.counter(
            "serve_bytes_out_total", "Response frame bytes sent.")
        self._connections = self.registry.counter(
            "serve_connections_total",
            "Connection lifecycle events (event=opened|closed).")
        self._active = self.registry.gauge(
            "serve_connections_active", "Connections currently open.")
        self._protocol_failures = self.registry.counter(
            "serve_protocol_failures_total",
            "Connections dropped after a lost frame boundary.")
        self._timeouts = self.registry.counter(
            "serve_timeouts_total", "Requests past the per-request deadline.")
        self._coalesced = self.registry.counter(
            "serve_coalesced_total",
            "Requests that joined an in-flight decode.")
        self._decodes = self.registry.counter(
            "serve_decodes_total", "Decode work actually performed.")
        self._delta_patches = self.registry.counter(
            "serve_delta_patches_total",
            "GET_DELTA requests answered with a patch.")
        self._delta_bytes_saved = self.registry.counter(
            "serve_delta_bytes_saved_total",
            "Full-transfer bytes avoided by GET_DELTA patches.")
        self._delta_no_base = self.registry.counter(
            "serve_delta_no_base_total",
            "GET_DELTA requests refused E_NO_BASE (full-transfer fallback).")
        self._prefetch_issued = self.registry.counter(
            "serve_prefetch_issued_total",
            "Background decodes issued by the markov prefetcher.")
        self._prefetch_hits = self.registry.counter(
            "serve_prefetch_hits_total",
            "GET_FUNCTION requests answered from a prefetched cache entry.")
        self._decode_hist = self.registry.histogram(
            "serve_decode_seconds",
            "Cache-miss decode latency (the serve.decode span).",
            buckets=DEFAULT_TIME_BUCKETS)
        #: decode work actually performed: (container_id, findex) -> count.
        #: A function served from cache or a coalesced request does NOT
        #: increment this — the acceptance check "only the functions
        #: reached were decompressed, exactly once" reads it directly.
        self.decode_counts: Counter = Counter()
        #: cache-miss decode latency, under the one key "decode"
        self._decode_latency = LatencyReservoirs()

    # -- recording ----------------------------------------------------------

    def record_connection(self, opened: bool) -> None:
        if opened:
            self._connections.inc(event="opened")
            self._active.inc()
        else:
            self._connections.inc(event="closed")
            self._active.dec()

    def record_request(self, type_name: str, seconds: float,
                       bytes_in: int, bytes_out: int) -> None:
        self._record_answer(type_name, seconds)
        self._bytes_in.inc(bytes_in)
        self._bytes_out.inc(bytes_out)

    def record_timeout(self) -> None:
        self._timeouts.inc()

    def record_protocol_failure(self) -> None:
        self._protocol_failures.inc()

    def record_coalesced(self) -> None:
        self._coalesced.inc()

    def record_delta(self, patch_bytes: int, full_bytes: int) -> None:
        self._delta_patches.inc()
        self._delta_bytes_saved.inc(max(0, full_bytes - patch_bytes))

    def record_prefetch_issued(self) -> None:
        self._prefetch_issued.inc()

    def record_prefetch_hit(self) -> None:
        self._prefetch_hits.inc()

    def record_delta_no_base(self) -> None:
        self._delta_no_base.inc()

    def record_decode(self, container_id: str, findex: int,
                      seconds: Optional[float] = None) -> None:
        self._decodes.inc()
        if seconds is not None:
            self._decode_hist.observe(seconds)
            self._decode_latency.add("decode", seconds)
        with self._lock:
            self.decode_counts[(container_id, findex)] += 1

    # -- reading ------------------------------------------------------------

    def decodes_for(self, container_id: str) -> Dict[int, int]:
        """Per-function decode counts for one container."""
        with self._lock:
            return {findex: count
                    for (cid, findex), count in self.decode_counts.items()
                    if cid == container_id}

    def snapshot(self, cache_stats: Optional[dict] = None,
                 store_stats: Optional[dict] = None,
                 admission_stats: Optional[dict] = None) -> dict:
        """JSON-safe, stable-keyed metrics snapshot (the STATS payload)."""
        with self._lock:
            decoded: Dict[str, Dict[str, int]] = {}
            for (cid, _findex), count in self.decode_counts.items():
                entry = decoded.setdefault(cid, {"functions": 0, "decodes": 0})
                entry["functions"] += 1
                entry["decodes"] += count
            decodes_total = sum(self.decode_counts.values())
        opened = int(self._connections.value(event="opened"))
        closed = int(self._connections.value(event="closed"))
        snapshot = self._answers_snapshot()
        snapshot.update({
            "bytes_in": int(self._bytes_in.value()),
            "bytes_out": int(self._bytes_out.value()),
            "connections": {
                "opened": opened,
                "closed": closed,
                "active": opened - closed,
            },
            "protocol_failures": int(self._protocol_failures.value()),
            "timeouts": int(self._timeouts.value()),
            "coalesced": int(self._coalesced.value()),
            "decode_latency": self._decode_latency.summary("decode"),
            "decoded": dict(sorted(decoded.items())),
            "decodes_total": decodes_total,
            "delta": {
                "patches": int(self._delta_patches.value()),
                "bytes_saved": int(self._delta_bytes_saved.value()),
                "no_base": int(self._delta_no_base.value()),
            },
            "prefetch": {
                "issued": int(self._prefetch_issued.value()),
                "hits": int(self._prefetch_hits.value()),
            },
        })
        if cache_stats is not None:
            snapshot["cache"] = cache_stats
        if store_stats is not None:
            snapshot["store"] = store_stats
        if admission_stats is not None:
            snapshot["cache_admission"] = admission_stats
        return snapshot


#: numeric encoding of shard health states for the state gauge
#: (gauges carry floats; dashboards map the value back to the name)
SHARD_STATE_CODES = {"up": 0, "suspect": 1, "draining": 2, "down": 3}

#: numeric encoding of breaker states for the breaker gauge
BREAKER_STATE_CODES = {"closed": 0, "half-open": 1, "open": 2}

#: router hop histogram buckets: attempts consumed per request
HOP_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 16.0)


class RouterMetrics(_RequestMetrics):
    """Thread-safe cluster-router counters backed by a metrics registry.

    Families are prefixed ``cluster_`` (``router_`` for the response
    cache); the per-answer accounting is the shard's, and the router's
    ``STATS`` payload is a view over the registry just like a shard's.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        super().__init__(registry, "cluster")
        self._shard_state = self.registry.gauge(
            "cluster_shard_state",
            "Health state per shard (0=up 1=suspect 2=draining 3=down).")
        self._failovers = self.registry.counter(
            "cluster_failovers_total",
            "Requests re-routed to another replica after a shard failed.")
        self._retries = self.registry.counter(
            "cluster_retries_total",
            "Backoff-then-retry attempts the router made on behalf of "
            "clients.")
        self._breaker_state = self.registry.gauge(
            "cluster_breaker_state",
            "Circuit-breaker state per shard (0=closed 1=half-open 2=open).")
        self._breaker_transitions = self.registry.counter(
            "cluster_breaker_transitions_total",
            "Circuit-breaker state entries, by shard and state entered.")
        self._hops = self.registry.histogram(
            "cluster_hops",
            "Shard attempts consumed per routed request.",
            buckets=HOP_BUCKETS)
        self._unavailable = self.registry.counter(
            "cluster_unavailable_total",
            "Requests answered E_UNAVAILABLE (no live replica remained).")
        self._probe_failures = self.registry.counter(
            "cluster_probe_failures_total",
            "Health probes that failed, by shard.")
        self._cache_hits = self.registry.counter(
            "router_cache_hits_total",
            "Routed GETs answered from the router response cache.")
        self._cache_misses = self.registry.counter(
            "router_cache_misses_total",
            "Cacheable routed GETs that had to reach a shard.")
        self._cache_evictions = self.registry.counter(
            "router_cache_evictions_total",
            "Response-cache entries evicted to respect the byte budget.")
        self._cache_bytes = self.registry.gauge(
            "router_cache_bytes",
            "Bytes currently held by the router response cache.")

    # -- recording ----------------------------------------------------------

    def record_request(self, type_name: str, seconds: float,
                       hops: int) -> None:
        self._record_answer(type_name, seconds)
        self._hops.observe(float(hops))

    def record_shard_state(self, shard_id: str, state: str) -> None:
        self._shard_state.set(float(SHARD_STATE_CODES.get(state, 3)),
                              shard=shard_id)

    def record_failover(self, shard_id: str) -> None:
        self._failovers.inc(shard=shard_id)

    def record_retry(self) -> None:
        self._retries.inc()

    def record_breaker_state(self, shard_id: str, state: str) -> None:
        self._breaker_state.set(float(BREAKER_STATE_CODES.get(state, 2)),
                                shard=shard_id)

    def record_breaker_transition(self, shard_id: str, state: str) -> None:
        self._breaker_transitions.inc(shard=shard_id, state=state)

    def record_unavailable(self) -> None:
        self._unavailable.inc()

    def record_probe_failure(self, shard_id: str) -> None:
        self._probe_failures.inc(shard=shard_id)

    def record_cache_hit(self) -> None:
        self._cache_hits.inc()

    def record_cache_miss(self) -> None:
        self._cache_misses.inc()

    def record_cache_evictions(self, count: int) -> None:
        if count > 0:
            self._cache_evictions.inc(count)

    def record_cache_bytes(self, current_bytes: int) -> None:
        self._cache_bytes.set(float(current_bytes))

    # -- reading ------------------------------------------------------------

    def snapshot(self, shard_states: Optional[Dict[str, str]] = None) -> dict:
        """JSON-safe router stats (the router's STATS payload)."""
        failovers = {dict(labels).get("shard", ""): int(count)
                     for labels, count in self._failovers.collect().items()}
        probe_failures = {
            dict(labels).get("shard", ""): int(count)
            for labels, count in self._probe_failures.collect().items()}
        snapshot = self._answers_snapshot()
        snapshot.update({
            "failovers": dict(sorted(failovers.items())),
            "failovers_total": sum(failovers.values()),
            "retries": int(self._retries.value()),
            "unavailable": int(self._unavailable.value()),
            "probe_failures": dict(sorted(probe_failures.items())),
            "cache": {
                "hits": int(self._cache_hits.value()),
                "misses": int(self._cache_misses.value()),
                "evictions": int(self._cache_evictions.value()),
                "current_bytes": int(self._cache_bytes.value()),
            },
        })
        if shard_states is not None:
            snapshot["shards"] = dict(sorted(shard_states.items()))
        return snapshot


__all__ = [
    "BREAKER_STATE_CODES",
    "HOP_BUCKETS",
    "LatencyReservoirs",
    "RESERVOIR_SIZE",
    "RouterMetrics",
    "SHARD_STATE_CODES",
    "ServerMetrics",
    "percentile",
]
