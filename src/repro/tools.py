"""``ssd`` — file-level command line tools.

A downstream user's interface to the library without writing Python::

    ssd compress  program.asm -o program.ssd     # assemble + compress
    ssd compress  bench:xlisp@0.25 -o xlisp.ssd  # synthetic benchmark
    ssd decompress program.ssd -o program.asm    # back to assembly text
    ssd inspect   program.ssd [--json]           # sections, dictionary, stats
    ssd run       program.ssd [--lazy]           # execute in the VM
    ssd verify    program.ssd [--json]           # integrity report (CRCs)
    ssd verify    program.ssd program.asm        # full source comparison
    ssd fuzz      program.ssd --cases 500        # fault-injection sweep
    ssd delta make  old.ssd new.ssd -o p.ssdp    # version diff as a patch
    ssd delta apply old.ssd p.ssdp -o new.ssd    # verified reconstruction
    ssd delta push  HOST:PORT old.ssd new.ssd    # upload + measure wire cost
    ssd serve     --port 7777 --preload a.ssd    # async code server
    ssd client    HOST:PORT run a.ssd            # execute via the server
    ssd client    HOST:PORT stats                # server metrics snapshot
    ssd stats     HOST:PORT [--json]             # Prometheus text / JSON

Inputs are either assembly text files (see ``repro.isa.asm`` for the
format) or ``bench:<name>[@<scale>]`` references to the synthetic
benchmark suite.  ``--json`` on ``inspect``/``verify`` emits one
stable-keyed JSON object to stdout for machine consumers (the server's
admission path, CI).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from .core import (
    MAX_SEQUENCE_LENGTH,
    SEQUENCE_LENGTH_CAP,
    compress,
    container_version,
    decompress,
    integrity_report,
    open_container,
)
from .core.lazy import LazyProgram
from .errors import CorruptContainer, ReproError
from .isa import Program, assemble, disassemble, validate_program
from .perf import PhaseProfile
from .vm import native_size, run_program
from .vm.errors import VMError


class ToolError(ValueError):
    """User-facing CLI errors (bad inputs, bad files)."""


def _write_trace(path: str, root) -> None:
    """Write one finished root span tree as indented JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(root.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote trace to {path}", file=sys.stderr)


def load_program(spec: str) -> Program:
    """Load a program from an asm file path or a ``bench:`` reference."""
    if spec.startswith("bench:"):
        reference = spec[len("bench:"):]
        if "@" in reference:
            name, _, scale_text = reference.partition("@")
            try:
                scale = float(scale_text)
            except ValueError:
                raise ToolError(f"bad scale in {spec!r}") from None
        else:
            name, scale = reference, 0.25
        from .workloads import profile as get_profile
        from .workloads import benchmark_program

        try:
            get_profile(name)
        except KeyError as exc:
            raise ToolError(str(exc)) from None
        return benchmark_program(name, scale=scale)
    try:
        with open(spec, "r", encoding="utf-8") as handle:
            return assemble(handle.read())
    except FileNotFoundError:
        raise ToolError(f"no such file: {spec}") from None


def _read_binary(path: str) -> bytes:
    """Read an input file, or raise :class:`ToolError` when it cannot be."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        raise ToolError(f"no such file: {path}") from None
    except OSError as exc:
        raise ToolError(f"cannot read {path}: {exc.strerror or exc}") from None


def cmd_compress(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from .obs import TRACER

    if args.max_len < 1:
        raise ToolError(f"--max-len must be >= 1, got {args.max_len}")
    if args.max_len > SEQUENCE_LENGTH_CAP:
        raise ToolError(f"--max-len must be <= {SEQUENCE_LENGTH_CAP}, "
                        f"got {args.max_len}")
    program = load_program(args.input)
    validate_program(program)
    profile = PhaseProfile() if args.profile or args.trace else None
    with ExitStack() as stack:
        root = None
        if args.trace:
            root = stack.enter_context(
                TRACER.span("cli.compress", input=args.input))
        compressed = compress(program, codec=args.base_codec,
                              max_len=args.max_len, profile=profile)
    with open(args.output, "wb") as handle:
        handle.write(compressed.data)
    x86 = native_size(program)
    print(f"{program.name}: {program.instruction_count} instructions, "
          f"native {x86} B -> {compressed.size} B "
          f"({compressed.size / x86:.1%} of native)")
    if args.profile:
        print(profile.format(title="compress phases"), file=sys.stderr)
    if args.trace:
        _write_trace(args.trace, root)
    return 0


def cmd_decompress(args: argparse.Namespace) -> int:
    profile = PhaseProfile() if args.profile else None
    program = decompress(_read_binary(args.input), profile=profile)
    if profile is not None:
        print(profile.format(title="decompress phases"), file=sys.stderr)
    text = disassemble(program)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(program.functions)} functions to {args.output}")
    else:
        print(text)
    return 0


def _inspect_json(data: bytes, reader, function: Optional[int]) -> dict:
    """Stable-keyed machine-readable form of ``ssd inspect``."""
    sections = reader.sections
    payload = {
        "program": sections.program_name,
        "container_bytes": len(data),
        "format_version": container_version(data),
        "container_id": reader.container_hash,
        "entry": sections.entry,
        "entry_name": (sections.function_names[sections.entry]
                       if sections.function_names else None),
        "functions": len(sections.function_names),
        "function_names": list(sections.function_names),
        "segments": [
            {
                "index": sindex,
                "base_entries": len(layout.addr_rows),
                "sequence_nodes": len(layout.paths) - len(layout.addr_rows),
            }
            for sindex, layout in enumerate(reader.layouts)
        ],
        "sections": dict(sorted(sections.section_sizes().items())),
    }
    hints = reader.profile_hints
    if sections.function_order is not None or hints is not None:
        hot = list(hints.hot) if hints is not None else []
        payload["profile"] = {
            "reordered": sections.function_order is not None,
            "hot_set_size": len(hot),
            "hot_functions": [
                sections.function_names[findex]
                for findex in hot[:10]
                if 0 <= findex < len(sections.function_names)
            ],
            "successor_edges": len(hints.edges) if hints is not None else 0,
        }
    if function is not None:
        if not 0 <= function < reader.function_count:
            raise ToolError(f"function index {function} out of range")
        payload["function"] = {
            "index": function,
            "name": sections.function_names[function],
            "instructions": [insn.render() for insn
                             in reader.function_instructions(function)],
        }
    return payload


def cmd_inspect(args: argparse.Namespace) -> int:
    data = _read_binary(args.input)
    reader = open_container(data)
    sections = reader.sections
    if args.json:
        print(json.dumps(_inspect_json(data, reader, args.function),
                         sort_keys=True))
        return 0
    print(f"program:   {sections.program_name}")
    print(f"functions: {len(sections.function_names)} "
          f"(entry: {sections.function_names[sections.entry]})")
    print(f"segments:  {len(sections.segments)}")
    print(f"container: {len(data)} bytes")
    hints = reader.profile_hints
    if sections.function_order is not None or hints is not None:
        hot = len(hints.hot) if hints is not None else 0
        edges = len(hints.edges) if hints is not None else 0
        order = ("profile order" if sections.function_order is not None
                 else "source order")
        print(f"layout:    {order}, {hot} hot functions hinted, "
              f"{edges} successor edges")
    sizes = sections.section_sizes()
    for section, size in sorted(sizes.items(), key=lambda kv: -kv[1]):
        print(f"  {section:>14}: {size:>8} B")
    for sindex, layout in enumerate(reader.layouts):
        bases = len(layout.addr_rows)
        sequences = len(layout.paths) - bases
        print(f"segment {sindex}: {bases} base entries, "
              f"{sequences} sequence-tree nodes")
    if args.function is not None:
        findex = args.function
        if not 0 <= findex < reader.function_count:
            raise ToolError(f"function index {findex} out of range")
        print(f"\nfunction {findex} ({sections.function_names[findex]}):")
        for insn in reader.function_instructions(findex):
            print(f"    {insn.render()}")
    return 0


def _integrity_json(data: bytes) -> Tuple[dict, int]:
    """Stable-keyed machine-readable form of ``ssd verify`` (no source)."""
    report = integrity_report(data)
    payload = {
        "container_bytes": len(data),
        "format_version": report.version,
        "ok": report.ok,
        "error": report.error,
        "sections": [
            {
                "name": span.name,
                "offset": span.data_offset,
                "length": span.length,
                "crc_ok": span.crc_ok,
            }
            for span in report.spans
        ],
        "corrupt_sections": [span.name for span in report.corrupt_sections],
    }
    return payload, 0 if report.ok else 1


def _print_integrity(data: bytes) -> int:
    """Standalone integrity check: CRCs + structural walk, no source."""
    container_version(data)  # raises unless the magic is SSD1 or SSD2
    report = integrity_report(data)
    print(f"container: {len(data)} bytes, format v{report.version}")
    for span in report.spans:
        if span.crc_ok is None:
            status = "-" if report.version == 1 else "?"
        else:
            status = "ok" if span.crc_ok else "CORRUPT"
        print(f"  {span.name:>24}: {span.length:>8} B at {span.data_offset:<8}"
              f" crc {status}")
    if report.error is not None:
        print(f"CORRUPT: {report.error}", file=sys.stderr)
        return 1
    if report.corrupt_sections:
        names = ", ".join(span.name for span in report.corrupt_sections)
        print(f"CORRUPT sections: {names}", file=sys.stderr)
        return 1
    if report.version == 1:
        print("OK (structural only: v1 containers carry no checksums)")
    else:
        print("OK: all section and container checksums match")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    """Check container integrity, optionally against a source program."""
    data = _read_binary(args.container)
    if args.source is None:
        if args.json:
            payload, status = _integrity_json(data)
            print(json.dumps(payload, sort_keys=True))
            return status
        return _print_integrity(data)
    program = load_program(args.source)
    restored = decompress(data)
    mismatches = []
    if len(restored.functions) != len(program.functions):
        mismatches.append(
            f"function count: {len(program.functions)} vs {len(restored.functions)}")
    for findex, (a, b) in enumerate(zip(program.functions, restored.functions)):
        if a.insns != b.insns:
            first_bad = next(i for i, (x, y) in enumerate(zip(a.insns, b.insns))
                             if x != y) if len(a.insns) == len(b.insns) else "length"
            mismatches.append(f"function {findex} ({a.name}): differs at {first_bad}")
    outputs_match = None
    if not mismatches:
        baseline = run_program(program, fuel=args.fuel)
        candidate = run_program(restored, fuel=args.fuel)
        outputs_match = baseline.output == candidate.output
        if not outputs_match:
            mismatches.append("program outputs differ")
    if args.json:
        print(json.dumps({
            "container_bytes": len(data),
            "ok": not mismatches,
            "functions": len(program.functions),
            "mismatches": mismatches,
            "outputs_match": outputs_match,
            "output_values": (len(baseline.output)
                              if outputs_match else None),
        }, sort_keys=True))
        return 0 if not mismatches else 1
    if mismatches:
        for line in mismatches:
            print(f"MISMATCH: {line}", file=sys.stderr)
        return 1
    print(f"OK: {len(program.functions)} functions identical, "
          f"outputs match ({len(baseline.output)} values)")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Seeded fault-injection sweep against a container's decoder."""
    from .faults import sweep

    if args.cases <= 0:
        raise ToolError(f"--cases must be positive, got {args.cases}")
    if args.input.startswith("bench:") or args.input.endswith(".asm"):
        data = compress(load_program(args.input)).data
    else:
        data = _read_binary(args.input)
        if not data.startswith(b"SSD"):
            raise ToolError(f"{args.input} is not an SSD container")
    report = sweep(data, cases=args.cases, seed=args.seed)
    print(report.format())
    return 0 if report.ok else 1


def cmd_run(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    from .obs import TRACER

    data = _read_binary(args.input)
    with ExitStack() as stack:
        root = None
        if args.trace:
            root = stack.enter_context(
                TRACER.span("cli.run", input=args.input, lazy=args.lazy))
        if args.lazy:
            program = LazyProgram(open_container(data))
        else:
            program = decompress(data)
        inputs = [int(v) for v in args.read] if args.read else None
        result = run_program(program, inputs=inputs, fuel=args.fuel)
    for value in result.output:
        print(value)
    print(f"[halted after {result.steps} steps]", file=sys.stderr)
    if args.lazy:
        print(f"[lazily decompressed {program.decompressed_count}/"
              f"{len(program.functions)} functions]", file=sys.stderr)
    if args.trace:
        _write_trace(args.trace, root)
    return 0


def _write_port_file(path: str, port: int) -> None:
    """Atomically publish the bound port (write temp file, then rename)."""
    import os

    temp_path = f"{path}.tmp"
    with open(temp_path, "w", encoding="utf-8") as handle:
        handle.write(f"{port}\n")
    os.replace(temp_path, path)


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the async code server in the foreground (Ctrl-C stops it)."""
    import asyncio

    from .serve import ContainerStore, ServerConfig, SSDServer

    if args.metrics_interval is not None and args.metrics_interval <= 0:
        raise ToolError("--metrics-interval must be positive")
    store = ContainerStore(root=args.store_dir)
    for path in args.preload or []:
        try:
            with open(path, "rb") as handle:
                container_id, _ = store.put(handle.read())
        except FileNotFoundError:
            raise ToolError(f"no such file: {path}") from None
        except ValueError as exc:
            raise ToolError(f"{path} rejected: {exc}") from None
        print(f"preloaded {path} as {container_id}", file=sys.stderr)
    if args.prefetch_depth < 0:
        raise ToolError("--prefetch-depth must be non-negative")
    config = ServerConfig(host=args.host, port=args.port,
                          max_concurrency=args.max_concurrency,
                          request_timeout=args.timeout,
                          cache_bytes=args.cache_bytes,
                          prefetch_depth=args.prefetch_depth,
                          cache_admission=args.cache_admission)
    server = SSDServer(store=store, config=config)

    async def main() -> None:
        import signal

        await server.start()
        if args.port_file:
            _write_port_file(args.port_file, server.port)
        print(f"ssd serve: listening on {args.host}:{server.port} "
              f"({len(store)} containers)", file=sys.stderr, flush=True)

        async def report_metrics() -> None:
            while True:
                await asyncio.sleep(args.metrics_interval)
                snapshot = server.metrics.snapshot(
                    cache_stats=server.cache.stats().as_dict(),
                    store_stats=store.stats())
                print(json.dumps(snapshot, sort_keys=True),
                      file=sys.stderr, flush=True)

        # The loop holds tasks weakly: keep a reference to each one.
        tasks: List[asyncio.Task] = []
        if args.metrics_interval is not None:
            tasks.append(asyncio.create_task(report_metrics()))

        # SIGTERM drains gracefully: finish in-flight decodes, answer new
        # frames E_UNAVAILABLE (a router re-routes), then exit.
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()

        async def _drain_and_stop() -> None:
            print("ssd serve: SIGTERM, draining...", file=sys.stderr,
                  flush=True)
            drained = await server.drain()
            print(f"ssd serve: drained={drained}", file=sys.stderr,
                  flush=True)
            stop.set()

        def _on_sigterm() -> None:
            tasks.append(loop.create_task(_drain_and_stop()))

        try:
            loop.add_signal_handler(signal.SIGTERM, _on_sigterm)
        except (NotImplementedError, RuntimeError):
            pass  # platform without loop signal handlers
        try:
            await stop.wait()
        finally:
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("ssd serve: stopped", file=sys.stderr)
    return 0


def _spawn_shard(index: int, host: str, work_dir: str,
                 store_dir: Optional[str], preload: List[str],
                 startup_timeout: float = 15.0):
    """Start one shard subprocess; returns ``(process, port)``.

    The shard is an ordinary ``ssd serve --port 0`` whose bound port is
    read back through ``--port-file`` (atomic write, so a partial file
    is never observed).
    """
    import os
    import subprocess
    import time as _time

    port_file = os.path.join(work_dir, f"shard-{index}.port")
    argv = [sys.executable, "-m", "repro.tools", "serve",
            "--host", host, "--port", "0", "--port-file", port_file]
    if store_dir:
        shard_store = os.path.join(store_dir, f"shard-{index}")
        os.makedirs(shard_store, exist_ok=True)
        argv += ["--store-dir", shard_store]
    for path in preload:
        argv += ["--preload", path]
    process = subprocess.Popen(argv)
    deadline = _time.monotonic() + startup_timeout
    while _time.monotonic() < deadline:
        if process.poll() is not None:
            raise ToolError(f"shard {index} exited with "
                            f"code {process.returncode} during startup")
        try:
            with open(port_file, "r", encoding="utf-8") as handle:
                return process, int(handle.read().strip())
        except (FileNotFoundError, ValueError):
            _time.sleep(0.05)
    process.terminate()
    raise ToolError(f"shard {index} did not report a port within "
                    f"{startup_timeout}s")


def cmd_cluster(args: argparse.Namespace) -> int:
    """Run a sharded cluster: N subprocess shards behind one router."""
    if args.action == "status":
        return _cluster_status(args)
    return _cluster_start(args)


def _cluster_start(args: argparse.Namespace) -> int:
    import asyncio
    import os
    import signal
    import tempfile
    from dataclasses import replace

    from .serve.router import ClusterRouter, RouterConfig

    if args.shards < 1:
        raise ToolError("--shards must be >= 1")
    if not 1 <= args.replication <= args.shards:
        raise ToolError(f"--replication must be in [1, {args.shards}]")
    if args.routers < 1:
        raise ToolError("--routers must be >= 1")
    if args.router_cache_bytes < 0:
        raise ToolError("--router-cache-bytes must be >= 0")

    processes = []
    with tempfile.TemporaryDirectory(prefix="ssd-cluster-") as work_dir:
        try:
            shards = {}
            shard_pids = {}
            for index in range(args.shards):
                process, port = _spawn_shard(
                    index, args.host, work_dir, args.store_dir,
                    args.preload or [])
                processes.append(process)
                shard_id = f"shard-{index}"
                shards[shard_id] = (args.host, port)
                shard_pids[shard_id] = process.pid
                print(f"ssd cluster: {shard_id} pid={process.pid} "
                      f"port={port}", file=sys.stderr, flush=True)

            config = RouterConfig(host=args.host, port=args.port,
                                  replication=args.replication,
                                  cache_bytes=args.router_cache_bytes)
            # The first router listens on --port; extra routers take
            # ephemeral ports (recorded in the state file).  Routers
            # share no state: each probes every shard itself.
            routers = [ClusterRouter(shards, config=config)]
            for _ in range(1, args.routers):
                routers.append(ClusterRouter(
                    shards, config=replace(config, port=0)))

            async def main() -> None:
                for router in routers:
                    await router.start()
                first = routers[0]
                if args.port_file:
                    _write_port_file(args.port_file, first.port)
                state = {
                    "router": {"host": args.host, "port": first.port,
                               "pid": os.getpid()},
                    "routers": [
                        {"host": args.host, "port": router.port,
                         "pid": os.getpid()}
                        for router in routers
                    ],
                    "replication": args.replication,
                    "quorum": first.quorum,
                    "shards": [
                        {"shard_id": shard_id, "host": host, "port": port,
                         "pid": shard_pids[shard_id]}
                        for shard_id, (host, port) in sorted(shards.items())
                    ],
                }
                if args.state_file:
                    with open(args.state_file, "w", encoding="utf-8") as fh:
                        json.dump(state, fh, indent=2, sort_keys=True)
                        fh.write("\n")
                ports = ", ".join(str(router.port) for router in routers)
                print(f"ssd cluster: {len(routers)} router(s) on "
                      f"{args.host}:[{ports}] ({args.shards} shards, "
                      f"replication {args.replication}, quorum "
                      f"{first.quorum})",
                      file=sys.stderr, flush=True)
                stop = asyncio.Event()
                loop = asyncio.get_running_loop()
                for signum in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(signum, stop.set)
                    except (NotImplementedError, RuntimeError):
                        pass
                await stop.wait()
                for router in routers:
                    await router.stop()

            try:
                asyncio.run(main())
            except KeyboardInterrupt:
                pass
            print("ssd cluster: stopped", file=sys.stderr)
            return 0
        finally:
            for process in processes:
                if process.poll() is None:
                    process.terminate()
            for process in processes:
                try:
                    process.wait(timeout=10.0)
                except Exception:  # noqa: BLE001 - last resort
                    process.kill()


def _cluster_status(args: argparse.Namespace) -> int:
    from .errors import ProtocolError, RemoteError
    from .serve import ServeClient

    if not args.state_file:
        raise ToolError("cluster status requires --state-file")
    try:
        with open(args.state_file, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    except FileNotFoundError:
        raise ToolError(f"no such state file: {args.state_file}") from None
    except json.JSONDecodeError as exc:
        raise ToolError(f"bad state file: {exc}") from None

    def probe(host: str, port: int) -> dict:
        try:
            with ServeClient(host, port, timeout=args.timeout) as client:
                status = client.health()
                return {"reachable": True, "state": status.state_name,
                        "inflight": status.inflight,
                        "containers": status.containers}
        except (OSError, ProtocolError, RemoteError) as exc:
            return {"reachable": False, "error": str(exc)}

    routers = [dict(entry) for entry in
               state.get("routers") or [state.get("router", {})]]
    for router in routers:
        router["health"] = probe(router.get("host", "127.0.0.1"),
                                 int(router.get("port", 0)))
    shards = []
    for shard in state.get("shards", []):
        entry = dict(shard)
        entry["health"] = probe(shard["host"], int(shard["port"]))
        shards.append(entry)
    live = sum(1 for shard in shards if shard["health"]["reachable"])
    live_routers = sum(1 for router in routers
                       if router["health"]["reachable"])
    report = {
        "router": routers[0],
        "routers": routers,
        "live_routers": live_routers,
        "shards": shards,
        "live_shards": live,
        "quorum": state.get("quorum"),
        "above_quorum": (live >= state["quorum"]
                         if state.get("quorum") is not None else None),
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    healthy = live_routers > 0 and report["above_quorum"] is not False
    return 0 if healthy else 1


def _parse_address(text: str) -> Tuple[str, int]:
    host, sep, port_text = text.rpartition(":")
    if not sep or not host:
        raise ToolError(f"server address must be HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ToolError(f"bad port in {text!r}") from None
    return host, port


def _resolve_container(client, spec: str) -> str:
    """A client-side container reference: hex id or a .ssd file to upload."""
    if len(spec) == 64 and all(c in "0123456789abcdef" for c in spec.lower()):
        return spec.lower()
    try:
        with open(spec, "rb") as handle:
            data = handle.read()
    except FileNotFoundError:
        raise ToolError(f"{spec!r} is neither a container id nor a file") \
            from None
    container_id, _, _ = client.put(data)
    return container_id


def cmd_client(args: argparse.Namespace) -> int:
    """Talk to a running ``ssd serve`` instance."""
    from .errors import RemoteError
    from .serve import RemoteProgram, ServeClient

    host, port = _parse_address(args.server)
    try:
        client = ServeClient(host, port, timeout=args.timeout,
                             retries=args.retries)
    except OSError as exc:
        raise ToolError(f"cannot connect to {args.server}: {exc}") from None
    try:
        if args.action == "stats":
            print(json.dumps(client.stats(), sort_keys=True))
            return 0
        if args.target is None:
            raise ToolError(f"client {args.action} requires a container "
                            "id or .ssd file")
        if args.action == "put":
            with open(args.target, "rb") as handle:
                container_id, count, entry = client.put(handle.read())
            print(container_id)
            print(f"{count} functions, entry {entry}", file=sys.stderr)
            return 0
        container_id = _resolve_container(client, args.target)
        if args.action == "get":
            meta = client.meta(container_id)
            if args.function is not None:
                function = client.function(container_id, args.function)
                print(f"func {function.name}")
                for insn in function.insns:
                    print(f"    {insn.render()}")
            else:
                print(f"program:   {meta.program_name}")
                print(f"functions: {meta.function_count} "
                      f"(entry: {meta.function_names[meta.entry]})")
                for findex, name in enumerate(meta.function_names):
                    print(f"  {findex:>4}: {name}")
            return 0
        if args.action == "run":
            program = RemoteProgram(client, container_id)
            inputs = [int(v) for v in args.read] if args.read else None
            result = run_program(program, inputs=inputs, fuel=args.fuel)
            for value in result.output:
                print(value)
            print(f"[halted after {result.steps} steps]", file=sys.stderr)
            print(f"[remotely fetched {program.decompressed_count}/"
                  f"{len(program.functions)} functions]", file=sys.stderr)
            return 0
        raise ToolError(f"unknown client action {args.action!r}")
    except RemoteError as exc:
        print(f"server error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        raise ToolError(str(exc)) from None
    finally:
        client.close()


def cmd_delta(args: argparse.Namespace) -> int:
    """Version-to-version container patches (the code-update path)."""
    import hashlib

    from .delta import apply_patch, make_patch, patch_info

    if args.action == "make":
        base = _read_binary(args.base)
        target = _read_binary(args.target)
        patch = make_patch(base, target)
        with open(args.output, "wb") as handle:
            handle.write(patch)
        info = patch_info(patch)
        print(f"{args.output}: {len(patch)} B patch, full transfer "
              f"{len(target)} B ({len(patch) / len(target):.1%} on the wire)")
        print(f"  base:   {info.base_hex}", file=sys.stderr)
        print(f"  target: {info.target_hex}", file=sys.stderr)
        return 0

    if args.action == "apply":
        base = _read_binary(args.base)
        patch = _read_binary(args.patch)
        try:
            target = apply_patch(base, patch)
        except CorruptContainer as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        with open(args.output, "wb") as handle:
            handle.write(target)
        print(f"{args.output}: {len(target)} B, content id "
              f"{hashlib.sha256(target).hexdigest()}")
        return 0

    # push: upload both versions, then fetch the new one as a delta and
    # report bytes-on-wire against the full transfer it replaces.
    from .errors import RemoteError
    from .serve import ServeClient

    host, port = _parse_address(args.server)
    base = _read_binary(args.base)
    target = _read_binary(args.target)
    try:
        client = ServeClient(host, port, timeout=args.timeout,
                             retries=args.retries)
    except OSError as exc:
        raise ToolError(f"cannot connect to {args.server}: {exc}") from None
    try:
        base_id, _, _ = client.put(base)
        target_id, _, _ = client.put(target)
        patch = client.get_delta(target_id, base_id)
        rebuilt = apply_patch(base, patch)
        verified = hashlib.sha256(rebuilt).hexdigest() == target_id
        print(target_id)
        print(f"delta: {len(patch)} B on the wire vs {len(target)} B full "
              f"({len(patch) / len(target):.1%}); reconstruction "
              f"{'verified' if verified else 'MISMATCH'}", file=sys.stderr)
        return 0 if verified else 1
    except (RemoteError, CorruptContainer) as exc:
        print(f"server error: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()


def cmd_stats(args: argparse.Namespace) -> int:
    """Fetch a server's metrics: Prometheus text, or the JSON snapshot."""
    from .serve import ServeClient

    host, port = _parse_address(args.server)
    try:
        client = ServeClient(host, port, timeout=args.timeout)
    except OSError as exc:
        raise ToolError(f"cannot connect to {args.server}: {exc}") from None
    try:
        if args.json:
            print(json.dumps(client.stats(), sort_keys=True))
        else:
            sys.stdout.write(client.metrics_text())
    finally:
        client.close()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ssd", description="SSD program compression tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="assemble + compress to a .ssd file")
    p.add_argument("input", help="asm file or bench:<name>[@scale]")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--base-codec", choices=("lz", "delta"), default="lz",
                   help="base-entry codec (default: lz)")
    p.add_argument("--max-len", type=int, default=MAX_SEQUENCE_LENGTH,
                   help="longest sequence entry (default: "
                        f"{MAX_SEQUENCE_LENGTH}, at most {SEQUENCE_LENGTH_CAP})")
    p.add_argument("--profile", action="store_true",
                   help="print per-phase timings to stderr")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write the span tree of this run as JSON to FILE")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="decompress a .ssd file to assembly")
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None)
    p.add_argument("--profile", action="store_true",
                   help="print per-phase timings to stderr")
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("inspect", help="show container structure and stats")
    p.add_argument("input")
    p.add_argument("--function", type=int, default=None,
                   help="also disassemble this function index")
    p.add_argument("--json", action="store_true",
                   help="emit one stable-keyed JSON object to stdout")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("verify",
                       help="check container integrity, or compare to source")
    p.add_argument("container")
    p.add_argument("source", nargs="?", default=None,
                   help="asm file or bench:<name>[@scale]; omit for a "
                        "checksum/structure integrity report")
    p.add_argument("--fuel", type=int, default=1_000_000)
    p.add_argument("--json", action="store_true",
                   help="emit one stable-keyed JSON object to stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("fuzz",
                       help="run a seeded fault-injection sweep on a container")
    p.add_argument("input", help=".ssd file, asm file, or bench:<name>[@scale]")
    p.add_argument("--cases", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("run", help="execute a compressed program")
    p.add_argument("input")
    p.add_argument("--fuel", type=int, default=5_000_000)
    p.add_argument("--lazy", action="store_true",
                   help="decompress functions on first call")
    p.add_argument("--read", nargs="*", default=None,
                   help="values consumed by `trap 2`")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write the span tree of this run as JSON to FILE")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("serve", help="run the async SSD code server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7878,
                   help="TCP port (0 = ephemeral)")
    p.add_argument("--preload", nargs="*", default=None, metavar="FILE",
                   help=".ssd containers admitted at startup")
    p.add_argument("--store-dir", default=None,
                   help="directory to persist/load admitted containers")
    p.add_argument("--cache-bytes", type=int, default=64 << 20,
                   help="shared LRU budget over readers + hot functions")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="per-request deadline in seconds")
    p.add_argument("--max-concurrency", type=int, default=8,
                   help="simultaneous decode threads")
    p.add_argument("--prefetch-depth", type=int, default=0,
                   help="markov prefetch: decode up to N predicted "
                        "successors after each GET_FUNCTION (0 = off)")
    p.add_argument("--cache-admission", action="store_true",
                   help="screen cache inserts under eviction pressure "
                        "with the ghost-list admission policy")
    p.add_argument("--metrics-interval", type=float, default=None,
                   metavar="SECONDS",
                   help="print a JSON metrics snapshot to stderr "
                        "every SECONDS")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="atomically write the bound port to PATH once "
                        "listening (for scripts using --port 0)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("client", help="talk to a running ssd serve")
    p.add_argument("server", help="HOST:PORT of the server")
    p.add_argument("action", choices=("put", "get", "run", "stats"))
    p.add_argument("target", nargs="?", default=None,
                   help="container id (64-char hex) or .ssd file")
    p.add_argument("--function", type=int, default=None,
                   help="for get: fetch and disassemble one function")
    p.add_argument("--fuel", type=int, default=5_000_000)
    p.add_argument("--read", nargs="*", default=None,
                   help="values consumed by `trap 2`")
    p.add_argument("--timeout", type=float, default=30.0)
    p.add_argument("--retries", type=int, default=0,
                   help="retry idempotent requests up to N times with "
                        "exponential backoff (for flaky links or a "
                        "failing-over cluster); default: no retries")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser("cluster",
                       help="run or inspect a sharded serve cluster")
    p.add_argument("action", choices=("start", "status"))
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=7879,
                   help="router TCP port (0 = ephemeral)")
    p.add_argument("--shards", type=int, default=3,
                   help="shard subprocesses to spawn")
    p.add_argument("--replication", type=int, default=2,
                   help="replicas per container (1..shards)")
    p.add_argument("--routers", type=int, default=1,
                   help="front-end routers; the first binds --port, the "
                        "rest take ephemeral ports (see the state file "
                        "for their addresses)")
    p.add_argument("--router-cache-bytes", type=int, default=0,
                   help="byte budget for the router response cache over "
                        "hot content-addressed GETs (0 = disabled)")
    p.add_argument("--preload", nargs="*", default=None, metavar="FILE",
                   help=".ssd containers admitted by every shard at startup")
    p.add_argument("--store-dir", default=None,
                   help="root directory for per-shard persistent stores")
    p.add_argument("--port-file", default=None, metavar="PATH",
                   help="atomically write the router's bound port to PATH")
    p.add_argument("--state-file", default=None, metavar="PATH",
                   help="write cluster topology JSON (ports, pids) to PATH; "
                        "required for `cluster status`")
    p.add_argument("--timeout", type=float, default=5.0,
                   help="status: per-probe deadline in seconds")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("delta",
                       help="make/apply/push version-to-version patches")
    delta_sub = p.add_subparsers(dest="action", required=True)

    d = delta_sub.add_parser("make", help="diff two containers into a patch")
    d.add_argument("base", help="old .ssd container")
    d.add_argument("target", help="new .ssd container")
    d.add_argument("-o", "--output", required=True, help="patch file (.ssdp)")
    d.set_defaults(func=cmd_delta)

    d = delta_sub.add_parser("apply",
                             help="apply a patch to its base container, "
                                  "verified by content hash")
    d.add_argument("base", help="the patch's declared base .ssd container")
    d.add_argument("patch", help="patch file from `ssd delta make`")
    d.add_argument("-o", "--output", required=True)
    d.set_defaults(func=cmd_delta)

    d = delta_sub.add_parser("push",
                             help="upload both versions, then fetch the new "
                                  "one as a delta and report bytes on the "
                                  "wire vs a full transfer")
    d.add_argument("server", help="HOST:PORT of ssd serve or cluster router")
    d.add_argument("base", help="old .ssd container file")
    d.add_argument("target", help="new .ssd container file")
    d.add_argument("--timeout", type=float, default=30.0)
    d.add_argument("--retries", type=int, default=0,
                   help="retry idempotent requests up to N times")
    d.set_defaults(func=cmd_delta)

    p = sub.add_parser("stats", help="fetch metrics from a running ssd serve")
    p.add_argument("server", help="HOST:PORT of the server")
    p.add_argument("--json", action="store_true",
                   help="print the STATS JSON snapshot instead of the "
                        "Prometheus text exposition")
    p.add_argument("--timeout", type=float, default=30.0)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ReproError, VMError) as exc:
        # A corrupt container, a failed run: one line, not a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
