"""Tests for the ``ssd`` file-level CLI (repro.tools)."""

import pytest

from repro.tools import ToolError, build_parser, load_program, main

ASM = """
func main
    li r2, 6
    call double
    trap 1
    ret
end
func double
    add r1, r2, r2
    ret
end
"""


@pytest.fixture()
def asm_file(tmp_path):
    path = tmp_path / "program.asm"
    path.write_text(ASM)
    return path


@pytest.fixture()
def ssd_file(tmp_path, asm_file):
    path = tmp_path / "program.ssd"
    assert main(["compress", str(asm_file), "-o", str(path)]) == 0
    return path


class TestLoadProgram:
    def test_asm_file(self, asm_file):
        program = load_program(str(asm_file))
        assert len(program.functions) == 2

    def test_missing_file(self):
        with pytest.raises(ToolError, match="no such file"):
            load_program("/nonexistent/path.asm")

    def test_bench_reference(self):
        program = load_program("bench:compress@0.2")
        assert program.name == "compress"

    def test_bench_default_scale(self):
        assert load_program("bench:compress").name == "compress"

    def test_bad_bench_name(self):
        with pytest.raises(ToolError, match="unknown benchmark"):
            load_program("bench:doom")

    def test_bad_scale(self):
        with pytest.raises(ToolError, match="bad scale"):
            load_program("bench:compress@fast")


class TestCommands:
    def test_compress_writes_container(self, ssd_file):
        assert ssd_file.read_bytes()[:4] == b"SSD2"

    def test_decompress_roundtrip(self, ssd_file, tmp_path, capsys):
        out = tmp_path / "out.asm"
        assert main(["decompress", str(ssd_file), "-o", str(out)]) == 0
        from repro.isa import assemble

        original = assemble(ASM)
        restored = assemble(out.read_text())
        assert [f.insns for f in restored.functions] == \
            [f.insns for f in original.functions]

    def test_decompress_to_stdout(self, ssd_file, capsys):
        assert main(["decompress", str(ssd_file)]) == 0
        assert "func main" in capsys.readouterr().out

    def test_inspect(self, ssd_file, capsys):
        assert main(["inspect", str(ssd_file)]) == 0
        out = capsys.readouterr().out
        assert "functions: 2" in out
        assert "segment 0" in out

    def test_inspect_function_disassembly(self, ssd_file, capsys):
        assert main(["inspect", str(ssd_file), "--function", "1"]) == 0
        assert "add r1, r2, r2" in capsys.readouterr().out

    def test_inspect_bad_function_index(self, ssd_file, capsys):
        assert main(["inspect", str(ssd_file), "--function", "9"]) == 2

    def test_run(self, ssd_file, capsys):
        assert main(["run", str(ssd_file)]) == 0
        assert capsys.readouterr().out.strip() == "12"

    def test_run_lazy(self, ssd_file, capsys):
        assert main(["run", str(ssd_file), "--lazy"]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == "12"
        assert "lazily decompressed" in captured.err

    def test_run_with_inputs(self, tmp_path, capsys):
        asm = tmp_path / "io.asm"
        asm.write_text("func main\n    trap 2\n    trap 1\n    ret\nend\n")
        ssd = tmp_path / "io.ssd"
        assert main(["compress", str(asm), "-o", str(ssd)]) == 0
        capsys.readouterr()
        assert main(["run", str(ssd), "--read", "42"]) == 0
        assert capsys.readouterr().out.strip() == "42"

    def test_compress_bench(self, tmp_path, capsys):
        out = tmp_path / "bench.ssd"
        assert main(["compress", "bench:compress@0.2", "-o", str(out)]) == 0
        assert out.exists()

    def test_error_returns_exit_code_2(self, tmp_path, capsys):
        out = tmp_path / "x.ssd"
        assert main(["compress", "/nope.asm", "-o", str(out)]) == 2

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_verify_matching(self, ssd_file, asm_file, capsys):
        assert main(["verify", str(ssd_file), str(asm_file)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_detects_mismatch(self, ssd_file, tmp_path, capsys):
        other = tmp_path / "other.asm"
        other.write_text("func main\n    li r1, 1\n    trap 1\n    ret\nend\n")
        assert main(["verify", str(ssd_file), str(other)]) == 1
        assert "MISMATCH" in capsys.readouterr().err

    def test_verify_integrity_clean(self, ssd_file, capsys):
        assert main(["verify", str(ssd_file)]) == 0
        out = capsys.readouterr().out
        assert "checksums match" in out
        assert "crc ok" in out

    def test_verify_integrity_corrupt_exits_1(self, ssd_file, tmp_path, capsys):
        data = bytearray(ssd_file.read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "bad.ssd"
        bad.write_bytes(bytes(data))
        assert main(["verify", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "CORRUPT" in captured.out + captured.err

    def test_fuzz_clean_container(self, ssd_file, capsys):
        assert main(["fuzz", str(ssd_file), "--cases", "40"]) == 0
        out = capsys.readouterr().out
        assert "40 cases" in out and "result: OK" in out

    def test_fuzz_compresses_asm_input(self, asm_file, capsys):
        assert main(["fuzz", str(asm_file), "--cases", "20", "--seed", "7"]) == 0
        assert "seed 7" in capsys.readouterr().out

    def test_fuzz_rejects_non_container(self, tmp_path, capsys):
        junk = tmp_path / "junk.bin"
        junk.write_bytes(b"\x00" * 64)
        assert main(["fuzz", str(junk)]) == 2

    def test_fuzz_rejects_bad_cases(self, ssd_file, capsys):
        assert main(["fuzz", str(ssd_file), "--cases", "0"]) == 2


class TestErrorReporting:
    """Errors reach the user as one ``error:`` line, never a traceback."""

    @pytest.fixture()
    def garbage(self, tmp_path):
        path = tmp_path / "garbage.ssd"
        path.write_bytes(b"garbage")
        return path

    @pytest.mark.parametrize("argv", [
        ["decompress"], ["inspect"], ["inspect", "--json"], ["run"],
        ["run", "--lazy"], ["verify"],
    ], ids=" ".join)
    def test_corrupt_container_exits_1(self, garbage, argv, capsys):
        assert main(argv + [str(garbage)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: bad magic")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command", ["decompress", "inspect", "run",
                                         "verify"])
    def test_missing_container_is_a_tool_error(self, tmp_path, command, capsys):
        missing = tmp_path / "missing.ssd"
        assert main([command, str(missing)]) == 2
        assert capsys.readouterr().err == f"error: no such file: {missing}\n"

    def test_unreadable_container_is_a_tool_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {tmp_path}")

    def test_out_of_fuel_exits_1(self, ssd_file, capsys):
        assert main(["run", str(ssd_file), "--fuel", "2"]) == 1
        assert capsys.readouterr().err.startswith("error: exceeded 2 steps")


class TestCompressOptions:
    def test_compress_max_len_zero_exits_2(self, asm_file, tmp_path, capsys):
        out = tmp_path / "x.ssd"
        assert main(["compress", str(asm_file), "-o", str(out),
                     "--max-len", "0"]) == 2
        assert "error: --max-len must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_ssd_flag_defaults_match_explicit_values(self, asm_file, tmp_path):
        explicit = tmp_path / "explicit.ssd"
        assert main(["compress", str(asm_file), "-o", str(explicit),
                     "--base-codec", "lz", "--max-len", "4"]) == 0
        default = tmp_path / "default.ssd"
        assert main(["compress", str(asm_file), "-o", str(default)]) == 0
        assert explicit.read_bytes() == default.read_bytes()

    def test_jobs_flag_rejected(self, asm_file, tmp_path):
        with pytest.raises(SystemExit):
            main(["compress", str(asm_file), "-o", str(tmp_path / "x.ssd"),
                  "--jobs", "2"])

    @pytest.mark.parametrize("argv", [
        ["compress", "{asm}", "-o", "{out}", "--codec", "ssd"],
        ["fuzz", "{asm}", "--codec", "ssd"],
        ["codecs"],
    ], ids=lambda argv: argv[0])
    def test_codec_surface_is_gone(self, asm_file, tmp_path, argv):
        argv = [arg.format(asm=asm_file, out=tmp_path / "x.ssd")
                for arg in argv]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert not (tmp_path / "x.ssd").exists()


class TestJsonOutput:
    def test_inspect_json(self, ssd_file, capsys):
        import json

        assert main(["inspect", str(ssd_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["program"] == "asm"
        assert payload["functions"] == 2
        assert payload["function_names"] == ["main", "double"]
        assert payload["entry"] == 0
        assert payload["entry_name"] == "main"
        assert payload["format_version"] == 2
        assert len(payload["container_id"]) == 64
        assert payload["container_bytes"] > 0
        assert payload["segments"] and "base_entries" in payload["segments"][0]
        assert isinstance(payload["sections"], dict)
        assert "function" not in payload
        assert "codec" not in payload and "codec_wire_id" not in payload

    def test_inspect_json_with_function(self, ssd_file, capsys):
        import json

        assert main(["inspect", str(ssd_file), "--json",
                     "--function", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["function"]["index"] == 1
        assert payload["function"]["name"] == "double"
        assert any("add" in text
                   for text in payload["function"]["instructions"])

    def test_verify_json_clean(self, ssd_file, capsys):
        import json

        assert main(["verify", str(ssd_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["error"] is None
        assert payload["corrupt_sections"] == []
        assert all(span["crc_ok"] for span in payload["sections"])

    def test_verify_json_corrupt(self, ssd_file, tmp_path, capsys):
        import json

        data = bytearray(ssd_file.read_bytes())
        data[len(data) // 2] ^= 0xFF
        bad = tmp_path / "bad.ssd"
        bad.write_bytes(bytes(data))
        assert main(["verify", str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False

    def test_verify_json_against_source(self, ssd_file, asm_file, capsys):
        import json

        assert main(["verify", str(ssd_file), str(asm_file), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["outputs_match"] is True
        assert payload["mismatches"] == []
        assert payload["functions"] == 2

    def test_verify_json_source_mismatch(self, ssd_file, tmp_path, capsys):
        import json

        other = tmp_path / "other.asm"
        other.write_text("func main\n    li r1, 1\n    trap 1\n    ret\nend\n")
        assert main(["verify", str(ssd_file), str(other), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["mismatches"]


class TestServeClientCLI:
    @pytest.fixture(scope="class")
    def server(self):
        from repro.serve import serve_in_thread

        with serve_in_thread() as handle:
            yield handle

    @pytest.fixture(scope="class")
    def address(self, server):
        return f"{server.address[0]}:{server.port}"

    def test_client_put_then_get(self, server, address, ssd_file, capsys):
        assert main(["client", address, "put", str(ssd_file)]) == 0
        container_id = capsys.readouterr().out.strip()
        assert len(container_id) == 64
        assert main(["client", address, "get", container_id]) == 0
        out = capsys.readouterr().out
        assert "program:   asm" in out
        assert "functions: 2" in out

    def test_client_get_function_disassembly(self, address, ssd_file, capsys):
        assert main(["client", address, "get", str(ssd_file),
                     "--function", "1"]) == 0
        out = capsys.readouterr().out
        assert "func double" in out
        assert "add r1, r2, r2" in out

    def test_client_run_matches_local(self, address, ssd_file, capsys):
        assert main(["run", str(ssd_file)]) == 0
        local = capsys.readouterr().out
        assert main(["client", address, "run", str(ssd_file)]) == 0
        captured = capsys.readouterr()
        assert captured.out == local
        assert "remotely fetched 2/2 functions" in captured.err

    def test_client_stats(self, address, ssd_file, capsys):
        import json

        assert main(["client", address, "stats"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "requests" in payload
        assert payload["decodes_total"] >= 2

    def test_client_remote_error_exits_1(self, address, capsys):
        assert main(["client", address, "get", "ee" * 32]) == 1
        assert "server error" in capsys.readouterr().err

    def test_client_bad_address(self, ssd_file, capsys):
        assert main(["client", "nonsense", "stats"]) == 2

    def test_client_connection_refused(self, ssd_file, capsys):
        assert main(["client", "127.0.0.1:1", "stats"]) == 2

    def test_client_missing_target(self, address, capsys):
        assert main(["client", address, "run"]) == 2

    def test_stats_text_exposition(self, address, ssd_file, capsys):
        assert main(["client", address, "put", str(ssd_file)]) == 0
        capsys.readouterr()
        assert main(["stats", address]) == 0
        out = capsys.readouterr().out
        assert "# TYPE serve_requests_total counter" in out
        assert "# TYPE serve_request_seconds histogram" in out
        assert 'serve_requests_total{type="PUT_CONTAINER"}' in out

    def test_stats_json(self, address, capsys):
        import json

        assert main(["stats", address, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["requests_total"] >= 1
        assert "latency" in payload

    def test_stats_connection_refused(self, capsys):
        assert main(["stats", "127.0.0.1:1"]) == 2


class TestTraceOutput:
    def test_compress_trace_tree(self, asm_file, tmp_path, capsys):
        import json

        ssd = tmp_path / "t.ssd"
        trace = tmp_path / "trace.json"
        assert main(["compress", str(asm_file), "-o", str(ssd),
                     "--trace", str(trace)]) == 0
        tree = json.loads(trace.read_text())
        assert tree["name"] == "cli.compress"
        assert tree["duration_s"] > 0
        children = {child["name"] for child in tree["children"]}
        assert "compress" in children
        (compress_span,) = [child for child in tree["children"]
                            if child["name"] == "compress"]
        phases = [child["name"] for child in compress_span["children"]]
        assert "dictionary.base_entries" in phases
        assert "serialize" in phases
        assert all(child["duration_s"] is not None
                   for child in compress_span["children"])

    def test_run_trace_tree(self, ssd_file, tmp_path, capsys):
        import json

        trace = tmp_path / "runtrace.json"
        assert main(["run", str(ssd_file), "--lazy",
                     "--trace", str(trace)]) == 0
        tree = json.loads(trace.read_text())
        assert tree["name"] == "cli.run"
        names = {child["name"] for child in tree.get("children", [])}
        assert "container.open" in names


class TestServePortFile:
    def test_port_file_written_atomically(self, ssd_file, tmp_path):
        import os
        import subprocess
        import sys
        import time

        from repro.serve import ServeClient

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        port_file = tmp_path / "ssd.port"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "serve", "--port", "0",
             "--port-file", str(port_file), "--preload", str(ssd_file)],
            env={**os.environ, "PYTHONPATH": src_dir},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30.0
            while not port_file.exists():
                assert proc.poll() is None, "server exited before binding"
                assert time.monotonic() < deadline, "port file never appeared"
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            assert port > 0
            # No .tmp remnant: the write is temp-file + rename.
            assert not (tmp_path / "ssd.port.tmp").exists()
            with ServeClient("127.0.0.1", port, timeout=10.0) as client:
                assert client.stats()["requests_total"] >= 0
        finally:
            proc.terminate()
            proc.wait(timeout=10)

    def test_sigterm_drains_while_reporting_metrics(self, tmp_path):
        import json
        import os
        import queue
        import signal
        import subprocess
        import sys
        import threading
        import time

        import repro

        src_dir = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "serve", "--port", "0",
             "--port-file", str(tmp_path / "ssd.port"),
             "--metrics-interval", "0.1"],
            env={**os.environ, "PYTHONPATH": src_dir},
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        lines: "queue.Queue[str]" = queue.Queue()
        reader = threading.Thread(
            target=lambda: [lines.put(line) for line in proc.stderr],
            daemon=True)
        reader.start()
        seen = []
        try:
            snapshots = 0
            deadline = time.monotonic() + 30.0
            while snapshots < 2:
                remaining = deadline - time.monotonic()
                assert remaining > 0, f"fewer than 2 snapshots: {seen}"
                line = lines.get(timeout=remaining)
                seen.append(line)
                if line.startswith("{"):
                    assert "requests_total" in json.loads(line)
                    snapshots += 1
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)
        reader.join(timeout=10)
        assert not reader.is_alive()
        proc.stderr.close()
        while not lines.empty():
            seen.append(lines.get())
        text = "".join(seen)
        assert "ssd serve: drained=True" in text
        assert "Traceback" not in text
        assert "Task was destroyed" not in text


class TestDeltaCommand:
    @pytest.fixture()
    def version_files(self, tmp_path):
        old_asm = tmp_path / "old.asm"
        old_asm.write_text(ASM)
        new_asm = tmp_path / "new.asm"
        new_asm.write_text(ASM.replace("li r2, 6", "li r2, 9"))
        old = tmp_path / "old.ssd"
        new = tmp_path / "new.ssd"
        assert main(["compress", str(old_asm), "-o", str(old)]) == 0
        assert main(["compress", str(new_asm), "-o", str(new)]) == 0
        return old, new

    def test_make_then_apply_is_byte_identical(self, version_files, tmp_path,
                                               capsys):
        old, new = version_files
        patch = tmp_path / "update.ssdp"
        out = tmp_path / "rebuilt.ssd"
        assert main(["delta", "make", str(old), str(new),
                     "-o", str(patch)]) == 0
        assert "patch" in capsys.readouterr().out
        assert main(["delta", "apply", str(old), str(patch),
                     "-o", str(out)]) == 0
        assert out.read_bytes() == new.read_bytes()

    def test_apply_with_wrong_base_fails_cleanly(self, version_files,
                                                 tmp_path, capsys):
        old, new = version_files
        patch = tmp_path / "update.ssdp"
        assert main(["delta", "make", str(old), str(new),
                     "-o", str(patch)]) == 0
        out = tmp_path / "rebuilt.ssd"
        assert main(["delta", "apply", str(new), str(patch),
                     "-o", str(out)]) == 1
        assert "expects base" in capsys.readouterr().err
        assert not out.exists()

    def test_make_missing_file_is_a_tool_error(self, version_files, tmp_path):
        old, _new = version_files
        assert main(["delta", "make", str(old), str(tmp_path / "nope.ssd"),
                     "-o", str(tmp_path / "p.ssdp")]) == 2

    def test_push_measures_wire_cost(self, version_files, capsys):
        from repro.serve import serve_in_thread

        old, new = version_files
        with serve_in_thread() as handle:
            assert main(["delta", "push",
                         f"127.0.0.1:{handle.port}",
                         str(old), str(new)]) == 0
        captured = capsys.readouterr()
        assert "verified" in captured.err
        assert len(captured.out.strip()) == 64
