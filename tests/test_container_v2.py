"""Version-2 container format: CRCs, versioning, limits, integrity report."""

import zlib

import pytest

from repro.core import (
    DEFAULT_LIMITS,
    DecodeLimits,
    compress,
    decompress,
    integrity_report,
    parse,
    serialize,
)
from repro.core.container import FORMAT_VERSION, MAGIC, MAGIC_V2, container_version
from repro.errors import (
    ChecksumMismatch,
    CorruptContainer,
    LimitExceeded,
    ReproError,
    TruncatedStream,
)
from repro.isa import assemble

SOURCE = """
func main
    li r2, 9
    call helper
    trap 1
    ret
end
func helper
    li r1, 5
    mul r1, r1, r2
    ret
end
"""


@pytest.fixture(scope="module")
def program():
    return assemble(SOURCE)


@pytest.fixture(scope="module")
def container(program):
    return compress(program).data


@pytest.fixture(scope="module")
def legacy(container):
    return serialize(parse(container), version=1)


class TestVersioning:
    def test_compress_emits_v2(self, container):
        assert container[:4] == MAGIC_V2 == b"SSD2"
        assert container[4] == FORMAT_VERSION == 2

    def test_container_version(self, container, legacy):
        assert container_version(container) == 2
        assert container_version(legacy) == 1
        assert legacy[:4] == MAGIC == b"SSD1"

    def test_unknown_magic_rejected(self):
        with pytest.raises(CorruptContainer):
            parse(b"SSD9" + b"\x00" * 32)

    def test_unknown_version_rejected(self, container):
        bumped = container[:4] + bytes([99]) + container[5:]
        with pytest.raises(CorruptContainer, match="version"):
            parse(bumped)


class TestRoundTrip:
    def test_v2_reserialization_is_byte_identical(self, container):
        assert serialize(parse(container)) == container

    def test_v1_reserialization_is_byte_identical(self, legacy):
        assert serialize(parse(legacy), version=1) == legacy

    def test_legacy_blob_still_loads(self, program, legacy):
        restored = decompress(legacy)
        assert [f.insns for f in restored.functions] == \
            [f.insns for f in program.functions]

    def test_v1_and_v2_decode_identically(self, container, legacy):
        assert decompress(container).functions == decompress(legacy).functions


class TestChecksums:
    def test_section_crc_detects_payload_corruption(self, container):
        report = integrity_report(container)
        # Corrupt one byte inside each section's payload; the named
        # section (or the container CRC) must report the damage.
        for span in report.spans:
            if span.length == 0 or span.name == "container":
                continue
            corrupted = bytearray(container)
            corrupted[span.data_offset] ^= 0xFF
            with pytest.raises(ChecksumMismatch):
                parse(bytes(corrupted))
            damaged = integrity_report(bytes(corrupted))
            assert any(bad.name == span.name
                       for bad in damaged.corrupt_sections), span.name

    def test_container_crc_covers_scaffolding(self, container):
        # Flip a byte that is *not* inside any per-section payload (the
        # entry-index varint, say): only the trailing container CRC sees it.
        corrupted = bytearray(container)
        corrupted[-1] ^= 0xFF  # the container CRC itself
        with pytest.raises(ChecksumMismatch):
            parse(bytes(corrupted))

    def test_crc_values_are_real_crc32(self, container):
        report = integrity_report(container)
        span = next(s for s in report.spans if s.name == "names" and s.length)
        payload = container[span.data_offset:span.data_offset + span.length]
        stored = int.from_bytes(
            container[span.crc_offset:span.crc_offset + 4], "little")
        assert stored == zlib.crc32(payload)


class TestIntegrityReport:
    def test_clean_report(self, container):
        report = integrity_report(container)
        assert report.ok
        assert report.version == 2
        assert report.error is None
        assert not report.corrupt_sections
        names = [span.name for span in report.spans]
        assert "names" in names and "container" in names

    def test_report_never_raises(self, container):
        for cut in range(0, len(container), 7):
            report = integrity_report(container[:cut])
            assert not report.ok

    def test_v1_report_has_no_verdicts(self, legacy):
        report = integrity_report(legacy)
        assert report.version == 1
        assert report.ok
        assert all(span.crc_ok is None for span in report.spans)


class TestLimits:
    def test_function_count_limit(self, container):
        tight = DecodeLimits(max_functions=1)
        with pytest.raises(LimitExceeded):
            parse(container, limits=tight)

    def test_blob_expansion_limit(self, container):
        tight = DecodeLimits(max_blob_output=4)
        with pytest.raises(LimitExceeded):
            decompress(container, limits=tight)

    def test_dict_entries_limit(self, container):
        tight = DecodeLimits(max_dict_entries=1)
        with pytest.raises(LimitExceeded):
            decompress(container, limits=tight)

    def test_default_limits_accept_real_containers(self, container):
        assert decompress(container, limits=DEFAULT_LIMITS)


class TestDiagnostics:
    def test_truncation_reports_offset(self, container):
        with pytest.raises(TruncatedStream, match="byte offset"):
            parse(container[:20])

    def test_taxonomy_is_backward_compatible(self, container):
        # Every taxonomy member is catchable as ValueError or EOFError.
        with pytest.raises((ValueError, EOFError)):
            parse(container[:20])
        with pytest.raises(ValueError):
            parse(b"XXXX" + container[4:])
        assert issubclass(ChecksumMismatch, ValueError)
        assert issubclass(TruncatedStream, EOFError)
        assert issubclass(LimitExceeded, ReproError)


def _v3_envelope(wire_id: int, payload: bytes) -> bytes:
    """A well-formed container in the retired v3 layout: ``SSD3``, version
    byte 3, codec wire id, length-prefixed payload + CRC32, container CRC32
    (wire id 2 was ``brisc``, 3 was ``lz77-raw``)."""
    body = bytes([3, wire_id, len(payload)]) + payload
    body += zlib.crc32(payload).to_bytes(4, "little")
    return b"SSD3" + body + zlib.crc32(body).to_bytes(4, "little")


class TestRetiredV3Envelope:
    """``SSD3`` bytes are refused with a typed error at every entry point."""

    @pytest.fixture(params=[2, 3], ids=["brisc", "lz77-raw"])
    def envelope(self, request, container):
        return _v3_envelope(request.param, container[:100])

    def test_open_container_refuses(self, envelope):
        from repro.core import open_container

        with pytest.raises(CorruptContainer, match="SSD3.*retired") as info:
            open_container(envelope)
        assert "repro.codecs" not in str(info.value)
        with pytest.raises(CorruptContainer, match="retired"):
            container_version(envelope)

    def test_store_refuses_and_counts(self, envelope):
        from repro.serve import AdmissionError, ContainerStore

        store = ContainerStore()
        with pytest.raises(AdmissionError, match="retired"):
            store.put(envelope)
        assert store.rejected == 1 and len(store) == 0

    @pytest.mark.parametrize("command", ["verify", "run"])
    def test_cli_prints_one_error_line(self, envelope, command, tmp_path,
                                       capsys):
        from repro.tools import main

        path = tmp_path / "old.ssd"
        path.write_bytes(envelope)
        assert main([command, str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: version-3 (SSD3) envelope")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.out + captured.err
