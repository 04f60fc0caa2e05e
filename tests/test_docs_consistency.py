"""Documentation consistency checks.

Cheap guards that keep the written story in sync with the code: the
deliverable docs exist, reference real modules, and the recorded
full-scale results cover every exhibit.
"""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _read(name):
    path = ROOT / name
    assert path.exists(), f"{name} missing"
    return path.read_text(encoding="utf-8")


class TestDeliverableDocs:
    def test_readme_covers_all_packages(self):
        readme = _read("README.md")
        for package in ("repro.core", "repro.isa", "repro.vm", "repro.brisc",
                        "repro.jit", "repro.workloads", "repro.lz",
                        "repro.delta"):
            assert package in readme

    def test_design_has_experiment_index(self):
        design = _read("DESIGN.md")
        for exhibit in ("table1", "table5", "table6", "figure3",
                        "throughput", "ablation-branch", "startup"):
            assert exhibit in design, exhibit

    def test_experiments_covers_every_exhibit(self):
        experiments = _read("EXPERIMENTS.md")
        for heading in ("Table 1", "Table 5", "Table 6", "Figure 3",
                        "Throughput", "Startup", "Ablations"):
            assert heading in experiments, heading

    def test_format_doc_matches_magic(self):
        from repro.core.container import MAGIC

        assert MAGIC.decode() in _read("docs/FORMAT.md")

    def test_algorithms_doc_references_real_modules(self):
        import importlib

        doc = _read("docs/ALGORITHMS.md")
        for reference in set(re.findall(r"`(repro\.[a-z_.]+)`", doc)):
            parts = reference.split(".")
            # The reference may be a module or module.attribute.
            for split in range(len(parts), 0, -1):
                try:
                    obj = importlib.import_module(".".join(parts[:split]))
                except ModuleNotFoundError:
                    continue
                for attribute in parts[split:]:
                    obj = getattr(obj, attribute)
                break
            else:
                pytest.fail(f"dangling reference {reference!r}")


class TestOneContainerFormat:
    """The docs describe one container format and no codec registry."""

    def test_no_doc_names_the_codec_registry(self):
        names = ["README.md", "DESIGN.md", "EXPERIMENTS.md"] + [
            str(path.relative_to(ROOT))
            for path in sorted((ROOT / "docs").glob("*.md"))]
        for name in names:
            doc = _read(name)
            for phrase in ("repro.codecs", "ssd codecs"):
                assert phrase not in doc, f"{name} names {phrase!r}"

    def test_format_doc_lists_exactly_the_readable_magics(self):
        from repro.core.container import container_version
        from repro.errors import CorruptContainer

        rows = re.findall(r'^\| `"(SSD\d)"` \|[^|]*\|([^|]*)\|',
                          _read("docs/FORMAT.md"), flags=re.MULTILINE)
        assert rows, "format-version table missing"
        documented = {magic for magic, checksums in rows
                      if "retired" not in checksums}

        def readable(magic):
            try:
                container_version(magic.encode() + bytes(16))
            except CorruptContainer:
                return False
            return True

        probed = {f"SSD{digit}" for digit in range(10)}
        assert documented == {m for m in probed if readable(m)}
        assert documented == {"SSD1", "SSD2"}
        for magic, checksums in rows:
            assert readable(magic) == ("retired" not in checksums), magic


class TestRecordedResults:
    def test_full_scale_results_exist(self):
        results = _read("results/full_scale.txt")
        for marker in ("Table 1", "Table 5", "Table 6", "Figure 3",
                       "Throughput", "Startup"):
            assert marker in results, marker

    def test_full_scale_ablations_exist(self):
        results = _read("results/full_scale_ablations.txt")
        for marker in ("branch targets", "base-entry codec",
                       "sequence-entry length", "optimal matching",
                       "hybrid re-optimization", "replacement policy",
                       "Compression landscape", "Validation"):
            assert marker in results, marker

    def test_no_failed_exhibits_recorded(self):
        assert "FAILED" not in _read("results/full_scale.txt")
        assert "Traceback" not in _read("results/full_scale_ablations.txt")


class TestPaperConstantsTranscription:
    def test_table6_rows_match_paper(self):
        from repro.workloads import PAPER_TABLE6

        assert len(PAPER_TABLE6) == 9
        assert PAPER_TABLE6[0] == (0.200, 208.0, 91.31)
        assert PAPER_TABLE6[-1] == (0.500, 5.3, 99.96)

    def test_average_row_consistency(self):
        # Paper's Table 5 average row: 0.47 / 0.61 / 6.6%.
        from repro.workloads import (
            PAPER_AVERAGE_BRISC_RATIO,
            PAPER_AVERAGE_EXEC_OVERHEAD_PCT,
            PAPER_AVERAGE_SSD_RATIO,
            PROFILES,
        )

        ssd = sum(p.table5.ssd_ratio for p in PROFILES) / len(PROFILES)
        brisc = sum(p.table5.brisc_ratio for p in PROFILES) / len(PROFILES)
        overhead = sum(p.table5.exec_overhead_pct for p in PROFILES) / len(PROFILES)
        assert ssd == pytest.approx(PAPER_AVERAGE_SSD_RATIO, abs=0.01)
        assert brisc == pytest.approx(PAPER_AVERAGE_BRISC_RATIO, abs=0.01)
        assert overhead == pytest.approx(PAPER_AVERAGE_EXEC_OVERHEAD_PCT, abs=0.1)


class TestProtocolDoc:
    def test_protocol_doc_exists_and_is_linked(self):
        doc = _read("docs/PROTOCOL.md")
        assert "repro.serve" in doc
        assert "docs/PROTOCOL.md" in _read("README.md")
        assert "docs/PROTOCOL.md" in _read("DESIGN.md")

    def test_protocol_doc_matches_message_types(self):
        from repro.serve import protocol

        doc = _read("docs/PROTOCOL.md")
        for value, name in protocol.TYPE_NAMES.items():
            assert f"`{name}`" in doc, name
            assert f"0x{value:02X}" in doc or f"0x{value:02x}" in doc, name

    def test_protocol_doc_matches_error_codes(self):
        from repro.serve import protocol

        doc = _read("docs/PROTOCOL.md")
        for value, name in protocol.ERROR_NAMES.items():
            assert f"`{name}`" in doc, name

    def test_protocol_doc_matches_constants(self):
        from repro.serve import protocol

        doc = _read("docs/PROTOCOL.md")
        assert f"version {protocol.PROTOCOL_VERSION}" in doc
        assert "SHA-256" in doc


class TestDeltaDoc:
    """docs/DELTA.md stays in lock-step with the repro.delta subsystem."""

    def test_delta_doc_exists_and_is_linked(self):
        doc = _read("docs/DELTA.md")
        assert "repro.delta" in doc
        assert "docs/DELTA.md" in _read("README.md")
        assert "docs/DELTA.md" in _read("DESIGN.md")

    def test_delta_doc_matches_code_constants(self):
        from repro.experiments.delta import MAX_MEDIAN_UPDATE_RATIO

        doc = _read("docs/DELTA.md")
        assert f"{MAX_MEDIAN_UPDATE_RATIO:.0%}" in doc

    def test_delta_doc_references_real_api(self):
        import repro.delta as delta_module

        doc = _read("docs/DELTA.md")
        for name in ("make_patch", "apply_patch", "apply_chain",
                     "patch_info", "train_shared_base", "EMPTY_BASE_HASH"):
            assert hasattr(delta_module, name), name
            assert name in doc, name
        from repro.serve import ServeClient

        assert hasattr(ServeClient, "update_container")
        assert "update_container" in doc

    def test_format_doc_covers_patch_layout(self):
        doc = _read("docs/FORMAT.md")
        assert "base SHA-256" in doc and "target SHA-256" in doc

    def test_protocol_doc_covers_delta_negotiation(self):
        doc = _read("docs/PROTOCOL.md")
        assert "`GET_DELTA`" in doc and "`GET_CONTAINER`" in doc
        assert "`E_NO_BASE`" in doc
        assert "DELTA.md" in doc


class TestObservabilityDoc:
    def _doc(self):
        return _read("docs/OBSERVABILITY.md")

    def test_doc_exists_and_is_linked(self):
        doc = self._doc()
        assert "repro.obs" in doc
        assert "docs/OBSERVABILITY.md" in _read("README.md")
        assert "docs/OBSERVABILITY.md" in _read("DESIGN.md")

    def _documented_families(self):
        # Metric families appear as the first cell of table rows:
        # "| `name_total` | counter | ... |".
        return re.findall(r"^\| `([a-z_]+)` \|", self._doc(), re.MULTILINE)

    def test_documented_metrics_exist(self):
        # Import every instrumented subsystem so registration runs.
        import repro.core.compressor  # noqa: F401
        import repro.core.decompressor  # noqa: F401
        import repro.jit.buffer  # noqa: F401
        import repro.jit.instruction_table  # noqa: F401
        import repro.jit.resilience  # noqa: F401
        import repro.jit.translator  # noqa: F401
        import repro.lz.arith  # noqa: F401
        import repro.lz.lz77  # noqa: F401
        from repro.obs import REGISTRY
        from repro.serve.metrics import RouterMetrics, ServerMetrics

        families = self._documented_families()
        assert len(families) >= 25, "metric tables went missing"
        serve_registry = ServerMetrics().registry
        cluster_registry = RouterMetrics().registry
        for name in families:
            if name.startswith("serve_"):
                registry = serve_registry
            elif name.startswith(("cluster_", "router_")):
                registry = cluster_registry
            else:
                registry = REGISTRY
            assert name in registry, f"documented family {name} not registered"

    def test_registered_metrics_are_documented(self):
        # The reverse direction: nothing registers a family the doc
        # does not list.
        import repro.core.compressor  # noqa: F401
        import repro.core.decompressor  # noqa: F401
        import repro.jit.buffer  # noqa: F401
        import repro.jit.resilience  # noqa: F401
        from repro.obs import REGISTRY
        from repro.serve.metrics import RouterMetrics, ServerMetrics

        documented = set(self._documented_families())
        live = (set(REGISTRY.names())
                | set(ServerMetrics().registry.names())
                | set(RouterMetrics().registry.names()))
        assert live <= documented, sorted(live - documented)

    def test_documented_spans_exist_in_source(self):
        doc = self._doc()
        spans = set(re.findall(r"`((?:[a-z_]+\.)+[a-z_]+)`", doc))
        spans = {name for name in spans if not name.startswith("repro.")}
        spans -= {"time.perf_counter", "asyncio.to_thread", "trace.json",
                  "PhaseProfile.phase", "Span.to_dict", "ServerMetrics.registry",
                  "ServerMetrics.expose_text", "REGISTRY.expose_text",
                  "MetricsRegistry.expose_text", "TRACER.find_roots",
                  "Span.find", "threading.Thread", "contextvars.copy_context"}
        assert "serve.decode" in spans and "jit.translate" in spans
        src = ROOT / "src" / "repro"
        source_text = "\n".join(path.read_text(encoding="utf-8")
                                for path in src.rglob("*.py"))
        for name in sorted(spans):
            # Spans open either directly (TRACER.span("x")) or through
            # the profile adapter (profile.phase("x") -> a span).
            opened = (f'span("{name}"' in source_text
                      or f'phase("{name}"' in source_text)
            assert opened, (
                f"documented span {name!r} not opened anywhere in src/repro")
