"""Integration tests for the experiment harness (tiny scale for speed)."""

import pytest

from repro.experiments import ExperimentContext
from repro.experiments import (
    ablations,
    delta,
    figure3,
    table1,
    table5,
    table6,
    throughput,
)
from repro.experiments.runner import build_parser, main

SCALE = 0.05  # tiny: these tests check plumbing and shape, not calibration


@pytest.fixture(scope="module")
def context():
    return ExperimentContext(scale=SCALE, train_scale=0.05)


class TestContext:
    def test_program_cached(self, context):
        assert context.program("compress") is context.program("compress")

    def test_x86_size_positive(self, context):
        assert context.x86_size("compress") > 0

    def test_ssd_dictionary_bytes_below_total(self, context):
        assert 0 < context.ssd_dictionary_bytes("compress") < context.ssd("compress").size

    def test_item_counts_cover_functions(self, context):
        counts = context.item_counts("compress")
        assert len(counts) == len(context.program("compress").functions)

    def test_leave_one_out_dictionary(self, context):
        d = context.brisc_dictionary(exclude="compress")
        assert len(d) > 0


class TestTable1:
    def test_runs_and_mentions_all_benchmarks(self, context):
        out = table1.run(context, names=["compress", "xlisp"])
        assert "compress" in out
        assert "xlisp" in out
        assert "reuse" in out


class TestTable5:
    def test_size_only_run(self, context):
        out = table5.run(context, names=["compress"], include_brisc=False,
                         include_overhead=False)
        assert "ssd(ours)" in out
        assert "average" in out

    def test_with_overhead(self, context):
        out = table5.run(context, names=["compress"], include_brisc=False,
                         include_overhead=True)
        assert "qual%(ours)" in out


class TestBufferExperiments:
    def test_table6_runs(self, context):
        out = table6.run(context)
        assert "hit%(ours)" in out

    def test_table6_monotone_hit_rate(self, context):
        points = table6.sweep(context, ratios=[0.25, 0.5])
        assert points[0].hit_rate_pct <= points[1].hit_rate_pct
        assert points[0].megabytes_translated >= points[1].megabytes_translated

    def test_figure3_runs(self, context):
        out = figure3.run(context)
        assert "SSD ovh%" in out
        assert "BRISC ovh%" in out

    def test_figure3_overheads_monotone_nonincreasing(self, context):
        data = figure3.sweep_both(context, ratios=[0.25, 0.35, 0.5])
        ssd = [p.overhead_pct for p in data["ssd"]]
        assert ssd == sorted(ssd, reverse=True)


class TestThroughput:
    def test_reports_positive_rates(self, context):
        report = throughput.measure(context, name="compress")
        assert report.measured_copy_mbps > 0
        assert report.modelled_copy_mbps > report.modelled_brisc_mbps

    def test_render(self, context):
        out = throughput.run(context, name="compress")
        assert "copy phase" in out

    def test_dictionary_phase_times_a_table_build(self, context):
        # An earlier exhibit may have memoized this container's tables
        # (table5's overhead pass does); the dictionary-phase row must
        # still time a build, not a memo hit.
        from repro.core import open_container
        from repro.jit import build_tables
        from repro.obs import REGISTRY

        build_tables(open_container(context.ssd("compress").data))
        builds = REGISTRY.get("jit_build_tables_total")
        misses, hits = builds.value(cache="miss"), builds.value(cache="hit")
        throughput.measure(context, name="compress")
        assert builds.value(cache="miss") == misses + 1
        assert builds.value(cache="hit") == hits


class TestAblations:
    def test_branch_target_ablation(self, context):
        out = ablations.branch_target_ablation(context, names=["xlisp"])
        assert "relative wins by %" in out

    def test_base_codec_ablation(self, context):
        out = ablations.base_codec_ablation(context, names=["xlisp"])
        assert "lz vs delta %" in out

    def test_sequence_length_ablation(self, context):
        out = ablations.sequence_length_ablation(context, name="compress",
                                                 lengths=(2, 4))
        assert "ratio" in out

    def test_buffer_policy_ablation(self, context):
        out = ablations.buffer_policy_ablation(context, ratios=(0.3,))
        assert "pure LRU" in out


class TestDeltaExhibit:
    def test_reports_update_and_cold_install_columns(self, context):
        out = delta.run(context, names=["xlisp", "go"])
        for column in ("update B", "update %", "cold B", "cold %", "median"):
            assert column in out, column
        assert "xlisp" in out and "go" in out
        assert "shared base" in out

    def test_parser_accepts_delta_exhibit(self):
        assert build_parser().parse_args(["delta"]).exhibit == "delta"


class TestRunnerCLI:
    def test_parser_accepts_exhibits(self):
        args = build_parser().parse_args(["table1", "--scale", "0.1"])
        assert args.exhibit == "table1"
        assert args.scale == 0.1

    def test_parser_rejects_codecs_exhibit(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["codecs"])

    def test_main_runs_table1(self, capsys, tmp_path):
        out_file = tmp_path / "out.txt"
        code = main(["table1", "--scale", "0.05", "--out", str(out_file)])
        assert code == 0
        assert "reuse" in out_file.read_text()
