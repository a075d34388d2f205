"""Evaluation-harness tests on a small suite (fast smoke of §6)."""

import gc
from types import SimpleNamespace

import pytest

from repro.bhive.suite import BenchmarkSuite
from repro.core.components import ThroughputMode
from repro.eval import figures, tables
from repro.eval.runner import evaluate_predictor, measured_suite
from repro.uarch import uarch_by_name
from repro.uops.database import UopsDatabase


@pytest.fixture(scope="module")
def small_suite():
    return BenchmarkSuite.generate(20, seed=321)


class TestTable1:
    def test_table1_layout(self):
        rows = tables.table1()
        assert len(rows) == 9
        assert rows[0]["abbr"] == "RKL"
        assert "Skylake" in tables.render_table1()


class TestTable2:
    def test_facile_and_uica_lead(self, small_suite):
        rows = tables.table2(
            small_suite, [uarch_by_name("SKL")],
            ["Facile", "uiCA", "llvm-mca-15", "IACA 3.0"])
        by_name = {r.predictor: r for r in rows}
        assert by_name["Facile"].mape_u < by_name["llvm-mca-15"].mape_u
        assert by_name["Facile"].mape_u < by_name["IACA 3.0"].mape_u
        assert by_name["uiCA"].mape_u < 0.05
        assert by_name["Facile"].kendall_u > \
            by_name["llvm-mca-15"].kendall_u
        assert "SKL" in tables.render_table2(rows)


class TestTable3:
    def test_ablation_rows(self, small_suite):
        rows = tables.table3(small_suite, uarch_names=("SKL",))
        by_variant = {r.variant: r for r in rows}
        full = by_variant["Facile"]
        assert full.mape_u < by_variant["only Ports"].mape_u
        assert full.mape_u < by_variant["Facile w/o Predec"].mape_u
        # "only DSB" under TPU predicts 0 everywhere: 100% MAPE.
        assert by_variant["only DSB"].mape_u == pytest.approx(1.0)
        assert "only DSB" in tables.render_table3(rows)

    def test_without_precedence_hurts_loop_mode(self, small_suite):
        rows = tables.table3(small_suite, uarch_names=("SKL",))
        by_variant = {r.variant: r for r in rows}
        assert by_variant["Facile w/o Precedence"].mape_l >= \
            by_variant["Facile"].mape_l


class TestTable4:
    def test_speedups_at_least_one(self, small_suite):
        data = tables.table4(small_suite)
        assert set(data) == {u.abbrev for u in
                             __import__("repro.uarch",
                                        fromlist=["ALL_UARCHS"]).ALL_UARCHS}
        for row in data.values():
            for value in row.values():
                assert value >= 1.0
        assert "Predec" in tables.render_table4(data)


class TestFigures:
    def test_figure3_heatmaps(self, small_suite):
        maps = figures.figure3_heatmaps(small_suite, uarch="RKL",
                                        predictors=("Facile", "uiCA"))
        facile, uica = maps
        total = sum(sum(row) for row in facile.counts)
        assert total > 0
        # Accurate predictors concentrate near the diagonal.
        assert facile.diagonal_fraction > 0.5
        assert uica.diagonal_fraction > 0.5

    def test_facile_optimism(self, small_suite):
        fraction = figures.optimism_fraction(small_suite, uarch="RKL")
        assert fraction > 0.9

    def test_figure6_flow_conservation(self, small_suite):
        flows = figures.figure6_bottleneck_evolution(
            small_suite, uarch_names=("SNB", "RKL"))
        assert len(flows) == 1
        flow = flows[0]
        outgoing = sum(sum(row.values())
                       for row in flow["matrix"].values())
        assert outgoing == len(small_suite)
        assert sum(flow["from_shares"].values()) == len(small_suite)
        assert figures.render_figure6(flows)

    def test_figure4_timing_structure(self, small_suite):
        data = figures.figure4_component_times(small_suite, uarch="SKL")
        for mode in ("TPU", "TPL"):
            results = data[mode]
            assert "FACILE" in results and "Overhead" in results
            assert "Precedence" in results
            # Components cost less than the whole model.
            assert results["Precedence"].mean_ms <= \
                results["FACILE"].mean_ms + 0.5


class TestTiming:
    def test_samples_are_timed_block_by_block_with_the_collector_off(
            self, small_suite, monkeypatch):
        # Figure 4 deducts the overhead sample of a block from each
        # component's sample of the same block, and Figures 4 and 5
        # report ~1 ms means: a host slowdown or a full collection must
        # not land on one variant's samples alone.
        from repro.eval import timing
        seen = []
        predict = timing.Facile.predict

        def record(block, mode):
            seen.append((gc.isenabled(), block.raw))

        def spy(self, block, mode):
            record(block, mode)
            return predict(self, block, mode)

        monkeypatch.setattr(timing.Facile, "predict", spy)
        results = timing.time_facile_components(
            uarch_by_name("SKL"), small_suite, ThroughputMode.LOOP)
        raws = [bench.block(True).raw for bench in small_suite]
        assert [raw for _, raw in seen] == [raw for raw in raws
                                            for _ in results]
        stub = SimpleNamespace(name="stub", prepare=lambda: None,
                               databases=lambda: [], predict=record)
        timing.time_predictor(stub, small_suite, ThroughputMode.LOOP)
        assert [raw for _, raw in seen[-len(raws):]] == raws
        assert not any(enabled for enabled, _ in seen)
        assert gc.isenabled()


class TestRunner:
    def test_evaluate_predictor_pairs_lengths(self, small_suite):
        from repro.baselines import all_predictors
        cfg = uarch_by_name("SKL")
        db = UopsDatabase(cfg)
        predictor = all_predictors(cfg, db, ["Facile"])[0]
        result = evaluate_predictor(predictor, small_suite,
                                    ThroughputMode.UNROLLED)
        assert len(result.measured) == len(result.predicted) == \
            len(small_suite)
        assert 0 <= result.mape < 0.2
        assert result.kendall > 0.7

    def test_custom_config_measures_serially(self, small_suite):
        # Pool workers rebuild a µarch by name, so a config outside the
        # registry skips the pool and measures in-process instead.
        import dataclasses

        from repro.sim.measure import measure
        cfg = dataclasses.replace(uarch_by_name("SKL"), abbrev="XYZ")
        suite = small_suite[:3]
        assert measured_suite(suite, cfg, ThroughputMode.LOOP,
                              n_workers=2) == \
            [measure(b.block_l, cfg, ThroughputMode.LOOP, use_cache=False)
             for b in suite]
