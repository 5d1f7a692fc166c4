"""Paper-level integration tests.

These assert the qualitative results of the paper's evaluation on
reduced-scale traces: they are the repository's executable summary of
EXPERIMENTS.md.  Each test names the figure it guards.
"""

import numpy as np
import pytest

from repro.analysis.experiments import ExperimentRunner, harmonic_mean
from repro.core.schemes import SCHEME_NAMES
from repro.workloads.suite import NON_VALLEY_BENCHMARKS

SCALE = 0.35
# A representative slice of the valley suite keeps this module fast.
VALLEY_SAMPLE = ("MT", "LU", "SC", "SRAD2", "SP")


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner(scale=SCALE)


class TestFig12Speedups:
    def test_broad_schemes_beat_base_on_valley_sample(self, runner):
        for scheme in ("PAE", "FAE", "ALL"):
            hmean = runner.mean_speedup(scheme, VALLEY_SAMPLE)
            assert hmean > 1.25, scheme

    def test_pae_beats_pm(self, runner):
        """Headline: PAE improves performance over state-of-the-art PM."""
        pae = runner.mean_speedup("PAE", VALLEY_SAMPLE)
        pm = runner.mean_speedup("PM", VALLEY_SAMPLE)
        assert pae > pm * 1.1

    def test_mt_is_dramatic(self, runner):
        ups = runner.speedups(["MT"], ["PAE"])
        assert ups[("MT", "PAE")] > 2.5


class TestFig15RowBuffer:
    def test_pae_keeps_locality_fae_degrades_it(self, runner):
        """PAE has the best row-buffer hit rate; FAE/ALL trade it away."""
        for bench in ("MT", "SRAD2"):
            pae = runner.run(bench, "PAE").row_hit_rate
            fae = runner.run(bench, "FAE").row_hit_rate
            alls = runner.run(bench, "ALL").row_hit_rate
            assert pae > fae >= alls - 0.05, bench


class TestFig16Power:
    def test_activates_drive_fae_power(self, runner):
        for bench in ("MT", "LU"):
            pae = runner.run(bench, "PAE")
            fae = runner.run(bench, "FAE")
            assert fae.dram_activates > 1.5 * pae.dram_activates, bench
            assert fae.dram_power.activate > pae.dram_power.activate, bench

    def test_pae_is_cheapest_broad_scheme(self, runner):
        pae = runner.dram_power_ratio("PAE", VALLEY_SAMPLE)
        fae = runner.dram_power_ratio("FAE", VALLEY_SAMPLE)
        alls = runner.dram_power_ratio("ALL", VALLEY_SAMPLE)
        assert pae < fae < alls * 1.05


class TestFig17PerfPerWatt:
    def test_broad_schemes_improve_efficiency(self, runner):
        for scheme in ("PAE", "FAE"):
            ppw = harmonic_mean(list(
                runner.perf_per_watt(VALLEY_SAMPLE, [scheme]).values()
            ))
            assert ppw > 1.1, scheme


class TestFig14Parallelism:
    def test_pae_raises_channel_and_llc_parallelism(self, runner):
        for bench in ("MT", "SC"):
            base = runner.run(bench, "BASE")
            pae = runner.run(bench, "PAE")
            assert pae.channel_parallelism > base.channel_parallelism, bench
            assert pae.llc_parallelism > base.llc_parallelism, bench


class TestFig20NonValley:
    def test_non_valley_benchmarks_roughly_flat(self, runner):
        """Mapping must not hurt benchmarks without valleys."""
        for bench in ("NN", "MUM"):
            for scheme in ("PAE", "FAE"):
                ups = runner.speedups([bench], [scheme])
                assert 0.8 < ups[(bench, scheme)] < 1.6, (bench, scheme)


class TestBijectivityEndToEnd:
    def test_no_aliasing_through_full_pipeline(self, runner):
        """Every unique input line maps to a unique DRAM location."""
        workload = runner.workload("MT")
        scheme = runner.scheme("PAE", seed=0)
        addrs = np.unique(np.concatenate([
            tb.addresses for k in workload.kernels for tb in k.tbs
        ]))
        mapped = np.atleast_1d(scheme.map(addrs))
        assert np.unique(mapped).size == addrs.size
