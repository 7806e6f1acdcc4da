"""The embedded verification suite, including its negative control."""

import io

import numpy as np
import pytest

from entangletext import chsh, enumerate_partitions, run_selftest, selftest, simulation
from entangletext.cli import main


def test_pristine_build_passes():
    stream = io.StringIO()
    results = run_selftest(stream=stream)
    assert [r.passed for r in results] == [True] * 6
    assert results[-1].name == "inverse-CDF draw"
    lines = stream.getvalue().strip().splitlines()
    assert len(lines) == 6
    assert all(line.startswith("PASS") for line in lines)


def test_corrupted_partition_table_fails_equivalence():
    # replace pair 1 with a duplicate of pair 0; note that dropping a pair's
    # swap-both-sides-and-flip partner instead (e.g. 0 and 143) would leave
    # the |S| multiset invariant and must not be used as the control
    pairs = list(enumerate_partitions())
    corrupted = [pairs[0], pairs[0]] + pairs[2:]
    stream = io.StringIO()
    results = run_selftest(partition_pairs=tuple(corrupted), stream=stream)
    by_name = {r.name: r for r in results}
    assert not by_name["ordering equivalence"].passed
    assert "FAIL" in stream.getvalue()


def test_truncated_partition_table_fails():
    pairs = enumerate_partitions()[:100]
    results = run_selftest(partition_pairs=pairs, stream=io.StringIO())
    assert not all(r.passed for r in results)


def test_zeroed_batch_kernel_fails(monkeypatch, capsys):
    # the kernel behind every analyze and simulate verdict reports S = 0
    def zero_kernel(blocks):
        n = len(blocks)
        return np.zeros(n), np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.int64)

    monkeypatch.setattr(chsh, "_split_kernel", zero_kernel)
    by_name = {r.name: r for r in run_selftest(stream=io.StringIO())}
    assert not by_name["large/small pattern"].passed
    assert not by_name["ordering equivalence"].passed
    assert main(["selftest"]) == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("violated, close", [(False, False), (False, True)], ids=["never", "band"])
def test_wrong_float_verdict_fails(violated, close, monkeypatch):
    # a float verdict that never fires, or that sends every matrix to the band
    class Constant:
        def __init__(self, capacity):
            pass

        def __call__(self, counts):
            n = len(counts)
            return np.full(n, violated), np.full(n, close)

    monkeypatch.setattr(selftest, "_FloatVerdict", Constant)
    by_name = {r.name: r for r in run_selftest(stream=io.StringIO())}
    assert not by_name["large/small pattern"].passed
    assert not by_name["ordering equivalence"].passed
    assert "float verdict" in by_name["ordering equivalence"].detail


def test_scan_without_the_band_fails(monkeypatch, capsys):
    # with no band the scan's float32 values miss the near-tie, which
    # violates by 4.6e-8 but reads 2 - 2**-23
    monkeypatch.setattr(chsh, "_FLOAT_BAND", 0.0)
    by_name = {r.name: r for r in run_selftest(stream=io.StringIO())}
    assert not by_name["scan verdicts"].passed
    assert "violations" in by_name["scan verdicts"].detail
    assert main(["selftest"]) == 3
    assert "FAIL  scan verdicts" in capsys.readouterr().out


def test_verdict_without_the_band_fails(monkeypatch, capsys):
    # with no band the float32 verdict calls the near-tie that violates by
    # 4.6e-8 but reads 2 - 2**-23 no violation
    monkeypatch.setattr(chsh, "_FLOAT_BAND", 0.0)
    by_name = {r.name: r for r in run_selftest(stream=io.StringIO())}
    assert not by_name["ordering equivalence"].passed
    assert "float verdict decides" in by_name["ordering equivalence"].detail
    assert main(["selftest"]) == 3
    assert "FAIL  ordering equivalence" in capsys.readouterr().out


def test_inexact_inverse_cdf_draw_fails(monkeypatch):
    # a draw that never falls back to searchsorted misplaces keys in
    # buckets that straddle a cdf step
    class TableOnly(simulation._InverseCdfDraw):
        def __init__(self, cdf):
            super().__init__(cdf)
            # each straddling bucket holds the value of its lower edge
            straddles = np.flatnonzero(self._values == 0)
            lower = np.searchsorted(cdf, straddles / self._k, side="right") + 1
            self._values[straddles] = np.minimum(lower, len(cdf))

    monkeypatch.setattr(selftest, "_InverseCdfDraw", TableOnly)
    by_name = {r.name: r for r in run_selftest(stream=io.StringIO())}
    assert not by_name["inverse-CDF draw"].passed
    assert "searchsorted" in by_name["inverse-CDF draw"].detail
