import numpy as np
import pytest

from lczkit.errors import UsageError
from lczkit.report import ExperimentRecord, build_report

SWEEP = [0.0, 1.0, 3.0, 5.0, 10.0, -1.0, -3.0, -5.0, -10.0]


def _records(slope, noise=0.0, seed=0, scenes=4, sweep=SWEEP):
    """Per-scene vegetation fractions following v' = 0.3 + slope * dt."""
    rng = np.random.default_rng(seed)
    records = []
    for i in range(scenes):
        for dt in sweep:
            v = float(np.clip(0.3 + slope * dt + noise * rng.standard_normal(), 0.0, 1.0))
            records.append(ExperimentRecord(f"s{i}", dt, dt, v))
    return records


def test_cooling_signal_rejects_null():
    bundle = build_report(_records(-0.02, noise=0.002, seed=1))
    assert bundle.decision.reject_h0
    assert bundle.fit.a == pytest.approx(-0.02, abs=0.005)
    assert [dt for dt, _ in bundle.aggregated] == sorted(SWEEP)


def test_flat_signal_fails_to_reject():
    bundle = build_report(_records(0.0, noise=0.01, seed=2))
    assert not bundle.decision.reject_h0


def test_warming_signal_fails_to_reject_despite_significance():
    bundle = build_report(_records(0.02, noise=0.001, seed=3))
    assert bundle.fit.p_a < 0.05
    assert not bundle.decision.reject_h0  # wrong sign


def test_constant_fractions_degenerate_fit():
    bundle = build_report(_records(0.0, noise=0.0))
    assert bundle.fit.r_squared == 0.0
    assert bundle.fit.p_a == 1.0
    assert not bundle.decision.reject_h0


def test_missing_baseline_raises():
    records = _records(-0.02, sweep=[1.0, 3.0, -1.0, -3.0])
    with pytest.raises(UsageError):
        build_report(records)


def test_too_few_distinct_dts_raises():
    with pytest.raises(UsageError):
        build_report(_records(-0.02, sweep=[0.0, 1.0]))


def test_empty_records_raises():
    with pytest.raises(UsageError):
        build_report([])


def test_figure_csv_row_count_matches_distinct_dts():
    bundle = build_report(_records(-0.01, noise=0.003, seed=4))
    lines = bundle.figure_csv.strip().split("\n")
    assert len(lines) == 1 + len(SWEEP)


def test_summary_carries_exclusions_and_verdict():
    bundle = build_report(_records(-0.02, noise=0.002, seed=5), n_excluded=3)
    assert "(3 pairs excluded after numeric failures)" in bundle.summary
    assert ("REJECT H0" in bundle.summary) == bundle.decision.reject_h0


def test_aggregation_averages_scenes_per_dt():
    records = [
        ExperimentRecord("a", 0.0, 0.0, 0.2),
        ExperimentRecord("b", 0.0, 0.0, 0.4),
        ExperimentRecord("a", 1.0, 1.0, 0.1),
        ExperimentRecord("b", 1.0, 1.0, 0.3),
        ExperimentRecord("a", -1.0, -1.0, 0.5),
        ExperimentRecord("b", -1.0, -1.0, 0.5),
    ]
    bundle = build_report(records)
    assert bundle.aggregated == [(-1.0, 0.5), (0.0, pytest.approx(0.3)), (1.0, pytest.approx(0.2))]


def test_record_validation():
    with pytest.raises(UsageError):
        ExperimentRecord("s", 0.0, 0.0, 1.2)
    with pytest.raises(UsageError):
        ExperimentRecord("s", 0.0, 0.0, -0.1)
