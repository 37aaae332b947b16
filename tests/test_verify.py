"""Tests for the invariant-suite runner and its reports."""
import pytest

from liftlab.errors import SchemaError
from liftlab.verify import SUITE_NAMES, run_suite


def test_all_suite_passes_at_small_trial_count():
    report = run_suite("all", seed=7, trials=5)
    assert report.passed
    assert report.suite == "all"
    assert report.seed == 7
    names = [c.name for c in report.checks]
    assert names == sorted(names)
    assert len(names) == len(set(names))
    modules = {n.split(".")[0] for n in names}
    assert modules == {"matcore", "classical", "clift", "qlift", "circulant"}


def test_each_module_suite_passes():
    for suite in SUITE_NAMES:
        if suite == "all":
            continue
        report = run_suite(suite, seed=3, trials=5)
        assert report.passed, [c.name for c in report.checks if not c.passed]
        assert all(c.name.startswith(suite + ".") for c in report.checks)
        assert all(c.measured <= c.tolerance for c in report.checks)
        assert all(c.anchor for c in report.checks)


def test_module_results_match_within_all():
    combined = {c.name: c for c in run_suite("all", seed=11, trials=4).checks}
    for suite in ("matcore", "classical", "clift", "qlift", "circulant"):
        solo = run_suite(suite, seed=11, trials=4)
        for check in solo.checks:
            assert combined[check.name].measured == check.measured


def test_unknown_suite_rejected():
    with pytest.raises(SchemaError):
        run_suite("bogus", seed=0, trials=1)


def test_trials_and_seed_validation():
    with pytest.raises(SchemaError):
        run_suite("matcore", seed=0, trials=0)


def test_negative_seed_and_bad_tol_rejected():
    with pytest.raises(SchemaError):
        run_suite("matcore", seed=-1, trials=1)
    for tol in (float("nan"), float("inf"), -1e-12):
        with pytest.raises(SchemaError):
            run_suite("matcore", seed=0, trials=1, tol=tol)


def test_tol_override_applies_to_every_check():
    report = run_suite("matcore", seed=1, trials=2, tol=0.0)
    assert [c.tolerance for c in report.checks] == [0.0] * len(report.checks)
    assert all(c.passed == (c.measured <= 0.0) for c in report.checks)
    assert not report.passed


def test_timestamp_honors_source_date_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    report = run_suite("matcore", seed=1, trials=2)
    assert report.timestamp == "1970-01-01T00:00:00Z"
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "not-a-number")
    with pytest.raises(SchemaError):
        run_suite("matcore", seed=1, trials=2)


def test_report_serialization_shape():
    report = run_suite("circulant", seed=5, trials=3)
    blob = report.to_json()
    assert blob["suite"] == "circulant"
    assert blob["passed"] is True
    assert isinstance(blob["checks"], list)
    first = blob["checks"][0]
    assert set(first) == {"name", "passed", "measured", "tolerance", "anchor"}
