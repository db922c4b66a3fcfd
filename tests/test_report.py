"""Reports and the shared worst-residual accumulator."""

import math

import pytest

from colorrep.report import Report, worst_residual


def test_worst_keeps_the_first_strict_maximum():
    assert worst_residual([(1.0, "a"), (2.0, "b"), (2.0, "c")]) == (2.0, "b")
    assert worst_residual([(0.0, "a"), (0.0, "b")]) == (0.0, "")
    assert worst_residual([]) == (0.0, "")


def test_worst_labels_only_the_winner():
    seen = []

    def label(key):
        seen.append(key)
        return f"at {key}"

    entries = ((float(k), k) for k in range(5))
    assert worst_residual(entries, label) == (4.0, "at 4")
    assert seen == [4]


@pytest.mark.parametrize("entries, at", [
    ([(1.0, "a"), (math.nan, "b"), (2.0, "c")], "b"),
    ([(math.nan, "a"), (math.nan, "b")], "a"),
    ([(math.nan, "a"), (math.inf, "b")], "a"),
])
def test_nan_wins_and_stays(entries, at):
    value, label = worst_residual(entries)
    assert math.isnan(value) and label == at


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_residual_fails_its_check(value):
    rep = Report("t")
    assert not rep.add("c", True, value, 1e-9).passed
    assert not rep.passed
    assert rep.add("exact", True).passed


def test_max_residual_propagates_nan():
    rep = Report("t")
    assert rep.max_residual() == 0.0
    rep.add("a", True, 1.0, 2.0)
    rep.add("b", True, math.nan, 2.0)
    assert math.isnan(rep.max_residual())
