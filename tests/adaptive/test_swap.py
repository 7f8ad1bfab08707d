"""A/B trial and drift-injection partition proxies."""

import time

import numpy as np
import pytest

from repro.adaptive import (
    ABTrialPartition,
    DegradedPartition,
    OutputAliasPartition,
)


class FakePartition:
    """Quacks just enough like a CompiledPartition for the proxies."""

    is_warm = True

    def __init__(self, value, fail=False, names=("out",)):
        self.value = value
        self.fail = fail
        self.closed = 0
        self.output_names = list(names)

    def execute(self, inputs):
        if self.fail:
            raise RuntimeError("challenger broken")
        return {name: self.value for name in self.output_names}

    def close(self):
        self.closed += 1


class ColdStartPartition(FakePartition):
    """A scripted arm: its first execute pays a slow one-time build."""

    def __init__(self, value, cold_seconds):
        super().__init__(value)
        self.cold_seconds = cold_seconds
        self.is_warm = False

    def execute(self, inputs):
        if not self.is_warm:
            time.sleep(self.cold_seconds)
            self.is_warm = True
        return super().execute(inputs)


class TestABTrialPartition:
    def test_stride_routing(self):
        incumbent = FakePartition(np.zeros(2))
        challenger = FakePartition(np.ones(2))
        trial = ABTrialPartition(incumbent, challenger, stride=3)
        for _ in range(9):
            trial.execute({})
        result = trial.snapshot()
        assert result.challenger_samples == 3
        assert result.incumbent_samples == 6
        assert result.challenger_errors == 0

    def test_stride_must_split_traffic(self):
        with pytest.raises(ValueError, match="stride"):
            ABTrialPartition(FakePartition(0), FakePartition(1), stride=1)

    def test_challenger_error_falls_back_to_incumbent(self):
        incumbent = FakePartition(np.full(2, 7.0))
        challenger = FakePartition(np.ones(2), fail=True)
        trial = ABTrialPartition(incumbent, challenger, stride=2)
        outputs = [trial.execute({}) for _ in range(4)]
        # Every request succeeded and every output is the incumbent's.
        for out in outputs:
            np.testing.assert_array_equal(out["out"], incumbent.value)
        result = trial.snapshot()
        assert result.challenger_errors == 2
        assert result.challenger_samples == 0

    def test_snapshot_reports_means(self):
        incumbent = FakePartition(0)
        challenger = FakePartition(1)
        trial = ABTrialPartition(incumbent, challenger, stride=2)
        for _ in range(6):
            trial.execute({})
        result = trial.snapshot()
        assert result.challenger_seconds > 0
        assert result.incumbent_seconds > 0

    def test_challenger_is_not_charged_its_cold_execute(self):
        incumbent = FakePartition(0)
        challenger = ColdStartPartition(1, cold_seconds=0.2)
        trial = ABTrialPartition(incumbent, challenger, stride=2)
        for _ in range(8):
            trial.execute({})
        result = trial.snapshot()
        # Four challenger executes; the cold first one is not a sample.
        assert result.challenger_samples == 3
        assert result.challenger_seconds < 0.05
        assert result.incumbent_samples == 4

    def test_trial_is_warm_once_both_arms_are(self):
        challenger = ColdStartPartition(1, cold_seconds=0.0)
        trial = ABTrialPartition(FakePartition(0), challenger, stride=2)
        trial.execute({})
        assert not trial.is_warm
        trial.execute({})  # the challenger's first execute
        assert trial.is_warm

    def test_cold_incumbent_execute_is_not_a_sample(self):
        incumbent = ColdStartPartition(0, cold_seconds=0.2)
        challenger = FakePartition(1)
        trial = ABTrialPartition(incumbent, challenger, stride=2)
        for _ in range(4):
            trial.execute({})
        result = trial.snapshot()
        assert result.incumbent_samples == 1
        assert result.incumbent_seconds < 0.05
        assert result.challenger_samples == 2

    def test_close_spares_the_kept_arm(self):
        incumbent = FakePartition(0)
        challenger = FakePartition(1)
        trial = ABTrialPartition(incumbent, challenger, stride=2)
        trial.keep(challenger)
        trial.close()
        assert incumbent.closed == 1
        assert challenger.closed == 0

    def test_close_without_keep_closes_both(self):
        incumbent = FakePartition(0)
        challenger = FakePartition(1)
        ABTrialPartition(incumbent, challenger, stride=2).close()
        assert incumbent.closed == 1
        assert challenger.closed == 1


class TestOutputAliasPartition:
    def test_positional_rename(self):
        target = FakePartition(np.arange(3), names=("t112", "t113"))
        alias = OutputAliasPartition(target, ["t39", "t40"])
        out = alias.execute({})
        assert list(out) == ["t39", "t40"]
        np.testing.assert_array_equal(out["t39"], np.arange(3))
        assert alias.output_names == ["t39", "t40"]

    def test_arity_change_rejected(self):
        target = FakePartition(0, names=("a", "b"))
        with pytest.raises(ValueError, match="arity"):
            OutputAliasPartition(target, ["only_one"])

    def test_close_closes_target(self):
        target = FakePartition(0)
        OutputAliasPartition(target, ["x"]).close()
        assert target.closed == 1


class TestDegradedPartition:
    def test_injects_delay(self):
        target = FakePartition(np.ones(1))
        degraded = DegradedPartition(target, delay_seconds=0.02)
        start = time.perf_counter()
        out = degraded.execute({})
        assert time.perf_counter() - start >= 0.02
        np.testing.assert_array_equal(out["out"], target.value)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError, match="delay_seconds"):
            DegradedPartition(FakePartition(0), delay_seconds=-1.0)

    def test_close_closes_target(self):
        target = FakePartition(0)
        DegradedPartition(target, 0.0).close()
        assert target.closed == 1
