"""Loss-process tests, including statistical checks on seeded streams."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.net.loss import (
    BernoulliLoss,
    CompositeLoss,
    GilbertElliottLoss,
    NoLoss,
    ScheduledOutages,
)


def test_no_loss_never_drops():
    model = NoLoss()
    rng = random.Random(1)
    assert not any(model.should_drop(t * 0.01, rng) for t in range(1000))
    assert model.expected_loss_rate() == 0.0


def test_bernoulli_rate_validation():
    with pytest.raises(ValueError):
        BernoulliLoss(-0.1)
    with pytest.raises(ValueError):
        BernoulliLoss(1.1)


def test_bernoulli_empirical_rate():
    model = BernoulliLoss(0.1)
    rng = random.Random(7)
    drops = sum(model.should_drop(t * 0.001, rng) for t in range(20000))
    assert 0.08 < drops / 20000 < 0.12
    assert model.expected_loss_rate() == 0.1


def test_bernoulli_zero_and_one():
    rng = random.Random(1)
    assert not BernoulliLoss(0.0).should_drop(0.0, rng)
    assert BernoulliLoss(1.0).should_drop(0.0, rng)


def test_gilbert_elliott_parameter_validation():
    with pytest.raises(ValueError):
        GilbertElliottLoss(mean_good=0.0)
    with pytest.raises(ValueError):
        GilbertElliottLoss(bad_loss=1.5)


def test_gilbert_elliott_stationary_rate():
    model = GilbertElliottLoss(mean_good=1.0, mean_bad=0.25, good_loss=0.0, bad_loss=0.8)
    expected = 0.25 / 1.25 * 0.8
    assert model.expected_loss_rate() == pytest.approx(expected)
    rng = random.Random(11)
    n = 60000
    drops = sum(model.should_drop(t * 0.005, rng) for t in range(n))
    assert abs(drops / n - expected) < 0.04


def test_gilbert_elliott_losses_are_bursty():
    """Consecutive packets should be lost together far more often than
    independence would predict — the correlated-loss window."""
    model = GilbertElliottLoss(mean_good=1.0, mean_bad=0.05, good_loss=0.0, bad_loss=0.9)
    rng = random.Random(3)
    outcomes = [model.should_drop(t * 0.002, rng) for t in range(100000)]
    p = sum(outcomes) / len(outcomes)
    pairs = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
    p_pair = pairs / (len(outcomes) - 1)
    assert p_pair > 3 * p * p, "losses are not correlated"


def test_gilbert_elliott_state_advances_with_time():
    model = GilbertElliottLoss(mean_good=0.01, mean_bad=0.01, bad_loss=1.0)
    rng = random.Random(5)
    states = {model.in_bad_state(t * 0.5, rng) for t in range(50)}
    assert states == {True, False}


def test_scheduled_outages_drop_inside_window_only():
    model = ScheduledOutages([(1.0, 2.0), (5.0, 5.5)])
    rng = random.Random(1)
    assert not model.should_drop(0.5, rng)
    assert model.should_drop(1.0, rng)
    assert model.should_drop(1.99, rng)
    assert not model.should_drop(2.0, rng)
    assert model.should_drop(5.2, rng)
    assert not model.should_drop(6.0, rng)
    assert math.isnan(model.expected_loss_rate())


def test_scheduled_outage_validation():
    with pytest.raises(ValueError):
        ScheduledOutages([(2.0, 1.0)])


def test_composite_drops_when_any_component_drops():
    model = CompositeLoss(BernoulliLoss(0.0), ScheduledOutages([(0.0, 1.0)]))
    rng = random.Random(1)
    assert model.should_drop(0.5, rng)
    assert not model.should_drop(1.5, rng)


def test_composite_expected_rate_composes():
    model = CompositeLoss(BernoulliLoss(0.1), BernoulliLoss(0.2))
    assert model.expected_loss_rate() == pytest.approx(1 - 0.9 * 0.8)


def test_composite_requires_components():
    with pytest.raises(ValueError):
        CompositeLoss()


# ------------------------------------------------ crossings certified ahead

#: Models whose crossings may or may not be certified ahead: a
#: Gilbert–Elliott fiber only inside a drawn loss-free state, Bernoulli
#: never (it draws per packet even at rate 0), a perfect link always.
CERTIFIED_MODELS = {
    "ge": lambda: GilbertElliottLoss(mean_good=0.03, mean_bad=0.01,
                                     bad_loss=0.6),
    "ge-lossy-good": lambda: GilbertElliottLoss(
        mean_good=0.03, mean_bad=0.01, good_loss=0.1, bad_loss=0.6),
    "ge-clean-bad": lambda: GilbertElliottLoss(
        mean_good=0.03, mean_bad=0.01, good_loss=0.1, bad_loss=0.0),
    "bernoulli-0": lambda: BernoulliLoss(0.0),
    "no-loss": NoLoss,
}
_GAP = st.floats(0.0, 0.02, allow_nan=False)


def _snapshot(model, rng):
    return dict(vars(model)), rng.getstate()


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(CERTIFIED_MODELS)),
    seed=st.integers(0, 2**32),
    schedule=st.lists(st.tuples(_GAP, _GAP, st.lists(
        st.floats(0.0, 1.0, allow_nan=False), max_size=3)),
        min_size=1, max_size=40),
)
def test_a_certified_crossing_draws_nothing_and_changes_nothing(
        name, seed, schedule):
    """On a non-decreasing schedule of queries: asking ``certain_pass``
    reads only, and once it certifies an instant ahead, every query up
    to and at that instant passes without drawing from the stream or
    moving the model — the underlay skips exactly such queries."""
    model = CERTIFIED_MODELS[name]()
    rng = random.Random(seed)
    now = 0.0
    for gap, ahead, between in schedule:
        now += gap
        at = now + ahead
        before = _snapshot(model, rng)
        certain = model.certain_pass(at)
        assert _snapshot(model, rng) == before
        if not certain:
            model.should_drop(now, rng)  # an ordinary query moves it on
            continue
        for t in sorted(now + f * ahead for f in between) + [at]:
            assert model.should_drop(t, rng) is False
            assert _snapshot(model, rng) == before
        now = at


def test_a_certificate_needs_a_drawn_loss_free_state():
    rng = random.Random(3)
    ge = GilbertElliottLoss(mean_good=1.0, mean_bad=0.01)
    assert not ge.certain_pass(0.0)  # no state drawn yet
    ge.should_drop(0.0, rng)
    now = 0.0
    while ge._in_bad:
        now = ge._state_until
        ge.should_drop(now, rng)
    end = ge._state_until
    assert ge.certain_pass(now) and ge.certain_pass(math.nextafter(end, 0.0))
    assert not ge.certain_pass(end)  # the next state is not drawn yet
    lossy_good = GilbertElliottLoss(mean_good=1.0, mean_bad=0.01,
                                    good_loss=0.01)
    lossy_good.should_drop(0.0, rng)
    assert not lossy_good.certain_pass(0.0) or lossy_good._in_bad
    assert NoLoss().certain_pass(0.0)
    for model in (BernoulliLoss(0.0), ScheduledOutages([]),
                  CompositeLoss(NoLoss())):
        assert not model.certain_pass(0.0)
