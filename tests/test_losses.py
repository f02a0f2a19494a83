"""Tests for loss evaluation, response validation, and default boxes."""

import math

import numpy as np
import pytest

from mondrian_forest import (
    InputError,
    LossSpec,
    NumericError,
    default_value_box,
    loss_eval,
)
from mondrian_forest.losses import ALL_FAMILIES, validate_responses


def test_spec_validation():
    with pytest.raises(InputError):
        LossSpec("nonsense")
    with pytest.raises(InputError):
        LossSpec("pinball")
    with pytest.raises(InputError):
        LossSpec("pinball", tau=1.0)
    with pytest.raises(InputError):
        LossSpec("pinball", tau=0.0)
    with pytest.raises(InputError):
        LossSpec("huber")
    with pytest.raises(InputError):
        LossSpec("huber", delta=0.0)
    with pytest.raises(InputError):
        LossSpec("squared", tau=0.5)
    with pytest.raises(InputError):
        LossSpec("squared", delta=1.0)
    assert LossSpec("pinball", tau=0.25).tau == 0.25
    assert LossSpec("huber", delta=2.0).delta == 2.0


def test_point_values():
    assert loss_eval(LossSpec("squared"), 2.0, 3.0) == 1.0
    assert loss_eval(LossSpec("squared"), 0.25, 1.0) == pytest.approx(0.5625)
    pin = LossSpec("pinball", tau=0.9)
    assert loss_eval(pin, 0.0, 1.0) == pytest.approx(0.9, abs=1e-15)
    assert loss_eval(pin, 2.0, 1.0) == pytest.approx(0.1, abs=1e-15)
    hub = LossSpec("huber", delta=1.0)
    assert loss_eval(hub, 0.0, 3.0) == pytest.approx(2.5, abs=1e-15)
    assert loss_eval(LossSpec("phi5"), 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)


def test_pinball_half_is_scaled_absolute():
    spec = LossSpec("pinball", tau=0.5)
    rng = np.random.default_rng(3)
    for _ in range(200):
        v = rng.uniform(-3, 3)
        y = rng.uniform(-3, 3)
        assert loss_eval(spec, v, y) == pytest.approx(0.5 * abs(y - v), abs=1e-12)


def test_huber_matches_half_squared_inside_delta():
    spec = LossSpec("huber", delta=2.0)
    rng = np.random.default_rng(4)
    for _ in range(200):
        v = rng.uniform(-1, 1)
        y = v + rng.uniform(-2, 2)
        assert loss_eval(spec, v, y) == 0.5 * (v - y) ** 2
    assert loss_eval(spec, 0.0, 5.0) == 2.0 * (5.0 - 1.0)


def test_exponential_family_values():
    gauss = LossSpec("gaussian")
    assert loss_eval(gauss, 0.7, 2.0) == pytest.approx(-0.7 * 2.0 + 0.7**2 / 2)
    pois = LossSpec("poisson")
    assert loss_eval(pois, 0.3, 4.0) == pytest.approx(-0.3 * 4.0 + math.exp(0.3))
    bern = LossSpec("bernoulli")
    assert loss_eval(bern, 0.0, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)
    expected = -(math.log(0.75) - math.log(0.25)) + (-math.log(0.25))
    assert loss_eval(bern, 0.25, 1.0) == pytest.approx(expected, abs=1e-12)
    geo = LossSpec("geometric")
    expected = 1.0 - math.log(math.e - 1.0)
    assert loss_eval(geo, -1.0, 1.0) == pytest.approx(expected, abs=1e-12)


def test_surrogate_values_match_formulas():
    def phi(k, m):
        """Surrogate cost at the margin m = y*v."""
        if k == 1:
            return (1.0 - m) ** 2
        if k == 2:
            return max(1.0 - m, 0.0)
        if k == 3:
            if m <= 0.0:
                return 0.5 - m
            if m <= 1.0:
                return (1.0 - m) ** 2 / 2.0
            return 0.0
        if k == 4:
            return max(1.0 - m, 0.0) ** 2
        if k == 5:
            return math.log2(1.0 + math.exp(-m))
        return math.exp(-m)

    rng = np.random.default_rng(5)
    for k in range(1, 7):
        spec = LossSpec(f"phi{k}")
        for _ in range(100):
            v = rng.uniform(-2, 2)
            y = rng.choice([-1.0, 1.0])
            expected = phi(k, y * v)
            assert loss_eval(spec, v, y) == pytest.approx(expected, abs=1e-12)


def test_density_pseudo_loss_ignores_response():
    spec = LossSpec("density")
    assert loss_eval(spec, 0.4) == -0.4
    assert loss_eval(spec, 0.4, 123.0) == -0.4
    vals = loss_eval(spec, np.array([0.1, -0.2]))
    assert np.allclose(vals, [-0.1, 0.2])


def test_domain_guards():
    with pytest.raises(InputError):
        loss_eval(LossSpec("bernoulli"), 0.5, 1.0)
    with pytest.raises(InputError):
        loss_eval(LossSpec("bernoulli"), -0.6, 0.0)
    with pytest.raises(InputError):
        loss_eval(LossSpec("geometric"), 0.0, 1.0)
    with pytest.raises(NumericError):
        loss_eval(LossSpec("squared"), 1e200, -1e200)


def test_validate_responses():
    validate_responses(LossSpec("poisson"), np.array([0.0, 3.0]))
    with pytest.raises(InputError):
        validate_responses(LossSpec("poisson"), np.array([-1.0]))
    with pytest.raises(InputError):
        validate_responses(LossSpec("poisson"), np.array([1.5]))
    validate_responses(LossSpec("geometric"), np.array([1.0, 7.0]))
    with pytest.raises(InputError):
        validate_responses(LossSpec("geometric"), np.array([0.0]))
    validate_responses(LossSpec("bernoulli"), np.array([0.0, 1.0]))
    with pytest.raises(InputError):
        validate_responses(LossSpec("bernoulli"), np.array([-1.0]))
    validate_responses(LossSpec("phi2"), np.array([-1.0, 1.0]))
    with pytest.raises(InputError):
        validate_responses(LossSpec("phi2"), np.array([0.0]))
    validate_responses(LossSpec("squared"), np.array([-5.0, 11.0]))


def sample_admissible_y(family: str, rng) -> float:
    if family in ("squared", "pinball", "huber", "gaussian"):
        return float(rng.normal())
    if family == "poisson":
        return float(rng.integers(0, 6))
    if family == "geometric":
        return float(rng.integers(1, 6))
    if family == "bernoulli":
        return float(rng.integers(0, 2))
    return float(rng.choice([-1.0, 1.0]))


def make_spec(family: str) -> LossSpec:
    if family == "pinball":
        return LossSpec(family, tau=0.7)
    if family == "huber":
        return LossSpec(family, delta=1.0)
    return LossSpec(family)


def test_convexity_random_chords():
    rng = np.random.default_rng(6)
    for family in ALL_FAMILIES:
        spec = make_spec(family)
        box = default_value_box(spec, 100)
        v1 = rng.uniform(box.lo, box.hi, size=10_000)
        v2 = rng.uniform(box.lo, box.hi, size=10_000)
        theta = rng.uniform(0.0, 1.0, size=10_000)
        y = sample_admissible_y(family, rng)
        mid = loss_eval(spec, theta * v1 + (1 - theta) * v2, y)
        chord = theta * loss_eval(spec, v1, y) + (1 - theta) * loss_eval(spec, v2, y)
        assert np.all(mid <= chord + 1e-9), family


def test_default_boxes():
    n = round(math.e**5)
    box = default_value_box(LossSpec("squared"), n)
    assert box.hi == math.log(n)
    assert box.hi == pytest.approx(5.0, abs=0.01)
    assert box.lo == -box.hi
    for family in ("huber", "phi1", "phi2", "phi3", "phi4", "phi5"):
        same = default_value_box(make_spec(family), n)
        assert (same.lo, same.hi) == (box.lo, box.hi)
    assert default_value_box(LossSpec("squared"), 1000).hi == math.log(1000.0)

    n = round(math.e**4)
    bern = default_value_box(LossSpec("bernoulli"), n)
    assert bern.hi == 0.5 - 1.0 / math.log(n)
    assert bern.hi == pytest.approx(0.25, abs=0.01)
    small = default_value_box(LossSpec("bernoulli"), 3)
    assert (small.lo, small.hi) == (-0.125, 0.125)

    for family in ("poisson", "phi6", "density"):
        box = default_value_box(LossSpec(family), 1000)
        b = max(1.0, math.log(math.log(1000.0)))
        assert (box.lo, box.hi) == (-b, b)
        floor = default_value_box(LossSpec(family), 5)
        assert (floor.lo, floor.hi) == (-1.0, 1.0)

    geo = default_value_box(LossSpec("geometric"), 15)
    assert (geo.lo, geo.hi) == (-2.0, -0.5)
    geo = default_value_box(LossSpec("geometric"), 10_000)
    b = math.log(math.log(10_000.0))
    assert (geo.lo, geo.hi) == (-b, -1.0 / b)

    pin = default_value_box(LossSpec("pinball", tau=0.3), 50)
    assert pin.hi == math.sqrt(math.e)
    pin = default_value_box(LossSpec("pinball", tau=0.3), 10**9)
    assert pin.hi == math.sqrt(math.log(math.log(10.0**9)))
