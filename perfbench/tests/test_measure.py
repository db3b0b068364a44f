"""The tail-percentile rule, the steal share, the speed probe and the oracle."""

import numpy as np
import pytest

from perfbench.measure import (
    BruteForce,
    SpeedProbe,
    samples_for,
    stolen_share,
    tail_percentile,
)


@pytest.mark.parametrize(
    "samples, expected",
    [(20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0), (1000, 99.0),
     (9999, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_needs_ten_samples_beyond(samples, expected):
    assert tail_percentile(samples) == expected
    beyond = samples - int(np.ceil(samples * expected / 100 - 1e-9))
    assert beyond >= 10


def test_tail_percentile_rejects_too_few_samples():
    with pytest.raises(ValueError):
        tail_percentile(19)


def test_samples_for_is_the_smallest_supporting_count():
    expected = {50.0: 20, 90.0: 100, 99.0: 1000, 99.9: 10000}
    for p, n in expected.items():
        assert samples_for(p) == n
        assert tail_percentile(n) == p


def _naive(mbrs, query, live=None):
    hits = [
        i for i, box in enumerate(mbrs)
        if (live is None or live[i])
        and all(box[a] <= query[a + 3] and query[a] <= box[a + 3] for a in range(3))
    ]
    return np.array(hits, dtype=np.int64)


def test_brute_force_matches_a_per_element_loop():
    rng = np.random.default_rng(5)
    lo = rng.integers(0, 20, size=(400, 3)).astype(float)
    mbrs = np.concatenate([lo, lo + rng.integers(0, 4, size=(400, 3))], axis=1)
    oracle = BruteForce(mbrs)
    live = rng.random(400) < 0.7
    for _ in range(50):
        qlo = rng.integers(0, 20, size=3).astype(float)
        query = np.concatenate([qlo, qlo + rng.integers(0, 5, size=3)])
        assert np.array_equal(oracle.query(query), _naive(mbrs, query))
        assert np.array_equal(oracle.query(query, live), _naive(mbrs, query, live))


def test_brute_force_boxes_are_closed():
    mbrs = np.array([[0.0, 0, 0, 1, 1, 1], [2.0, 2, 2, 3, 3, 3]])
    touching = np.array([1.0, 1, 1, 2, 2, 2])
    assert BruteForce(mbrs).query(touching).tolist() == [0, 1]
    assert BruteForce(mbrs).query(np.array([1.5, 1.5, 1.5, 1.9, 1.9, 1.9])).size == 0


def test_stolen_share_is_steal_over_runnable_time():
    # 300 busy + 100 stolen ticks: a busy closed loop lost a quarter of
    # its wall time; idle ticks are not counted at all.
    assert stolen_share((1000, 50), (1300, 150)) == 0.25
    assert stolen_share((1000, 50), (1400, 50)) == 0.0
    assert stolen_share((1000, 50), (1000, 50)) == 0.0


def test_speed_factor_is_nominal_over_the_median_of_its_samples():
    probe = SpeedProbe()
    # A machine at half speed doubles timings; the factor halves them back.
    probe.samples = [2 * SpeedProbe.NOMINAL, 4 * SpeedProbe.NOMINAL, 100.0]
    assert probe.factor() == pytest.approx(0.25)
    probe.samples = [SpeedProbe.NOMINAL, 0.5 * SpeedProbe.NOMINAL, 1.5 * SpeedProbe.NOMINAL]
    assert probe.factor() == pytest.approx(1.0)


def test_speed_probe_ticks_at_most_once_per_interval():
    probe = SpeedProbe()
    probe.interval = 3600.0
    probe.tick()
    probe.tick()
    assert len(probe.samples) == 1
    probe.sample(3)
    assert len(probe.samples) == 4
    assert all(t > 0 for t in probe.samples)
    assert probe.cpu > 0 and probe.wall > 0
