"""Library-side counters: fracext.obs."""

from fracext import obs


def test_count_outside_a_recording_does_nothing():
    obs.count("x", 3)
    with obs.recording() as counts:
        pass
    assert counts == {}


def test_recordings_add_up_and_a_nested_one_keeps_its_own_counts():
    with obs.recording() as outer:
        obs.count("a", 2)
        with obs.recording() as inner:
            obs.count("a")
            obs.count("b", 5)
        obs.count("a", 4)
    assert outer == {"a": 6}
    assert inner == {"a": 1, "b": 5}
