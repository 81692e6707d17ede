import random
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from amplab import (
    Event,
    FilterSpec,
    LatticeConfig,
    NonConsecutiveError,
    NotCombinableError,
    Setup,
    SetupError,
    and_compose,
    decompose_at,
    insert_sigma,
    load_setup,
    or_compose,
    random_setup,
    save_setup,
)
from amplab.setups import check_sites

CONFIG = LatticeConfig(num_sites=4, num_steps=4)


def bare(src_site=0, det_site=3, t_src=0, t_det=4):
    return Setup(Event(src_site, t_src), Event(det_site, t_det))


def test_filter_normalization():
    f = FilterSpec(2, (3, 1, 1, 2))
    assert f.holes == (1, 2, 3)
    with pytest.raises(SetupError):
        FilterSpec(2, (-1,))


def test_setup_invariants():
    with pytest.raises(SetupError):
        Setup(Event(0, 2), Event(1, 2))  # zero duration
    with pytest.raises(SetupError):
        Setup(Event(0, 0), Event(1, 3), (FilterSpec(3, (0,)),))  # at detector
    with pytest.raises(SetupError):
        Setup(Event(0, 0), Event(1, 3), (FilterSpec(0, (0,)),))  # at source
    with pytest.raises(SetupError):
        Setup(
            Event(0, 0),
            Event(1, 3),
            (FilterSpec(1, (0,)), FilterSpec(1, (1,))),  # time collision
        )
    s = Setup(Event(0, 0), Event(1, 3), (FilterSpec(2, (0,)), FilterSpec(1, (1,))))
    assert s.filter_times == (1, 2)  # stored sorted


def test_equality_ignores_hole_order():
    a = Setup(Event(0, 0), Event(3, 2), (FilterSpec(1, (1, 2)),))
    b = Setup(Event(0, 0), Event(3, 2), (FilterSpec(1, (2, 1)),))
    assert a == a
    assert a == b
    c = Setup(Event(0, 0), Event(3, 2), (FilterSpec(1, (1, 3)),))
    assert a != c


def test_and_compose_simplest_instance():
    earlier = Setup(Event(0, 0), Event(1, 1))
    later = Setup(Event(1, 1), Event(2, 2))
    combined = and_compose(earlier, later)
    assert combined == Setup(Event(0, 0), Event(2, 2), (FilterSpec(1, (1,)),))


def test_and_compose_keeps_part_filters():
    earlier = Setup(Event(0, 0), Event(2, 2), (FilterSpec(1, (0, 1)),))
    later = Setup(Event(2, 2), Event(3, 4), (FilterSpec(3, (2, 3)),))
    combined = and_compose(earlier, later)
    assert combined.filter_times == (1, 2, 3)
    assert combined.filter_at(2).holes == (2,)


def test_and_compose_rejects_nonconsecutive():
    earlier = Setup(Event(0, 0), Event(1, 1))
    with pytest.raises(NonConsecutiveError):
        and_compose(earlier, Setup(Event(2, 1), Event(3, 2)))  # site mismatch
    with pytest.raises(NonConsecutiveError):
        and_compose(earlier, Setup(Event(1, 2), Event(3, 3)))  # time mismatch


def test_or_compose_two_slit():
    a = Setup(Event(0, 0), Event(3, 2), (FilterSpec(1, (1,)),))
    b = Setup(Event(0, 0), Event(3, 2), (FilterSpec(1, (2,)),))
    merged = or_compose(a, b)
    assert merged == Setup(Event(0, 0), Event(3, 2), (FilterSpec(1, (1, 2)),))
    assert or_compose(a, b) == or_compose(b, a)


def test_or_compose_rejections():
    a = Setup(
        Event(0, 0), Event(3, 4), (FilterSpec(1, (1,)), FilterSpec(2, (0,)))
    )
    b_two_diffs = Setup(
        Event(0, 0), Event(3, 4), (FilterSpec(1, (2,)), FilterSpec(2, (1,)))
    )
    with pytest.raises(NotCombinableError):
        or_compose(a, b_two_diffs)
    b_overlap = Setup(
        Event(0, 0), Event(3, 4), (FilterSpec(1, (1, 2)), FilterSpec(2, (0,)))
    )
    with pytest.raises(NotCombinableError):
        or_compose(a, b_overlap)
    with pytest.raises(NotCombinableError):
        or_compose(a, a)  # no differing filter
    b_other_detector = Setup(Event(0, 0), Event(2, 4), a.filters)
    with pytest.raises(NotCombinableError):
        or_compose(a, b_other_detector)
    b_other_times = Setup(
        Event(0, 0), Event(3, 4), (FilterSpec(1, (1,)), FilterSpec(3, (0,)))
    )
    with pytest.raises(NotCombinableError):
        or_compose(a, b_other_times)
    a_block = Setup(Event(0, 0), Event(3, 4), (FilterSpec(1, ()),))
    b_holes = Setup(Event(0, 0), Event(3, 4), (FilterSpec(1, (1,)),))
    with pytest.raises(NotCombinableError):
        or_compose(a_block, b_holes)


@pytest.mark.parametrize(
    "source_time, filter_times, detector_time",
    [
        pytest.param(2, (), 2, id="detector-at-source"),
        pytest.param(3, (), 1, id="detector-before-source"),
        pytest.param(0, (2, 2), 4, id="two-filters-at-one-time"),
        pytest.param(0, (0,), 4, id="filter-at-source"),
        pytest.param(0, (4,), 4, id="filter-at-detector"),
    ],
)
def test_setup_times_must_rise_strictly(source_time, filter_times, detector_time):
    filters = tuple(FilterSpec(t, (k,)) for k, t in enumerate(filter_times))
    times = [source_time, *filter_times, detector_time]
    with pytest.raises(SetupError, match=re.escape(f"must rise strictly: {times}")):
        Setup(Event(0, source_time), Event(1, detector_time), filters)


def test_insert_sigma():
    s = bare()
    widened = insert_sigma(s, 2, CONFIG.num_sites)
    assert widened.filter_at(2).holes == (0, 1, 2, 3)
    with pytest.raises(SetupError):
        insert_sigma(s, 0, CONFIG.num_sites)  # at source time
    with pytest.raises(SetupError):
        insert_sigma(widened, 2, CONFIG.num_sites)  # collision
    everywhere = s
    for t in range(1, 4):
        everywhere = insert_sigma(everywhere, t, CONFIG.num_sites)
    assert len(everywhere.filters) == 3
    assert all(len(f.holes) == CONFIG.num_sites for f in everywhere.filters)
    # several times at once: the same setup as one insert per time
    filtered = Setup(Event(0, 0), Event(3, 6), (FilterSpec(3, (1, 2)),))
    sequential = filtered
    for t in (5, 1, 2):
        sequential = insert_sigma(sequential, t, CONFIG.num_sites)
    assert insert_sigma(filtered, (5, 1, 2), CONFIG.num_sites) == sequential
    assert insert_sigma(filtered, [], CONFIG.num_sites) == filtered
    for times in ((1, 3), (2, 6), (0, 2), (1, 2, 1)):  # filter, detector, source, twice
        with pytest.raises(SetupError):
            insert_sigma(filtered, times, CONFIG.num_sites)


def test_decompose_at_inverts_and_compose():
    s = Setup(Event(0, 0), Event(3, 4), (FilterSpec(2, (1,)), FilterSpec(3, (0, 2))))
    earlier, later = decompose_at(s, 2)
    assert earlier == Setup(Event(0, 0), Event(1, 2))
    assert later == Setup(Event(1, 2), Event(3, 4), (FilterSpec(3, (0, 2)),))
    assert and_compose(earlier, later) == s


def test_decompose_at_rejections():
    s = Setup(Event(0, 0), Event(3, 4), (FilterSpec(2, (1, 2)),))
    with pytest.raises(SetupError):
        decompose_at(s, 2)  # two holes
    with pytest.raises(SetupError):
        decompose_at(s, 1)  # no filter


def test_random_setup_deterministic():
    a = random_setup(CONFIG, 42, 3)
    b = random_setup(CONFIG, 42, 3)
    assert a == b
    assert random_setup(CONFIG, 42, 0).filters == ()
    with pytest.raises(SetupError):
        random_setup(CONFIG, 1, CONFIG.num_steps)


def test_random_setup_rejects_a_negative_seed():
    # random.Random(-s) seeds exactly like Random(s): a negative seed would
    # repeat the setup of its absolute value
    assert random.Random(-5).random() == random.Random(5).random()
    for seed in (-1, -5):
        with pytest.raises(SetupError, match="seed must be non-negative"):
            random_setup(CONFIG, seed, 3)
    assert random_setup(CONFIG, 0, 3) == random_setup(CONFIG, 0, 3)


def test_random_setup_always_valid():
    config = LatticeConfig(num_sites=8, num_steps=6)
    for seed in range(1000):
        setup = random_setup(config, seed, 4)
        check_sites(setup, config.num_sites)
        assert setup.source.time == 0 and setup.detector.time == config.num_steps


def test_or_associativity_when_allowed():
    rng = random.Random(7)
    for _ in range(200):
        t = rng.randint(1, 3)
        sites = list(range(4))
        rng.shuffle(sites)
        holes = [(sites[0],), (sites[1],), (sites[2],)]
        variants = [
            Setup(Event(0, 0), Event(1, 4), (FilterSpec(t, h),)) for h in holes
        ]
        a, b, c = variants
        lhs = or_compose(or_compose(a, b), c)
        rhs = or_compose(a, or_compose(b, c))
        assert lhs == rhs
        assert lhs == or_compose(or_compose(a, c), b)


def test_and_associativity_when_allowed():
    rng = random.Random(13)
    for _ in range(200):
        j1 = Event(rng.randrange(4), 1)
        j2 = Event(rng.randrange(4), 3)
        a = Setup(Event(rng.randrange(4), 0), j1)
        b = Setup(j1, j2, (FilterSpec(2, (rng.randrange(4),)),))
        c = Setup(j2, Event(rng.randrange(4), 4))
        assert and_compose(and_compose(a, b), c) == and_compose(a, and_compose(b, c))


def test_and_never_commutes():
    rng = random.Random(29)
    for _ in range(200):
        junction = Event(rng.randrange(4), rng.randint(1, 3))
        a = Setup(Event(rng.randrange(4), 0), junction)
        b = Setup(junction, Event(rng.randrange(4), 4))
        and_compose(a, b)
        with pytest.raises(NonConsecutiveError):
            and_compose(b, a)


def test_distributivity_setup_identity():
    # with b, c the earlier alternatives and a the later continuation:
    # (b or c) then a  ==  (b then a) or (c then a),
    # while composing in the wrong temporal order is not allowed
    rng = random.Random(31)
    for _ in range(200):
        junction = Event(rng.randrange(4), 2)
        t = 1
        sites = list(range(4))
        rng.shuffle(sites)
        b = Setup(Event(sites[3], 0), junction, (FilterSpec(t, (sites[0],)),))
        c = Setup(Event(sites[3], 0), junction, (FilterSpec(t, (sites[1],)),))
        a = Setup(junction, Event(rng.randrange(4), 4))
        lhs = and_compose(or_compose(b, c), a)
        rhs = or_compose(and_compose(b, a), and_compose(c, a))
        assert lhs == rhs
        with pytest.raises(NonConsecutiveError):
            and_compose(a, or_compose(b, c))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from([0, 1, 2]), min_size=5, max_size=5))
def test_or_compose_union_and_commutativity(assignment):
    holes_a = tuple(i for i, g in enumerate(assignment) if g == 1)
    holes_b = tuple(i for i, g in enumerate(assignment) if g == 2)
    assume(holes_a and holes_b)
    a = Setup(Event(0, 0), Event(4, 2), (FilterSpec(1, holes_a),))
    b = Setup(Event(0, 0), Event(4, 2), (FilterSpec(1, holes_b),))
    merged = or_compose(a, b)
    assert merged.filter_at(1).holes == tuple(sorted(holes_a + holes_b))
    assert merged == or_compose(b, a)


def test_setup_json_roundtrip(tmp_path):
    s = Setup(Event(0, 0), Event(3, 4), (FilterSpec(2, (1, 3)),))
    path = tmp_path / "setup.json"
    save_setup(s, path)
    assert load_setup(path) == s


def test_setup_json_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"source": {"site": 0}}')
    with pytest.raises(SetupError):
        load_setup(path)
