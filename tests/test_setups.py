import random
import re
from collections import Counter

import numpy as np
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
    load_setup,
    or_compose,
    random_block,
    save_setup,
    setup_block,
)
from amplab.cli import FUZZ_BLOCK
from amplab.setups import _GAMMA, MAX_DRAWS, SEED_LIMIT, _mix64, check_sites

from genutil import decompose_at, insert_sigma, random_setup

BLOCK_ARRAYS = ("src", "det", "stop", "time", "column", "row", "masks")

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
    # a seed is one 64-bit key: a negative seed has no key of its own, and
    # modulo 2**64 it would wrap onto the key of a large seed
    for seed in (-1, -5):
        with pytest.raises(SetupError, match="seed must be non-negative"):
            random_block(CONFIG, [seed], 3)
    assert random_setup(CONFIG, 0, 3) == random_setup(CONFIG, 0, 3)


def test_random_setup_refuses_a_seed_past_the_key_range():
    assert random_setup(CONFIG, SEED_LIMIT - 1, 3) != random_setup(CONFIG, 0, 3)
    for seeds in ([SEED_LIMIT], [5, SEED_LIMIT + 5], range(SEED_LIMIT - 2, SEED_LIMIT + 1)):
        with pytest.raises(SetupError, match=r"seeds must lie below 2\*\*64"):
            random_block(CONFIG, seeds, 3)
    with pytest.raises(SetupError, match="seed must be non-negative"):
        random_block(CONFIG, [3, -1], 3)
    assert len(random_block(CONFIG, [], 3)) == 0


def test_random_block_refuses_draws_past_the_bound():
    # a setup takes 3 + (T - 1) + max_filters (1 + L) draws: 3 + 16381 +
    # 4096 * 4 is the bound itself, and one more step passes it
    assert MAX_DRAWS == 2**15
    assert len(random_block(LatticeConfig(3, 16382), [0], 4096)) == 1
    for seeds in ([0], []):
        with pytest.raises(SetupError, match=f"takes {2**15 + 1} draws; at most {2**15}"):
            random_block(LatticeConfig(3, 16383), seeds, 4096)


@pytest.mark.parametrize("shape", [(8, 6, 3), (16, 24, 8)], ids=["default", "long"])
def test_random_setups_draw_the_documented_distribution(shape):
    # each count lies within 5 sigma of its mean: sites, filter and hole
    # counts are uniform, and every interior time and every site is as likely
    # as any other to be a filter time or a hole
    num_sites, num_steps, max_filters = shape
    config = LatticeConfig(num_sites, num_steps)
    setups = random_block(config, range(20_000), max_filters).setups()
    filters = [f for s in setups for f in s.filters]

    def assert_near(counts, mean, variance):
        assert all(abs(c - mean) <= 5 * variance**0.5 for c in counts), (counts, mean)

    def assert_uniform(values, low, high):
        n, k = len(values), high - low + 1
        counts = Counter(values)
        assert set(counts) <= set(range(low, high + 1))
        assert_near([counts[v] for v in range(low, high + 1)], n / k, n / k * (1 - 1 / k))

    assert_uniform([s.source.site for s in setups], 0, num_sites - 1)
    assert_uniform([s.detector.site for s in setups], 0, num_sites - 1)
    assert_uniform([len(s.filters) for s in setups], 0, max_filters)
    assert_uniform([len(f.holes) for f in filters], 1, num_sites)
    assert all(s.source.time == 0 and s.detector.time == num_steps for s in setups)
    # membership: given the sizes drawn, time t is a filter time of a setup
    # with k filters with probability k / (T - 1), site x a hole of a filter
    # with n holes with probability n / L
    for members, universe, sizes in (
        ([f.time for f in filters], range(1, num_steps),
         [len(s.filters) for s in setups]),
        ([h for f in filters for h in f.holes], range(num_sites),
         [len(f.holes) for f in filters]),
    ):
        counts = Counter(members)
        assert set(counts) <= set(universe)
        ps = [size / len(universe) for size in sizes]
        assert_near([counts[x] for x in universe], sum(ps), sum(p * (1 - p) for p in ps))


@pytest.mark.parametrize(
    "first",
    [0, 1, FUZZ_BLOCK - 5, SEED_LIMIT - FUZZ_BLOCK - 10],
    ids=["0", "1", "block-edge", "range-end"],
)
def test_random_setups_depend_on_the_seed_alone(first):
    # a block that crosses a FUZZ_BLOCK edge, from any start, gives each seed
    # the setup of its block of one
    for shape, max_filters in (((8, 6), 3), ((16, 24), 8)):
        config = LatticeConfig(*shape)
        seeds = range(first, first + FUZZ_BLOCK + 10)
        block = random_block(config, seeds, max_filters).setups()
        assert block == [random_setup(config, seed, max_filters) for seed in seeds]
        assert block[7:20] == random_block(config, seeds[7:20], max_filters).setups()


@pytest.mark.parametrize(
    "first",
    [0, FUZZ_BLOCK - 5, SEED_LIMIT - FUZZ_BLOCK - 10],
    ids=["0", "block-edge", "range-end"],
)
def test_drawn_block_equals_the_block_of_its_setups(first):
    # fuzz draws its block straight from the seeds; converting the setups of
    # the same seeds gives the same arrays, up to the seed 2**64 - 1, and
    # converting back gives the same setups
    for shape, max_filters in (((8, 6), 3), ((16, 24), 8)):
        config = LatticeConfig(*shape)
        seeds = range(first, first + FUZZ_BLOCK + 10)
        drawn = random_block(config, seeds, max_filters)
        setups = drawn.setups()
        converted = setup_block(setups, shape[0])
        for name in BLOCK_ARRAYS:
            a, b = getattr(drawn, name), getattr(converted, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (shape, name)
        assert converted.setups() == setups
    if first == SEED_LIMIT - FUZZ_BLOCK - 10:
        assert seeds[-1] == SEED_LIMIT - 1


def test_block_parts_are_the_decomposition_at_every_single_hole_filter():
    # each column's parts, in order, are the setups decompose_at splits off
    # at its single-hole filters, moved to source time 0
    config = LatticeConfig(5, 9)
    setups = random_block(config, range(300), 8).setups()
    parts, first = setup_block(setups, 5).parts()
    assert first[0] == 0 and first[-1] == len(parts)
    # the core cuts both by searchsorted: entries by (time, column), and
    # every column read after a step
    assert (np.diff(parts.time * len(parts) + parts.column) > 0).all()
    assert (parts.stop >= 1).all()
    got = parts.setups()
    splits = 0
    for b, setup in enumerate(setups):
        expected, rest = [], setup
        for f in setup.filters:
            if len(f.holes) == 1:
                earlier, rest = decompose_at(rest, f.time)
                expected.append(earlier)
        expected.append(rest)
        splits += len(expected) - 1
        shifted = [
            Setup(
                Event(s.source.site, 0),
                Event(s.detector.site, s.detector.time - s.source.time),
                tuple(FilterSpec(f.time - s.source.time, f.holes) for f in s.filters),
            )
            for s in expected
        ]
        assert got[first[b] : first[b + 1]] == shifted
    assert splits > 100


def test_random_setup_keeps_its_stream():
    # SplitMix64's published outputs for state 1234567 ...
    state = np.uint64(1234567) + np.arange(1, 6, dtype=np.uint64) * _GAMMA
    assert _mix64(state).tolist() == [
        6457827717110365317, 3203168211198807973, 9817491932198370423,
        4593380528125082431, 16408922859458223821,
    ]
    # ... and one setup: a change to the key, the draws or their layout
    # fails here
    assert random_setup(LatticeConfig(16, 24), 2026, 8) == Setup(
        Event(9, 0),
        Event(9, 24),
        (
            FilterSpec(1, (0, 3, 10, 11, 13, 14)),
            FilterSpec(2, (3, 5, 6, 13)),
            FilterSpec(6, (0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 15)),
            FilterSpec(21, (3, 4, 7, 11, 15)),
        ),
    )


def test_random_setup_takes_a_63_bit_seed_from_a_random_generator():
    rng, twin = random.Random(11), random.Random(11)
    setup = random_setup(CONFIG, rng, 3)
    assert setup == random_setup(CONFIG, twin.getrandbits(63), 3)
    # the generator moved on by exactly that one draw
    assert rng.getstate() == twin.getstate()
    assert random_setup(CONFIG, rng, 3) == random_setup(CONFIG, twin.getrandbits(63), 3)


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
