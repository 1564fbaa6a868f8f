import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tecsim import rng as rng_module
from tecsim.rng import _trial_keys, philox_generator, trial_words


def test_same_path_gives_identical_streams():
    a = philox_generator(123, 4, 5).integers(0, 1 << 62, size=64)
    b = philox_generator(123, 4, 5).integers(0, 1 << 62, size=64)
    assert np.array_equal(a, b)


def test_distinct_paths_give_distinct_streams():
    base = philox_generator(123).integers(0, 1 << 62, size=64)
    for path in ((0,), (1,), (0, 0), (0, 1), (1, 0)):
        other = philox_generator(123, *path).integers(0, 1 << 62, size=64)
        assert not np.array_equal(base, other), path


def test_distinct_seeds_give_distinct_streams():
    a = philox_generator(1, 7).integers(0, 1 << 62, size=64)
    b = philox_generator(2, 7).integers(0, 1 << 62, size=64)
    assert not np.array_equal(a, b)


def test_path_order_matters():
    a = philox_generator(9, 1, 2).integers(0, 1 << 62, size=64)
    b = philox_generator(9, 2, 1).integers(0, 1 << 62, size=64)
    assert not np.array_equal(a, b)


# _trial_keys: one vectorised pass of the SeedSequence hash per block of trials

SEEDS = (0, 13, 2**32 - 1, 2**32, 2**64 + 3)
POINTS = (0, 7, 2**33)
BLOCK = rng_module._KEY_BLOCK
# trial indices on both sides of the first and second block boundaries
CHECKED_TRIALS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("point", POINTS)
def test_trial_generators_match_seed_sequence_and_philox_generator(seed, point):
    # each trial's generator is its Philox key from _trial_keys and its
    # stream from trial_words; both must equal the philox_generator reference
    checked = 0
    for start in (0, BLOCK, 2 * BLOCK):
        keys = _trial_keys(seed, point, start, BLOCK)
        assert keys.shape == (BLOCK, 2) and keys.dtype == np.uint64
        doubles = (trial_words(seed, point, start, BLOCK, 5) >> np.uint64(11)) * 2.0**-53
        for t in CHECKED_TRIALS:
            if start <= t < start + BLOCK:
                key = np.random.SeedSequence(seed, spawn_key=(point, t)).generate_state(2, np.uint64)
                assert np.array_equal(keys[t - start], key), t
                ref = philox_generator(seed, point, t)
                assert np.array_equal(ref.bit_generator.state["state"]["key"], key), t
                assert np.array_equal(doubles[t - start], ref.random(5)), t
                checked += 1
    assert checked == len(CHECKED_TRIALS)


@pytest.mark.parametrize("trial", (2**32 - 1, 2**32, 2**32 + BLOCK + 5, 2**64 + 1))
def test_key_pass_matches_seed_sequence_for_multiword_trials(trial):
    # too far to iterate to, so the key pass gets the assembled entropy of
    # SeedSequence(5, spawn_key=(3, trial)) directly: seed padded to four words
    low, *high = rng_module._uint32_words(trial)
    entropy = [5, 0, 0, 0, 3, np.array([low], dtype=np.uint32), *high]
    ref = np.random.SeedSequence(5, spawn_key=(3, trial)).generate_state(2, np.uint64)
    assert np.array_equal(rng_module._philox_keys(entropy)[0], ref)


@pytest.mark.parametrize("args", [(-1, 0, 0, 3), (1, -1, 0, 3), (1, 0, -3, 3)])
def test_trial_generators_reject_negative_input(args):
    # a negative seed, point or trial index, through the key pass and the stream
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _trial_keys(*args)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        trial_words(*args, 4)


# trial_words: Philox4x64-10 on uint64 vectors, raw words bitwise equal to
# numpy's stream of each trial

MAX_WORDS = 12  # three counter blocks of four words


def raw_words(seed, point, trial, words):
    return philox_generator(seed, point, trial).bit_generator.random_raw(words)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("point", POINTS)
def test_trial_words_match_random_raw(seed, point):
    for start in (0, BLOCK):
        for words in range(1, MAX_WORDS + 1):
            got = trial_words(seed, point, start, BLOCK, words)
            assert got.shape == (BLOCK, words)
            for t in CHECKED_TRIALS:
                if start <= t < start + BLOCK:
                    ref = raw_words(seed, point, t, words)
                    assert np.array_equal(got[t - start], ref), (t, words)


@pytest.mark.parametrize("start", (2**32, 2**64 + 1))
def test_trial_words_for_multiword_trial_indices(start):
    got = trial_words(13, 7, start, 3, MAX_WORDS)
    for i in range(3):
        assert np.array_equal(got[i], raw_words(13, 7, start + i, MAX_WORDS)), i


def test_trial_words_reject_a_block_across_a_word_boundary_of_the_trial_index():
    with pytest.raises(ValueError, match="32-bit boundary"):
        trial_words(1, 0, 2**32 - 2, 3, 4)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**128 - 1),
    point=st.integers(0, 2**40 - 1),
    log_align=st.integers(0, 12),
    index=st.integers(0, 2**40),
    words=st.integers(1, MAX_WORDS),
    data=st.data(),
)
def test_trial_words_property(seed, point, log_align, index, words, data):
    size = data.draw(st.integers(1, min(2**log_align, 16)))
    start = index << log_align
    got = trial_words(seed, point, start, size, words)
    assert got.shape == (size, words)
    for i in range(size):
        assert np.array_equal(got[i], raw_words(seed, point, start + i, words)), i


@pytest.mark.parametrize("randoms", (1, 2, 3, 4, 5))
def test_raw_words_decode_to_doubles_and_fair_bits(randoms):
    """A double is (w >> 11) * 2**-53; integers(0, 2) reads bit 31 of the low, then the high half."""
    doubles, trials = 6, 40
    words = trial_words(2026, 1, 0, trials, doubles + -(-randoms // 2))
    got_doubles = (words[:, :doubles] >> np.uint64(11)) * 2.0**-53
    k = np.arange(randoms, dtype=np.uint64)
    got_bits = (words[:, doubles + k // 2] >> (31 + 32 * (k % 2))) & 1
    for t in range(trials):
        ref = philox_generator(2026, 1, t)
        assert np.array_equal(got_doubles[t], ref.random(doubles)), t
        assert got_bits[t].tolist() == [ref.integers(0, 2) for _ in range(randoms)], t
