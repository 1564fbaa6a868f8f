import numpy as np
import pytest

from tecsim import rng as rng_module
from tecsim.rng import philox_generator, trial_generators


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


# trial_generators: one vectorised key pass per sweep point, streams bitwise
# identical to the philox_generator reference

SEEDS = (0, 13, 2**32 - 1, 2**32, 2**64 + 3)
POINTS = (0, 7, 2**33)
BLOCK = rng_module._KEY_BLOCK
# trial indices on both sides of the first and second block boundaries
CHECKED_TRIALS = (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK - 1, 2 * BLOCK)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("point", POINTS)
def test_trial_generators_match_seed_sequence_and_philox_generator(seed, point):
    trials = 2 * BLOCK + 1
    checked = 0
    for t, gen in enumerate(trial_generators(seed, point, trials)):
        if t in CHECKED_TRIALS:
            key = np.random.SeedSequence(seed, spawn_key=(point, t)).generate_state(2, np.uint64)
            assert np.array_equal(gen.bit_generator.state["state"]["key"], key), t
            ref = philox_generator(seed, point, t)
            assert np.array_equal(gen.random(5), ref.random(5)), t
            assert np.array_equal(gen.integers(0, 2, size=9), ref.integers(0, 2, size=9)), t
            checked += 1
    assert t == trials - 1
    assert checked == len(CHECKED_TRIALS)


@pytest.mark.parametrize("trial", (2**32 - 1, 2**32, 2**32 + BLOCK + 5, 2**64 + 1))
def test_key_pass_matches_seed_sequence_for_multiword_trials(trial):
    # too far to iterate to, so the key pass gets the assembled entropy of
    # SeedSequence(5, spawn_key=(3, trial)) directly: seed padded to four words
    low, *high = rng_module._uint32_words(trial)
    entropy = [5, 0, 0, 0, 3, np.array([low], dtype=np.uint32), *high]
    ref = np.random.SeedSequence(5, spawn_key=(3, trial)).generate_state(2, np.uint64)
    assert np.array_equal(rng_module._philox_keys(entropy)[0], ref)


def test_trial_generators_rekey_after_partial_buffer_use():
    # a draw that leaves Philox's output buffer half used must not leak into
    # the next trial's stream
    gens = trial_generators(4, 2, 3)
    next(gens).integers(0, 2)
    for t, gen in enumerate(gens, start=1):
        ref = philox_generator(4, 2, t)
        assert np.array_equal(gen.integers(0, 1 << 62, size=7), ref.integers(0, 1 << 62, size=7))


def test_trial_generators_zero_trials_yields_nothing():
    assert list(trial_generators(1, 0, 0)) == []


@pytest.mark.parametrize("args", [(-1, 0, 3), (1, -1, 3), (1, 0, -3)])
def test_trial_generators_reject_negative_input(args):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        next(trial_generators(*args))
