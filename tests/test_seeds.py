"""The engine's seeds against numpy's own SeedSequence: seed_states hashes a
whole chunk's rows at once and must give numpy's state words, and so numpy's
generators, byte for byte."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmwavelink import (ChannelConfig, DecodeReport, Modulation, OfdmConfig, PhaseNoiseConfig,
                        frame_bits_rng, frame_capacity_bits, run_frame, run_frames,
                        training_bins)
from mmwavelink.channel import seed_states, seeded_generators

WORD = st.one_of(st.sampled_from([0, 1, 2**32 - 1]), st.integers(0, 2**32 - 1))
# An entropy int of one to three words, or a sequence of one to eight words.
ENTROPY = st.one_of(st.integers(0, 2**96 - 1), st.lists(WORD, min_size=1, max_size=8))
SPAWN_KEY = st.one_of(st.just(()), st.lists(st.one_of(WORD, st.integers(0, 2**64)),
                                            min_size=1, max_size=3).map(tuple))


def numpy_state(entropy, spawn_key, n_words):
    return np.random.SeedSequence(entropy, spawn_key=spawn_key).generate_state(
        n_words, np.uint64)


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(st.tuples(ENTROPY, SPAWN_KEY), min_size=1, max_size=6),
       n_words=st.sampled_from([1, 4]))
def test_seed_states_equal_numpy_seed_sequence(rows, n_words):
    # Rows of different entropy lengths, hashed in groups, keep their order.
    entropy, keys = zip(*rows)
    got = seed_states(entropy, n_words, keys)
    assert got.dtype == np.uint64 and got.shape == (len(rows), n_words)
    for row, (e, key) in zip(got, rows):
        assert row.tobytes() == numpy_state(e, key, n_words).tobytes()
        if not key:
            assert row.tobytes() == seed_states([e], n_words)[0].tobytes()


@settings(max_examples=40, deadline=None)
@given(rows=st.lists(st.tuples(ENTROPY, SPAWN_KEY), min_size=1, max_size=4))
def test_seeded_generators_draw_as_default_rng(rows):
    entropy, keys = zip(*rows)
    for rng, (e, key) in zip(seeded_generators(entropy, keys), rows):
        expect = np.random.default_rng(np.random.SeedSequence(e, spawn_key=key))
        assert rng.standard_normal(5).tobytes() == expect.standard_normal(5).tobytes()
        assert rng.integers(0, 2, 40, dtype=np.uint8).tobytes() == \
            expect.integers(0, 2, 40, dtype=np.uint8).tobytes()


@pytest.mark.parametrize("run_seed", [0, 5, 2**32, 2**64 + 5, 2**130 + 7])
@pytest.mark.parametrize("frame", [0, 7, 2**32 - 1, 2**32])
def test_derived_seed_and_frame_bits_equal_numpy(run_seed, frame):
    state = np.random.SeedSequence([run_seed, frame, 0]).generate_state(1, np.uint64)
    # Frame `frame`'s channel seed: the first word of its (run_seed, frame, 0) state.
    assert seed_states([(run_seed, frame, 0)], 1)[0, 0] == state[0]
    expect = np.random.default_rng(np.random.SeedSequence([run_seed, frame, 1]))
    assert frame_bits_rng(run_seed, frame).integers(0, 2**63, 4).tolist() == \
        expect.integers(0, 2**63, 4).tolist()


def test_seed_entropy_is_checked_as_numpy_checks_it():
    for entropy, error in [(-1, ValueError), ([3, -1], ValueError), (1.5, TypeError),
                           ("0x10", TypeError), (None, TypeError)]:
        with pytest.raises(error):
            seed_states([entropy], 1)
    with pytest.raises(ValueError):
        seed_states([1, 2], 1, [(0,)])   # one spawn key per row
    assert seed_states([], 4).shape == (0, 4)


def assert_same_row(stack, f, single):
    """Row f of a FrameStack equals the one row of `single`, byte for byte."""
    pairs = [(getattr(stack.report, field.name), getattr(single.report, field.name))
             for field in dataclasses.fields(DecodeReport)]
    pairs += [(getattr(stack, name), getattr(single, name))
              for name in ("tx_bits", "theta_est", "theta_true_bodies")]
    for a, b in pairs:
        if a is None or b is None:
            assert a is None and b is None
        else:
            assert np.asarray(a[f]).tobytes() == np.asarray(b[0]).tobytes()


def test_stack_across_frame_two_to_the_32_equals_frames_alone():
    # Frame indices 2**32 - 2 .. 2**32 + 1: the first two have one word, the
    # last two two words, so the chunk's entropy rows hash in two groups.
    cfg = OfdmConfig(64, 3, 26, 16)
    channel = ChannelConfig(taps=(1.0, 0.3 + 0.2j, 0.1), snr_db=30.0,
                            phase_noise=PhaseNoiseConfig(sigma=0.26))
    frames = range(2**32 - 2, 2**32 + 2)
    stack = run_frame(Modulation.QPSK, cfg, channel, True, 2, 21, frames)
    capacity = frame_capacity_bits(cfg, Modulation.QPSK, 2)
    for f, i in enumerate(frames):
        bits = frame_bits_rng(21, i).integers(0, 2, capacity, dtype=np.uint8)
        assert_same_row(stack, f, run_frames([bits], Modulation.QPSK, cfg, channel, True,
                                             2, 21, i))


def test_run_frame_builds_no_seed_sequence(monkeypatch):
    # Counts every SeedSequence the package could build: one of its own, or
    # one numpy builds inside default_rng or PCG64 from a seed that is not
    # already a generator or a hashed seed.
    built = []

    def counted(name, builds):
        original = getattr(np.random, name)

        def wrapper(*args, **kwargs):
            if builds(*args):
                built.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(np.random, name, wrapper)

    counted("SeedSequence", lambda *args: True)
    counted("default_rng", lambda seed=None: not isinstance(seed, np.random.Generator))
    counted("PCG64", lambda seed=None: not isinstance(
        seed, np.random.bit_generator.ISeedSequence))
    np.random.PCG64(np.random.SeedSequence(3))
    np.random.default_rng(3)
    assert built == ["SeedSequence", "default_rng"]   # the counters see numpy's calls
    # The training tones' one generator per PHY, built and cached by this call.
    cfg = OfdmConfig(64, 0, 26, 16)
    training_bins(cfg)
    built.clear()
    channel = ChannelConfig(taps=(1.0, 0.2), phase_noise=PhaseNoiseConfig(sigma=0.26))
    stack = run_frame(Modulation.QAM64, cfg, channel, False, 2, 5, range(16, 32))
    assert len(stack.tx_bits) == 16 and built == []
