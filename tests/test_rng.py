"""Keyed-stream plumbing: determinism, separation, and basic uniformity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre.rng import _GOLDEN, _U64_MASK, _mix64_int, counter_bits, counter_uniforms, generator, mix64, stream_key


def test_mix64_scalar_and_array_agree():
    xs = np.arange(16, dtype=np.uint64)
    mixed = mix64(xs)
    for i, x in enumerate(xs):
        assert mixed[i] == mix64(int(x))


def test_mix64_changes_many_bits():
    a = int(mix64(1))
    b = int(mix64(2))
    assert a != b
    assert bin(a ^ b).count("1") >= 16


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2 ** 64 - 1))
def test_python_int_finalizer_equals_mix64(x):
    assert _mix64_int(x) == int(mix64(x))


def test_finalizer_matches_published_splitmix64():
    # the first three outputs of splitmix64 seeded with 0, as published; its
    # output k (from 0) finalizes (k + 1) GOLDEN, and _mix64_int adds one GOLDEN
    published = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
    for k, value in enumerate(published):
        assert _mix64_int(k * _GOLDEN & (2**64 - 1)) == value


@pytest.mark.parametrize("parts,key", [
    ((0, "env", 5), 0x846C7640C43D6D6E),
    ((11, "env", -3), 0x7245BBA7DDD52BF2),
    ((2 ** 70, "census", 10 ** 5, 7), 0xB94C0D4CD8CCE109),
    ((3, "census", b"blk", -9), 0xC6D1871087E9219A),
    (("tau", bytes(range(9)), "xyz", 2 ** 64 - 1), 0x6B3FF3675570F92E),
])
def test_stream_key_golden_values(parts, key):
    # keys name every random stream: a change here changes every report
    assert stream_key(*parts) == key


def test_stream_key_deterministic():
    assert stream_key(7, "tau", 100) == stream_key(7, "tau", 100)


def test_stream_key_order_sensitive():
    assert stream_key("a", "b") != stream_key("b", "a")
    assert stream_key(1, 2) != stream_key(2, 1)


def test_stream_key_does_not_collapse_concatenations():
    assert stream_key("ab") != stream_key("a", "b")
    assert stream_key("tau", 12) != stream_key("tau12")


def test_stream_key_accepts_mixed_part_types():
    key = stream_key(3, "census", b"blk", -9)
    assert 0 <= key < 2**64


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.integers(-2**63, 2**63 - 1), st.text(max_size=12)),
                min_size=1, max_size=5))
def test_stream_key_stays_in_uint64_range(parts):
    key = stream_key(*parts)
    assert 0 <= key < 2**64


def test_counter_uniforms_window_consistency():
    key = stream_key(11, "env", 0)
    full = counter_uniforms(key, 0, 200)
    tail = counter_uniforms(key, 150, 50)
    np.testing.assert_array_equal(full[150:], tail)


def test_counter_uniforms_range_and_determinism():
    key = stream_key(5, "u")
    u1 = counter_uniforms(key, 0, 10_000)
    u2 = counter_uniforms(key, 0, 10_000)
    np.testing.assert_array_equal(u1, u2)
    assert np.all(u1 >= 0.0) and np.all(u1 < 1.0)


def test_counter_uniforms_distinct_keys_disagree():
    a = counter_uniforms(stream_key(5, "u"), 0, 64)
    b = counter_uniforms(stream_key(6, "u"), 0, 64)
    assert not np.array_equal(a, b)


def test_counter_bits_are_uint64():
    bits = counter_bits(stream_key(1), 0, 8)
    assert bits.dtype == np.uint64
    assert len(bits) == 8


def test_counter_uniform_moments():
    u = counter_uniforms(stream_key(2026, "moments"), 0, 200_000)
    n = len(u)
    assert abs(u.mean() - 0.5) < 4.0 * (1.0 / np.sqrt(12 * n))
    assert abs(u.var() - 1.0 / 12.0) < 0.002
    lag1 = np.corrcoef(u[:-1], u[1:])[0, 1]
    assert abs(lag1) < 0.01


def test_generator_reproducible_and_keyed():
    g1 = generator(stream_key(9, "gen"))
    g2 = generator(stream_key(9, "gen"))
    g3 = generator(stream_key(10, "gen"))
    a, b, c = g1.random(32), g2.random(32), g3.random(32)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("key", [0, 1, 0x846C7640C43D6D6E, 2**64 - 1])
def test_generator_is_pcg64_seeded_with_the_key(key):
    ours = generator(key)
    ref = np.random.Generator(np.random.PCG64(key & _U64_MASK))
    assert isinstance(ours.bit_generator, np.random.PCG64)
    np.testing.assert_array_equal(ours.random(8), ref.random(8))
    np.testing.assert_array_equal(ours.standard_gamma(0.7, 8), ref.standard_gamma(0.7, 8))
    np.testing.assert_array_equal(ours.poisson(3.5, 8), ref.poisson(3.5, 8))


@pytest.mark.parametrize("bit", [0, 1, 62, 63])
def test_generator_keys_one_bit_apart_start_apart(bit):
    key = stream_key(4, "env", 17)
    assert generator(key).random() != generator(key ^ (1 << bit)).random()


def test_generator_reads_the_key_modulo_2_64():
    key = stream_key(4, "env", 17)
    np.testing.assert_array_equal(generator(key + 2**64).random(16), generator(key).random(16))
