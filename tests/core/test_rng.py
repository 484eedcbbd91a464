"""Tests for repro.core.rng."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import EXPONENTIAL_BLOCK, RandomStreams


class TestRandomStreams:
    def test_same_seed_same_stream(self):
        a = RandomStreams(seed=7).get("x").random(5)
        b = RandomStreams(seed=7).get("x").random(5)
        assert (a == b).all()

    def test_different_names_differ(self):
        streams = RandomStreams(seed=7)
        a = streams.get("a").random(5)
        b = streams.get("b").random(5)
        assert not (a == b).all()

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).get("x").random(5)
        b = RandomStreams(seed=2).get("x").random(5)
        assert not (a == b).all()

    def test_stream_independent_of_creation_order(self):
        s1 = RandomStreams(seed=3)
        s1.get("first").random(100)  # consume another stream heavily
        value_after = s1.get("target").random()

        s2 = RandomStreams(seed=3)
        value_direct = s2.get("target").random()
        assert value_after == value_direct

    def test_get_returns_same_generator(self):
        streams = RandomStreams(seed=0)
        assert streams.get("x") is streams.get("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(seed=0).get("")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(seed=-1)

    def test_fork_is_deterministic(self):
        a = RandomStreams(seed=9).fork(3).get("x").random()
        b = RandomStreams(seed=9).fork(3).get("x").random()
        assert a == b

    def test_forks_differ_from_parent_and_each_other(self):
        parent = RandomStreams(seed=9)
        f0 = parent.fork(0).get("x").random()
        f1 = parent.fork(1).get("x").random()
        p = parent.get("x").random()
        assert len({f0, f1, p}) == 3

    def test_fork_negative_index_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(seed=0).fork(-1)

    def test_crc32_colliding_names_get_distinct_streams(self):
        # "plumless" and "buckeroo" share CRC32 0x4ddb0c25 — the classic
        # collision pair.  Under the old CRC32-keyed derivation they
        # silently shared one generator.
        import zlib

        assert zlib.crc32(b"plumless") == zlib.crc32(b"buckeroo")
        streams = RandomStreams(seed=7)
        a = streams.get("plumless").random(8)
        b = streams.get("buckeroo").random(8)
        assert not (a == b).all()

    def test_name_with_leading_nul_is_distinct(self):
        streams = RandomStreams(seed=7)
        a = streams.get("\x00x").random(8)
        b = streams.get("x").random(8)
        assert not (a == b).all()

    def test_crc32_colliding_fork_families_differ(self):
        # crc32(b"fork:3889:449") == crc32(b"fork:4279:2"), so the old
        # 32-bit fork derivation gave these two families the same seed.
        import zlib

        assert zlib.crc32(b"fork:3889:449") == zlib.crc32(b"fork:4279:2")
        a = RandomStreams(seed=3889).fork(449).get("x").random(8)
        b = RandomStreams(seed=4279).fork(2).get("x").random(8)
        assert not (a == b).all()

    def test_fork_of_fork_preserves_lineage(self):
        root = RandomStreams(seed=9)
        aa = root.fork(1).fork(2).get("x").random(8)
        ab = root.fork(2).fork(1).get("x").random(8)
        ba = root.fork(1).fork(1).get("x").random(8)
        assert not (aa == ab).all()
        assert not (aa == ba).all()

    def test_fork_reconstructible_from_integer_seed(self):
        # A forked family is fully described by its integer seed: a
        # worker process handed only `fork(i).seed` reproduces it.
        forked = RandomStreams(seed=9).fork(3)
        rebuilt = RandomStreams(seed=forked.seed)
        assert forked.get("x").random() == rebuilt.get("x").random()

    def test_names_lists_created_streams(self):
        streams = RandomStreams(seed=0)
        streams.get("b")
        streams.get("a")
        assert list(streams.names()) == ["a", "b"]

    def test_repr_mentions_seed(self):
        assert "seed=5" in repr(RandomStreams(seed=5))


class TestBlockDrawnExponentials:
    @settings(max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=2**63 - 1),
        scales=st.lists(
            st.floats(
                min_value=1e-6, max_value=1e12, allow_nan=False, allow_infinity=False
            ),
            min_size=1,
            max_size=8,
        ),
        draws=st.integers(
            min_value=EXPONENTIAL_BLOCK + 1, max_value=3 * EXPONENTIAL_BLOCK
        ),
    )
    def test_block_draws_equal_scalar_draws(self, seed, scales, draws):
        # The scale sequence cycles across more than one block, so every
        # run crosses at least one refill boundary.
        drawer = RandomStreams(seed=seed).exponentials("outages")
        scalar = RandomStreams(seed=seed).get("outages")
        for k in range(draws):
            scale = scales[k % len(scales)]
            assert drawer.draw(scale) == float(scalar.exponential(scale))

    def test_same_drawer_per_name(self):
        streams = RandomStreams(seed=0)
        assert streams.exponentials("x") is streams.exponentials("x")
        assert streams.exponentials("x") is not streams.exponentials("y")

    def test_get_refuses_a_block_drawn_name(self):
        streams = RandomStreams(seed=0)
        streams.exponentials("x")
        with pytest.raises(ValueError, match="block-drawn"):
            streams.get("x")

    def test_block_draw_refuses_a_name_from_get(self):
        streams = RandomStreams(seed=0)
        streams.get("x")
        with pytest.raises(ValueError, match="handed out by get"):
            streams.exponentials("x")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(seed=0).exponentials("")

    def test_names_include_block_drawn_streams(self):
        streams = RandomStreams(seed=0)
        streams.get("b")
        streams.exponentials("a")
        assert list(streams.names()) == ["a", "b"]
