"""The verification instance stream: pinned replay values, the declared
distribution, independence from draw order, and the block decode against
the per-index reference."""

import math

import pytest

from fedfair.egalitarian import bound_sweep
from fedfair.proportionality import verify_propstab
from fedfair.sampling import (BLOCK_SIZE, DRAWS, instance_groups, instance_rng,
                              random_instance)


def hex_instance(seed, index):
    params, coalition = random_instance(instance_rng(seed, index))
    return (
        params.mu_e.hex(),
        params.sigma_sq.hex(),
        [(p.id, p.n.hex()) for p in coalition.players],
    )


class TestReplay:
    """Instances are a fixed function of (seed, index): these values hold on
    every platform and Python version, and do not depend on numpy."""

    def test_first_instance_of_seed_42(self):
        assert hex_instance(42, 0) == (
            "0x1.e3cf89acc3320p+3",
            "0x1.5e0fa94a09710p+1",
            [
                ("p1", "0x1.9f2a52b90e218p+5"),
                ("p2", "0x1.8ffe488965249p+6"),
                ("p3", "0x1.7987caa895822p+6"),
                ("p4", "0x1.d84d5160aec48p+4"),
            ],
        )

    def test_last_instance_of_a_default_sweep(self):
        assert hex_instance(42, 9999) == (
            "0x1.97efd877e3e28p+3",
            "0x1.3561a7f4834bep+5",
            [
                ("p1", "0x1.cae3aa1df8dcdp+5"),
                ("p2", "0x1.65203886f5c38p+6"),
                ("p3", "0x1.23349438e8fc3p+6"),
            ],
        )

    def test_draws_are_unit_uniforms(self):
        draw = instance_rng(42, 0)
        assert len(draw) == DRAWS
        assert all(0.0 <= u < 1.0 for u in draw)

    def test_independent_of_draw_order(self):
        forward = [hex_instance(7, i) for i in range(50)]
        backward = [hex_instance(7, i) for i in reversed(range(50))]
        assert forward == backward[::-1]
        assert hex_instance(7, 31) == forward[31]

    def test_seed_and_index_both_matter(self):
        assert instance_rng(7, 1) != instance_rng(7, 2)
        assert instance_rng(7, 1) != instance_rng(8, 1)
        assert instance_rng(1, 0) != instance_rng(0, 1)

    @pytest.mark.parametrize("seed, index", [(-1, 0), (2**64, 0), (0, -1)])
    def test_out_of_range_seed_or_index_rejected(self, seed, index):
        with pytest.raises(ValueError, match="2\\*\\*64"):
            instance_rng(seed, index)

    def test_extreme_seeds_accepted(self):
        for seed in (0, 2**64 - 1):
            random_instance(instance_rng(seed, 0))


def test_distribution_over_20k_indices():
    """2 to 6 players, every count present; sizes in [1, 100); both
    constants in (0.01, 50]."""
    counts = set()
    for index in range(20_000):
        params, coalition = random_instance(instance_rng(2024, index))
        counts.add(len(coalition))
        assert all(1.0 <= p.n < 100.0 for p in coalition.players)
        assert 0.01 < params.mu_e <= 50.0
        assert 0.01 < params.sigma_sq <= 50.0
    assert counts == {2, 3, 4, 5, 6}



class TestSizeInvariant:
    """Every uniform is in [0, 1), so every size 1 + 99 u is a valid sample
    count in [1, 100); the sweeps' block decode relies on this and checks
    nothing."""

    def test_lowest_draw(self):
        params, coalition = random_instance((0.0,) * DRAWS)
        assert coalition.sizes() == (1.0, 1.0)
        assert params.mu_e == 50.0 and params.sigma_sq == 50.0

    def test_highest_draw(self):
        params, coalition = random_instance((1 - 2**-53,) * DRAWS)
        sizes = coalition.sizes()
        assert len(sizes) == 6
        assert all(math.isfinite(n) and n < 100.0 for n in sizes)
        assert params.mu_e > 0.01 and params.sigma_sq > 0.01


class TestBlockStream:
    """``instance_groups`` decodes each block of digests at once; instance
    by instance it must equal the per-index reference, bit for bit."""

    COUNT = 2049  # two full blocks and a partial block of one

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_groups_match_the_per_index_reference(self, seed):
        got, order = [], []
        for indices, mu_e, sigma_sq, *sizes in instance_groups(self.COUNT, seed):
            assert indices == sorted(indices)
            block = indices[0] // BLOCK_SIZE
            assert {index // BLOCK_SIZE for index in indices} == {block}
            assert all(len(c) == len(indices) for c in (mu_e, sigma_sq, *sizes))
            order.append((block, len(sizes)))
            for i, index in enumerate(indices):
                row = [n[i].hex() for n in sizes]
                got.append((index, mu_e[i].hex(), sigma_sq[i].hex(), row))
        want = []
        for index in range(self.COUNT):
            params, coalition = random_instance(instance_rng(seed, index))
            row = [n.hex() for n in coalition.sizes()]
            want.append((index, params.mu_e.hex(), params.sigma_sq.hex(), row))
        assert order == sorted(set(order))  # blocks in turn, each by player count
        assert sorted(got) == want

    @pytest.mark.parametrize("sweep", [bound_sweep, verify_propstab])
    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_sweeps_reject_the_seed_as_the_reference_does(self, sweep, seed):
        with pytest.raises(ValueError, match="2\\*\\*64") as reference:
            instance_rng(seed, 0)
        with pytest.raises(ValueError) as swept:
            sweep(10, seed)
        assert str(swept.value) == str(reference.value)
