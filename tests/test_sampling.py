"""The seeded generators: bad sizes are refused by name before any draw, and
valid draws are the ones recorded before those checks existed."""

from __future__ import annotations

import numpy as np
import pytest

from toposq.sampling import random_context, random_projection


@pytest.mark.parametrize(
    "dim, rank, message",
    [
        (3, 5, "need 0 <= rank <= dim, got rank 5 and dim 3"),
        (3, -1, "need 0 <= rank <= dim, got rank -1 and dim 3"),
        (3, 1.5, "rank must be an integer, got 1.5"),
        (3, 2.0, "rank must be an integer, got 2.0"),
        (3, True, "rank must be an integer, got True"),
        (1, None, "a random rank needs dimension >= 2, got 1"),
        (0, None, "a random rank needs dimension >= 2, got 0"),
    ],
)
def test_random_projection_rejects_bad_rank_before_drawing(dim, rank, message):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=message):
        random_projection(dim, rng, rank=rank)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("n_atoms", [2.5, 3.0, True, "3"])
def test_random_context_rejects_non_integer_atom_count_before_drawing(n_atoms):
    rng = np.random.default_rng(3)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"n_atoms must be an integer, got {n_atoms!r}"):
        random_context(4, rng, n_atoms=n_atoms)
    assert rng.bit_generator.state == state


def test_valid_draws_are_unchanged():
    rng = np.random.default_rng(3)
    cases = ((3, None), (4, None), (3, 0), (3, 3), (4, np.int64(2)), (5, None))
    out = [random_projection(dim, rng, rank=rank) for dim, rank in cases]
    assert [p.rank for p in out] == [2, 1, 0, 3, 2, 4]
    assert [round(float(p.matrix[0, 1].real), 12) for p in out] == [
        -0.044830257974, -0.188246487783, 0.0, 0.0, 0.140670951996, -0.00264651542,
    ]
    assert random_context(4, rng, n_atoms=np.int64(3)).id == "0ae49f80906e2730"
