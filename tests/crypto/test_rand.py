"""The message-order shuffle: one CSPRNG draw, every order equally likely."""

import itertools
import os
from collections import Counter

from repro.analysis.statistics import chi_square_sf
from repro.crypto import rand
from repro.crypto.rand import shuffled

DRAWS = 24_000


def test_every_permutation_of_four_is_equally_likely():
    items = ("a", "b", "c", "d")
    orders = list(itertools.permutations(items))
    seen = Counter(tuple(shuffled(items)) for _ in range(DRAWS))
    assert set(seen) == set(orders)
    expected = DRAWS / len(orders)
    statistic = sum(
        (seen[order] - expected) ** 2 / expected for order in orders
    )
    assert chi_square_sf(statistic, len(orders) - 1) > 1e-6


def test_one_urandom_call_per_shuffle(monkeypatch):
    calls = []
    draw = os.urandom

    def urandom(size):
        calls.append(size)
        return draw(size)

    monkeypatch.setattr(rand.os, "urandom", urandom)
    assert sorted(shuffled(range(100))) == list(range(100))
    assert calls == [16 * 100]


def test_input_is_left_alone_and_any_iterable_works():
    items = [3, 1, 2]
    assert sorted(shuffled(items)) == [1, 2, 3]
    assert items == [3, 1, 2]
    assert shuffled([]) == []
    assert sorted(shuffled(iter("xyz"))) == ["x", "y", "z"]
