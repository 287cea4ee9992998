"""Orbit-leader scans of larger shapes, pinned and cross-checked.

Too slow for the tier-1 suite (several seconds), so it is named to stay out
of test discovery; run it with ``python -m pytest tests/sweep_symmetry.py``.
Each pinned case is the leader count and the sha256 of the key sequence
(``conftest.scan_digest``) that a trusted commit's scan produced, for the
full scan and for fixed ``[lo, hi)`` windows of it: three each for
``[4,3,2]`` and ``[3,3,3]``, one each for ``[4,4,1]`` and ``[2,2,2,1]``.  Every leader of
``[2,2,2,2]`` is checked to be its own ``canonical_key``, a search that
builds no group.
"""

import pytest

from conftest import scan_digest
from mpcover.graphs import EdgeColoring, build_shape
from mpcover.symmetry import canonical_classes, canonical_key, symmetry_group

CASES = {
    (4, 3, 2): [
        (0, 1 << 26, 152460,
         "b715be281c428908310e21bc4b08b8554cef67b3cfd3523e7152e4b9e71394a2"),
        (0, 1000003, 34629,
         "24bb6c7eafc81f329d3d26cb50d3248e5d959626c786a2377ad861d0427f75dc"),
        (2372454, 2579283, 25411,
         "acf3a7466f274945f4828fa43a282cb1cdce717947a19a71dfca5b754709d087"),
        (15000000, 1 << 26, 428,
         "6227318cea8a1e81cb4da0c7f3ab6c8858dcee2a1ec6d59baf2b508b6e3f52b5"),
    ],
    (3, 3, 3): [
        (0, 1 << 27, 61872,
         "6755fb7f70af5390b0bc0b32b04e4939da373d27ef51060eb6fe5b39b719cf04"),
        (0, 2000003, 16783,
         "f450131bd685ffb82866b93b13767d3f119a73ff4227e003b2932ed4e47e17e3"),
        (2177838, 2401983, 10313,
         "1188a182434b0ee1014c5978256398e58d8af64eeae1a6eb2b9a0f8b36a36d8a"),
        (19516813, 1 << 27, 100,
         "5e6346e65abab2317639b2f6d0fb5489658ab27fc06ca5fac6a878483694d834"),
    ],
    # size-1 parts: the scan's tail width counts the edges of the rows past
    # part 0, which a part of size 1 makes short
    (4, 4, 1): [
        (0, 1 << 24, 11703,
         "25ca129940498999c82202f275829aa4f52b0c0a381d95f3de422ea146d4f354"),
        (103883, 646500, 3900,
         "e515fced5d22145c7f18250f37ce2dc32cc3ecab8dfc4a59eb5e5046ce205bc3"),
    ],
    (2, 2, 2, 1): [
        (0, 1 << 18, 3236,
         "c129a6ce97a7d282f4385cda4a5e8319560e4c261577a0bd48ef2ed653fd8bd8"),
        (7950, 18613, 1078,
         "9eceda588dbbb657e2062e5b1feca96067456b3dd54526c8189d557a63e521a7"),
    ],
}

_GROUPS = {}


@pytest.mark.parametrize("sizes, lo, hi, leaders, sha256", [
    (sizes, *case) for sizes, cases in CASES.items() for case in cases])
def test_key_sequence_matches_pinned_digest(sizes, lo, hi, leaders, sha256):
    if sizes not in _GROUPS:
        shape = build_shape(sizes)
        _GROUPS[sizes] = shape, symmetry_group(shape)
    shape, group = _GROUPS[sizes]
    assert hi <= 1 << shape.m
    assert scan_digest(shape, group, lo, hi) == {"leaders": leaders,
                                                 "sha256": sha256}


def test_every_leader_of_2222_is_its_own_canonical_key():
    shape = build_shape([2, 2, 2, 2])
    leaders = [bits for _, bits in canonical_classes(shape, symmetry_group(shape))]
    assert [canonical_key(EdgeColoring(shape, b)) for b in leaders] == leaders
    assert len(set(leaders)) == len(leaders) == 24607
