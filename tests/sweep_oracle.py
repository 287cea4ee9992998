"""The survey's per-class answers re-decided by the oracle on larger samples.

Too slow for the tier-1 suite (a few minutes), so it is named to stay out of
test discovery; run it with ``python -m pytest tests/sweep_oracle.py``.  The
check is ``conftest.check_against_oracle``, as in ``tests/test_oracle.py``:
2 000 seeded leaders each of three large shapes, and every orbit leader of
``[4,2,2]``.  Any disagreement fails.
"""

import pytest

from conftest import check_against_oracle, sampled_leaders
from mpcover.graphs import build_shape
from mpcover.symmetry import canonical_classes, symmetry_group


@pytest.mark.parametrize("sizes", [(3, 3, 3), (4, 3, 2), (2, 2, 2, 2)])
def test_sampled_leaders_agree_with_the_oracle(sizes):
    shape, leaders = sampled_leaders(sizes, 2000, seed=1)
    for bits in leaders:
        check_against_oracle(shape, bits)


def test_every_leader_of_4_2_2_agrees_with_the_oracle():
    shape = build_shape([4, 2, 2])
    leaders = [bits for _, bits in canonical_classes(shape, symmetry_group(shape))]
    assert len(leaders) == 4316
    for bits in leaders:
        check_against_oracle(shape, bits)
