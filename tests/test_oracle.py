"""The survey's per-class answers on the large shapes, re-decided independently.

``conftest.oracle_min_cover_d`` decides a class's minimal cover diameter from
a plain BFS over vertex lists, with none of the engine's kernels (``_balls``,
``_grow``, ``diameter_at_most``).  ``conftest.check_against_oracle`` asks it
for classes of the shapes whose D the surveys establish: a seeded sample of
leaders, each shape's D witness, and every ``[4,3,2]`` class with no d = 2
cover.  ``tests/sweep_oracle.py`` runs the same check on larger samples.
"""

import pytest

from conftest import check_against_oracle, sampled_leaders
from mpcover.graphs import build_shape


@pytest.mark.parametrize("sizes", [(3, 3, 3), (4, 3, 2), (2, 2, 2, 2)])
def test_sampled_leaders_agree_with_the_oracle(sizes):
    shape, leaders = sampled_leaders(sizes, 100, seed=20)
    for bits in leaders:
        check_against_oracle(shape, bits)


# Each shape's D witness (``compute_D(sizes).witness_bits``): D = 2, 3, 2.
# The [4,3,2] list holds all 7 of its 152 460 classes whose minimal d is 3,
# found by one full survey of that shape; the first is its D witness.
PINNED = {
    (3, 3, 3): [0x0],
    (2, 2, 2, 2): [0xc00000],
    (4, 3, 2): [0x1d9ba80, 0x1d7ce80, 0x285f990, 0x275d444, 0x35aba44,
                0x15afa44, 0x15dd644],
}


@pytest.mark.parametrize("sizes", sorted(PINNED))
def test_pinned_classes_agree_with_the_oracle(sizes):
    shape = build_shape(sizes)
    for bits in PINNED[sizes]:
        check_against_oracle(shape, bits)
