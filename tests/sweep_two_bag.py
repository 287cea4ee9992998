"""Two-bag search output on every orbit leader of two larger shapes.

Too slow for the tier-1 suite (about a minute), so it is named to stay out
of test discovery; run it with ``python -m pytest tests/sweep_two_bag.py``.
Each case is the sha256 of ``repr(two_bag_cover(chi, d))`` over the shape's
orbit leaders (``conftest.two_bag_digest``) that a trusted commit's search
produced, so a change to the search that moves one returned piece fails.
"""

import pytest

from conftest import two_bag_digest


@pytest.mark.parametrize("sizes, d, sha256", [
    pytest.param(
        (3, 3, 3), 2,
        "c14dedfcb76e59ae80598433bea40306773049854d3217891bf152ce32bf4fe5",
        id="3-3-3-d2"),
    pytest.param(
        (3, 3, 3), 3,
        "1e1d9cb368d4a4555c02219676a70780e996cde5ecf0d560eb5a5a83ae004df9",
        id="3-3-3-d3"),
    pytest.param(
        (4, 3, 2), 2,
        "bc65c2c600019519e7e0ccb7946be326820a975b5d7a1867914b5bf6c8f770b4",
        id="4-3-2-d2"),
    pytest.param(
        (4, 3, 2), 3,
        "c8c3593a40ec506f2afb1ee9770a2f9d8671d931e5e53dfcc36971764f174ce2",
        id="4-3-2-d3"),
])
def test_two_bag_output_matches_pinned_digest(sizes, d, sha256):
    assert two_bag_digest(sizes, d) == sha256
