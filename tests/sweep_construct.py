"""Exhaustive construct sweep: every orbit leader of three larger shapes.

Too slow for the tier-1 suite (about half a minute), so it is named to stay
out of test discovery; run it with ``python -m pytest tests/sweep_construct.py``.
Each cover must pass ``verify_cover``, and the count of each pipeline case
that ends a run must match the counts a trusted commit produced.
"""

import pytest

from conftest import final_case_tally


@pytest.mark.parametrize("sizes, tally", [
    ([5, 2, 2], {"spanning": 12085, "dominating-vertex": 4493,
                 "cycle-blowup-split": 1}),
    ([4, 3, 2], {"spanning": 134578, "dominating-vertex": 17864,
                 "double-stars": 14, "cycle-blowup-split": 3,
                 "layer2-peel": 1}),
    ([3, 3, 3], {"spanning": 58759, "dominating-vertex": 3095,
                 "double-stars": 18}),
])
def test_final_case_tallies_over_orbit_leaders(sizes, tally):
    assert final_case_tally(sizes) == tally
