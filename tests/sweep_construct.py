"""Exhaustive construct sweep: every orbit leader of three larger shapes,
and a larger sample of colorings grown from the rare-case file.

Too slow for the tier-1 suite (about a minute), so it is named to stay out
of test discovery; run it with ``python -m pytest tests/sweep_construct.py``.
Each cover must pass ``verify_cover``, and the count of each pipeline case
that ends a run must match the counts a trusted commit produced.
"""

import pytest

from conftest import final_case_tally, grown_case_tally


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


def test_final_case_tally_over_grown_rare_cases():
    assert grown_case_tally(1, 20000) == {
        "spanning": 7567, "dominating-vertex": 1118, "double-stars": 9579,
        "layer2-peel": 378, "bridge-peel": 5, "cycle-blowup-split": 1353}
