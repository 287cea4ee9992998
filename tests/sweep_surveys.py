"""Survey reports of the two largest tripartite shapes, pinned to golden/.

Too slow for the tier-1 suite (about half a minute), so it is named to stay
out of test discovery; run it with ``python -m pytest tests/sweep_surveys.py``.
``[3,3,3]`` and ``[4,3,2]`` send the most classes to the two-bag search, so
they are where its hints act most.  Each report must equal the file a
trusted commit wrote (``test_golden.py`` has the format), at threads 1 and 2.
"""

import json
import os

import pytest

from mpcover.search import compute_D

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("sizes", [(3, 3, 3), (4, 3, 2)],
                         ids=["3-3-3", "4-3-2"])
def test_report_matches_golden(sizes, threads):
    result = compute_D(list(sizes), threads=threads)
    report = json.dumps(result.to_json(timing=False), indent=2,
                        sort_keys=True) + "\n"
    name = "compute_D-" + "-".join(map(str, sizes)) + ".json"
    with open(os.path.join(GOLDEN, name), "rb") as fh:
        assert report.encode() == fh.read()
