"""Survey reports must stay byte-identical to the ones stored in golden/.

Each file is ``compute_D(...).to_json()`` (or ``gk_survey``), written with
``json.dumps(..., indent=2, sort_keys=True)`` and a final newline, the same
form the benchmark compares.  A speed-up that changes one byte of a report
fails here.  To add a case, write its report from a commit whose output is
trusted, and never regenerate a file to make a failing run pass.
"""

import json
import os

import pytest

from mpcover.search import compute_D, gk_survey

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

SURVEYS = {
    "compute_D-3-2-2": lambda tmp: compute_D([3, 2, 2]),
    "compute_D-4-2-2": lambda tmp: compute_D([4, 2, 2]),
    "compute_D-3-3-1": lambda tmp: compute_D([3, 3, 1]),
    "compute_D-2-2-2-1": lambda tmp: compute_D([2, 2, 2, 1]),
    "compute_D-3-2-2-noprune": lambda tmp: compute_D([3, 2, 2], prune=False),
    "gk_survey-3": lambda tmp: gk_survey(
        3, checkpoint_path=str(tmp / "cp.json")),
}


@pytest.mark.parametrize("name", sorted(SURVEYS))
def test_report_matches_golden(name, tmp_path):
    result = SURVEYS[name](tmp_path)
    report = json.dumps(result.to_json(timing=False), indent=2,
                        sort_keys=True) + "\n"
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
        assert report.encode() == fh.read()
