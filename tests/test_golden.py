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

from mpcover import construct, covers, ladder
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


def _check_report(name, tmp_path):
    result = SURVEYS[name](tmp_path)
    report = json.dumps(result.to_json(timing=False), indent=2,
                        sort_keys=True) + "\n"
    with open(os.path.join(GOLDEN, name + ".json"), "rb") as fh:
        assert report.encode() == fh.read()


@pytest.mark.parametrize("name", sorted(SURVEYS))
def test_report_matches_golden(name, tmp_path):
    _check_report(name, tmp_path)


@pytest.mark.parametrize("name", ["compute_D-3-2-2", "gk_survey-3"])
def test_a_survey_builds_no_cover(name, tmp_path, monkeypatch):
    # the ladder verifies each class's winner as (color, mask) pieces, so a
    # survey gives its report with every Cover builder refusing to run
    def refuse(pieces):
        raise AssertionError(f"a survey built a Cover from {pieces!r}")

    for module in (construct, covers, ladder):
        monkeypatch.setattr(module, "cover_from_masks", refuse)
    _check_report(name, tmp_path)
