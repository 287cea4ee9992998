"""Ladder decisions on every orbit leader of four shapes.

``[3,3,3]`` and ``[4,3,2]`` are the larger survey shapes; ``[5,2,2]`` and
``[2,2,2,2]`` are the benchmark's, whose parts of size 2 reach the
far-clone and near-clone sites that need a second clone pair.  Too slow for
the tier-1 suite (about a minute), so it is named to stay out of test
discovery; run it with ``python -m pytest tests/sweep_ladder.py``.
Each case is the sha256 of ``repr((label, pieces))`` of ``ladder._decide``
over the shape's orbit leaders, with the prune rules on or off
(``conftest.decide_digest``), that a trusted commit's ladder produced, so a
change that moves one deciding rule or one returned piece fails.
"""

import pytest

from conftest import decide_digest


@pytest.mark.parametrize("sizes, d, prune, sha256", [
    pytest.param(
        (3, 3, 3), 2, True,
        "f9afb2638a5d7c54ab87ae709dff165eda44fe4cb7117dfb0454b4c0e37bd694",
        id="3-3-3-d2-prune"),
    pytest.param(
        (3, 3, 3), 2, False,
        "f9afb2638a5d7c54ab87ae709dff165eda44fe4cb7117dfb0454b4c0e37bd694",
        id="3-3-3-d2"),
    pytest.param(
        (3, 3, 3), 3, True,
        "ada67486a8db71621c699303ab1ee0caa0ba87d156ceb37fbf5964cc4bcda782",
        id="3-3-3-d3-prune"),
    pytest.param(
        (3, 3, 3), 3, False,
        "ada67486a8db71621c699303ab1ee0caa0ba87d156ceb37fbf5964cc4bcda782",
        id="3-3-3-d3"),
    pytest.param(
        (4, 3, 2), 2, True,
        "ba4d3d8bcc02571baba948bf182469c4741011832bf7657f1f40f0fdcd9859db",
        id="4-3-2-d2-prune"),
    pytest.param(
        (4, 3, 2), 2, False,
        "cd7625bbfa3dd8a7f5d18edd2e1192e05c121d14ec0e9d71a27772112b8d0dc5",
        id="4-3-2-d2"),
    pytest.param(
        (4, 3, 2), 3, True,
        "10a3422ab97b41f393ae1bf6cc1cfeb33b6d86618277ed98ccf8e72403759973",
        id="4-3-2-d3-prune"),
    pytest.param(
        (4, 3, 2), 3, False,
        "8766058bddc661204f886be51e0c3715dbf41cff5c3b442fa6aa0b7c1a4ed940",
        id="4-3-2-d3"),
    pytest.param(
        (5, 2, 2), 2, True,
        "dd23b860a9bd3226a6913a94b8ff407769ea834c52b91dbee762ffedac9e2667",
        id="5-2-2-d2-prune"),
    pytest.param(
        (5, 2, 2), 2, False,
        "44fa6c26f18219688d6e59593d1f6ef7720c53f0bf0d32ecea5ea1bbcd0377a0",
        id="5-2-2-d2"),
    pytest.param(
        (5, 2, 2), 3, True,
        "93698727f2b14dc3ce1caa9ad6b3e3e816480bb91572b3d7d711a2198165ba68",
        id="5-2-2-d3-prune"),
    pytest.param(
        (5, 2, 2), 3, False,
        "5af58b86f8657167640448c61026f3817de1d6dc35d43242afba8ababeb0bb29",
        id="5-2-2-d3"),
    pytest.param(
        (2, 2, 2, 2), 2, True,
        "82d3ff7d60ff1d08c08bf37cd3045bf2b62dade9b7b2907a4fa91b6a361b79c2",
        id="2-2-2-2-d2-prune"),
    pytest.param(
        (2, 2, 2, 2), 2, False,
        "6af6e76cb9de83a4a95907099ea9589eff41a63a3236e4a12d1aaf511f035031",
        id="2-2-2-2-d2"),
    pytest.param(
        (2, 2, 2, 2), 3, True,
        "d49d8a0390885d6fd81d35677c5768ea60f62219b04dbe9a488a0b912f76b7f7",
        id="2-2-2-2-d3-prune"),
    pytest.param(
        (2, 2, 2, 2), 3, False,
        "2c7e6dff506bc1dc073095bc4f1bc91df94ebb2eb5bae76873e47ed310eb0f7b",
        id="2-2-2-2-d3"),
])
def test_ladder_decisions_match_pinned_digest(sizes, d, prune, sha256):
    assert decide_digest(sizes, d, prune) == sha256
