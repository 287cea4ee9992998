"""The hand-entered adversarial colorings and their self-checks."""

import pytest

from mpcover.errors import InvalidParameter
from mpcover.families import (FIG4_LABELS, TranscriptionError, gen_fig4,
                              gen_thm31, parse_family, thm31_labels)
from mpcover.graphs import BLUE, INF, RED, color_diameter, color_distance
from mpcover.ladder import cover_exists


def test_thm31_shape_and_counts():
    chi = gen_thm31(2)
    assert chi.shape.part_sizes == (5, 2, 2)
    assert chi.shape.m == 24
    assert chi.bits.bit_count() == 12  # half blue, half red for k=2


def test_thm31_labels_layout():
    lab = thm31_labels(2)
    assert [lab[f"a{i}"] for i in (1, 2, 3, 4)] == [0, 1, 2, 3]
    assert lab["c"] == 4
    assert [lab[f"b{i}"] for i in (1, 2, 3, 4)] == [5, 6, 7, 8]


def test_thm31_distance_facts():
    chi = gen_thm31(2)
    lab = thm31_labels(2)
    # the red graph misses c entirely, so the spanning red piece is dead
    assert max(chi.distances(RED)[lab["c"]]) >= INF
    assert color_diameter(chi, RED) >= INF
    assert color_distance(chi, RED, lab["a1"], lab["b1"]) == 3
    assert color_distance(chi, BLUE, lab["a1"], lab["b2"]) == 3


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
def test_thm31_self_checks_scale(k):
    chi = gen_thm31(k)  # generation already runs the transcription checks
    assert chi.shape.part_sizes == tuple([2 * k + 1] + [2] * k)


@pytest.mark.parametrize("k", [0, 1, -3])
def test_thm31_rejects_small_k(k):
    with pytest.raises(InvalidParameter):
        gen_thm31(k)


def test_fig4_shape_and_counts():
    chi = gen_fig4()
    assert chi.shape.part_sizes == (4, 3, 2)
    assert chi.bits.bit_count() == 12
    assert chi.shape.m - chi.bits.bit_count() == 14


def test_fig4_distance_facts():
    chi = gen_fig4()
    lab = FIG4_LABELS
    red_trio = [lab["v0"], lab["v1"], lab["v7"]]
    for i, u in enumerate(red_trio):
        for v in red_trio[i + 1:]:
            assert color_distance(chi, RED, u, v) == 3
    blue_trio = [lab["v2"], lab["v3"], lab["v6"]]
    for i, u in enumerate(blue_trio):
        for v in blue_trio[i + 1:]:
            assert color_distance(chi, BLUE, u, v) >= 3


def test_fig4_is_a_diameter_two_counterexample():
    chi = gen_fig4()
    assert not cover_exists(chi, 2, 2)
    assert cover_exists(chi, 2, 3)


def test_fig3_is_an_alias_for_k2():
    a, lab_a = parse_family("fig3")
    b, lab_b = parse_family("thm31:k=2")
    assert a.bits == b.bits and a.shape == b.shape
    assert lab_a == lab_b


def test_parse_family_dispatch_and_errors():
    chi, labels = parse_family("fig4")
    assert labels["v0"] == 0 and chi.shape.part_sizes == (4, 3, 2)
    chi, labels = parse_family("thm31:k=3")
    assert chi.shape.part_sizes == (7, 2, 2, 2)
    for bad in ("nope", "thm31:k=x", "thm31:k=1"):
        with pytest.raises(InvalidParameter):
            parse_family(bad)


def test_transcription_error_is_an_assertion():
    # a failed checksum should trip plain assert-style tooling too
    assert issubclass(TranscriptionError, AssertionError)
