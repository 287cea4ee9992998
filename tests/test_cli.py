"""End-to-end runs of the command-line surface via main(argv)."""

import contextlib
import copy
import functools
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_coloring
from mpcover import cli, construct, covers, search
from mpcover.cli import CONFIG_ERROR, OK, REFUTED, WORKER_LOST, main
from mpcover.covers import (cover_from_json, cover_from_masks, cover_to_json,
                            make_cover, verify_cover)
from mpcover.graphs import (RED, EdgeColoring, build_shape,
                            coloring_from_json, coloring_to_json)
from mpcover.search import SearchResult, compute_D, gk_survey


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def write_coloring(tmp_path, chi, name="chi.json"):
    path = tmp_path / name
    path.write_text(json.dumps(coloring_to_json(chi)))
    return str(path)


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_fig4(capsys):
    code, out, _ = run(capsys, "gen", "--family", "fig4")
    assert code == OK
    obj = json.loads(out)
    assert obj["parts"] == [4, 3, 2]
    assert "labels" in obj
    chi = coloring_from_json(obj)
    assert chi.n == 9


def test_gen_compact_round_trips(capsys):
    code, out, _ = run(capsys, "gen", "--family", "thm31:k=3", "--compact")
    assert code == OK
    obj = json.loads(out)
    assert "bits" in obj and "edges" not in obj
    assert coloring_from_json(obj).n == 13


def test_gen_bad_family_is_config_error(capsys):
    code, _, err = run(capsys, "gen", "--family", "nope")
    assert code == CONFIG_ERROR and "InvalidParameter" in err


def test_gen_to_file(tmp_path, capsys):
    out_path = tmp_path / "fam.json"
    code, out, _ = run(capsys, "gen", "--family", "fig3", "-o", str(out_path))
    assert code == OK and out == ""
    assert json.loads(out_path.read_text())["parts"] == [5, 2, 2]


# ---------------------------------------------------------------------------
# cover / verify / exists
# ---------------------------------------------------------------------------

def test_gen_cover_pipeline(tmp_path, capsys):
    fam = tmp_path / "fam.json"
    assert main(["gen", "--family", "thm31:k=2", "-o", str(fam)]) == OK
    capsys.readouterr()
    code, out, _ = run(capsys, "cover", "--input", str(fam), "--d", "3")
    assert code == OK
    obj = json.loads(out)
    assert obj["ok"] and obj["achieved_d"] <= 3
    chi = coloring_from_json(json.loads(fam.read_text()))
    cover = cover_from_json(obj["cover"])
    assert verify_cover(chi, cover, 3, 2) is None
    assert obj["trace"]["cases"], "the case trace must name the path taken"


def test_cover_two_parts_falls_back(tmp_path, capsys, rng):
    path = write_coloring(tmp_path, random_coloring(rng, [3, 2]))
    code, out, err = run(capsys, "cover", "--input", path)
    assert code == OK
    assert "falling back" in err
    obj = json.loads(out)
    assert obj["trace"]["cases"][0]["label"] == "two-part-fallback"
    assert obj["ok"]


def test_cover_two_parts_checks_the_requested_d(tmp_path, capsys):
    # the all-red K_{3,2} is one red piece of diameter 2, so d = 1 fails
    allred = EdgeColoring.all_same(build_shape([3, 2]), RED)
    path = write_coloring(tmp_path, allred)
    code, out, _ = run(capsys, "cover", "--input", path, "--d", "1")
    obj = json.loads(out)
    assert code == REFUTED
    assert obj["ok"] is False and obj["achieved_d"] == 2


@pytest.mark.parametrize("parts, bits, trace", [
    ([2, 2, 1], 5, {"cases": [
        {"label": "size-one-group-failed", "witnesses": [4]},
        {"label": "dominating-vertex-failed", "witnesses": [0, 2]},
        {"label": "no-far-root", "witnesses": []}]}),
    ([2, 2], 13, None),
], ids=["pipeline", "two-part-fallback"])
def test_an_exhausted_construction_exits_1_with_forensics(
        tmp_path, capsys, monkeypatch, parts, bits, trace):
    # every candidate rejected: a refutation (exit 1), never a config error
    monkeypatch.chdir(tmp_path)  # the forensics file lands in cwd
    monkeypatch.setattr(construct, "certifies_masks", lambda *args: False)
    chi = EdgeColoring(build_shape(parts), bits)
    code, out, err = run(capsys, "cover", "--input",
                         write_coloring(tmp_path, chi))
    assert code == REFUTED and out == ""
    assert "forensics in mpcover-exhausted.json" in err
    dump = json.loads((tmp_path / "mpcover-exhausted.json").read_text())
    assert coloring_from_json(dump["coloring"]).bits == bits
    assert dump["trace"] == trace


@pytest.mark.parametrize("mode", ["construct", "tc2"])
def test_an_exhausted_fuzz_construction_is_a_counted_violation(
        tmp_path, capsys, monkeypatch, mode):
    monkeypatch.chdir(tmp_path)  # reproducer files land in cwd
    monkeypatch.setattr(construct, "certifies_masks", lambda *args: False)
    code, out, _ = run(capsys, "fuzz", "--mode", mode, "--seed", "3",
                       "--n", "2")
    obj = json.loads(out)
    assert code == REFUTED
    assert obj["counters"] == {"exhausted": 2} and obj["violations"] == 2
    assert obj["reproducers"] == [f"mpcover-repro-{mode}-3-{i}.json"
                                  for i in range(2)]
    for path in obj["reproducers"]:
        assert "coloring" in json.loads((tmp_path / path).read_text())


def test_cover_single_part_is_config_error(tmp_path, capsys, rng):
    path = write_coloring(tmp_path, random_coloring(rng, [4]))
    code, _, err = run(capsys, "cover", "--input", path)
    assert code == CONFIG_ERROR and "no connected cover" in err


def test_verify_good_and_bad(tmp_path, capsys, rng):
    chi = random_coloring(rng, [2, 2, 2])
    cpath = write_coloring(tmp_path, chi)
    code, out, _ = run(capsys, "cover", "--input", cpath)
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(json.loads(out)["cover"]))
    code, out, _ = run(capsys, "verify", "--coloring", cpath,
                       "--cover", str(cover_path), "--d", "3", "--t", "2")
    assert code == OK and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "verify", "--coloring", cpath,
                       "--cover", str(cover_path), "--d", "0", "--t", "2")
    assert code == REFUTED
    assert "violation" in json.loads(out)


@pytest.mark.parametrize("command,flags", [
    ("verify", ("--t", "0", "--d", "2")),
    ("verify", ("--t", "2", "--d", "-1")),
    ("cover", ("--d", "-1")),
], ids=["verify-t-0", "verify-negative-d", "cover-negative-d"])
def test_bad_t_or_d_is_config_error(tmp_path, capsys, command, flags):
    chi = EdgeColoring.all_same(build_shape([2, 1]), RED)
    cpath = write_coloring(tmp_path, chi)
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cover_to_json(make_cover((RED, range(3))))))
    files = (("--coloring", cpath, "--cover", str(cover_path))
             if command == "verify" else ("--input", cpath))
    code, out, err = run(capsys, command, *files, *flags)
    assert code == CONFIG_ERROR and out == ""
    assert "InvalidParameter" in err


def test_verify_accepts_more_than_two_pieces(tmp_path, capsys):
    chi = EdgeColoring.all_same(build_shape([2, 1]), RED)
    cpath = write_coloring(tmp_path, chi)
    cover_path = tmp_path / "cover.json"
    cover_path.write_text(json.dumps(cover_to_json(make_cover(
        (RED, [0]), (RED, [1]), (RED, [2])))))
    code, out, _ = run(capsys, "verify", "--coloring", cpath,
                       "--cover", str(cover_path), "--d", "0", "--t", "3")
    assert code == OK and json.loads(out)["ok"] is True


def test_exists_fig4_tight_and_relaxed(tmp_path, capsys):
    fam = tmp_path / "fig4.json"
    assert main(["gen", "--family", "fig4", "-o", str(fam)]) == OK
    capsys.readouterr()
    code, out, _ = run(capsys, "exists", "--coloring", str(fam),
                       "--t", "2", "--d", "2")
    assert code == REFUTED and json.loads(out)["exists"] is False
    code, out, _ = run(capsys, "exists", "--coloring", str(fam),
                       "--t", "2", "--d", "3")
    assert code == OK
    obj = json.loads(out)
    chi = coloring_from_json(json.loads(fam.read_text()))
    assert verify_cover(chi, cover_from_json(obj["witness"]), 3, 2) is None


# ---------------------------------------------------------------------------
# compute-d / classify / gk
# ---------------------------------------------------------------------------

def test_compute_d_json_and_reruns_are_byte_identical(capsys):
    code, out1, _ = run(capsys, "compute-d", "--parts", "2,2,1")
    assert code == OK
    obj = json.loads(out1)
    assert obj["complete"] and obj["result"]["d"] == 2
    assert obj["result"]["seconds"] == 0
    code, out2, _ = run(capsys, "compute-d", "--parts", "2,2,1")
    assert out2 == out1


def test_compute_d_tsv(capsys):
    code, out, _ = run(capsys, "compute-d", "--parts", "2,2,1",
                       "--format", "tsv")
    assert code == OK
    lines = out.splitlines()
    assert lines[0] == SearchResult.TSV_HEADER
    assert lines[1].split("\t")[0] == "2,2,1"


def test_compute_d_resume_loop(tmp_path, capsys):
    code, straight, _ = run(capsys, "compute-d", "--parts", "2,2,1")
    cp = str(tmp_path / "cp.json")
    argv = ["compute-d", "--parts", "2,2,1", "--checkpoint", cp,
            "--stop-after", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == OK and json.loads(out)["complete"] is False
    for _ in range(200):
        code, out, _ = run(capsys, *argv)
        assert code == OK
        obj = json.loads(out)
        if obj["complete"]:
            break
    else:
        pytest.fail("resume loop never finished")
    assert obj["result"] == json.loads(straight)["result"]


_CHUNK_WORKER = search._chunk_worker


def _dying_chunk_worker(args):
    """The chunk worker, except that a range not starting at key 0 ends its
    process at once, as a SIGKILL would, with no exception to send back."""
    if args[7]:  # the range's cursor
        os._exit(1)
    return _CHUNK_WORKER(args)


def test_a_lost_pool_worker_exits_3_and_its_checkpoint_resumes(
        tmp_path, capfd, monkeypatch):
    cp = str(tmp_path / "cp.json")
    argv = ["compute-d", "--parts", "2,2,2", "--checkpoint", cp,
            "--checkpoint-every", "10"]
    code, clean, _ = run(capfd, *argv, "--threads", "1")
    assert code == OK
    os.remove(cp)
    monkeypatch.setattr(search, "_chunk_worker", _dying_chunk_worker)
    code, out, err = run(capfd, *argv, "--threads", "2")
    assert code == WORKER_LOST and out == ""
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert "WorkerLost" not in err and cp in err
    # with no checkpoint the line says that a rerun starts over
    code, out, err = run(capfd, *argv[:3], "--threads", "2")
    assert code == WORKER_LOST and out == ""
    assert "Traceback" not in err and len(err.splitlines()) == 1
    assert "no checkpoint" in err and "starts over" in err
    monkeypatch.undo()  # the inline chunks would end this process
    code, resumed, _ = run(capfd, *argv, "--threads", "1")
    assert code == OK and resumed == clean


def test_compute_d_stop_after_needs_checkpoint(capsys):
    code, out, err = run(capsys, "compute-d", "--parts", "2,2,1",
                         "--stop-after", "3")
    assert code == CONFIG_ERROR and out == ""
    assert "InvalidParameter" in err and "checkpoint" in err


def test_compute_d_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("MPCOVER_CAP_EDGES", "5")
    code, _, err = run(capsys, "compute-d", "--parts", "2,2,2")
    assert code == CONFIG_ERROR and "cap" in err.lower()


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", "--parts", "2,5,2")
    assert code == OK
    obj = json.loads(out)
    assert obj["d"] == 3 and obj["shape"] == [5, 2, 2]
    code, _, err = run(capsys, "classify", "--parts", "2,2")
    assert code == CONFIG_ERROR and "Unsupported" in err


def test_gk_smallest_survey(tmp_path, capsys):
    code, out, _ = run(capsys, "gk", "--k", "3",
                       "--checkpoint", str(tmp_path / "gk3.json"))
    assert code == OK
    obj = json.loads(out)
    assert obj["result"]["d"] == 2 and obj["result"]["shape"] == [2, 2, 2]


def test_gk_stopped_without_checkpoint_names_the_file_it_resumes(
        tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the derived checkpoint lands in cwd
    code, out, _ = run(capsys, "gk", "--k", "3", "--stop-after", "5")
    obj = json.loads(out)
    assert code == OK and obj["complete"] is False
    assert obj["config"]["checkpoint"] is None
    assert (tmp_path / obj["checkpoint"]).is_file()
    # a budget of 72 finishes the 76 classes only if the rerun resumes the file
    code, out, _ = run(capsys, "gk", "--k", "3", "--stop-after", "72")
    obj = json.loads(out)
    assert code == OK and obj["complete"] is True
    assert obj["result"]["classes_enumerated"] == 76
    assert obj["config"]["checkpoint"] is None


# ---------------------------------------------------------------------------
# ryser / fuzz / bad input
# ---------------------------------------------------------------------------

def test_ryser_chain(tmp_path, capsys, rng):
    path = write_coloring(tmp_path, random_coloring(rng, [2, 2, 1]))
    code, out, _ = run(capsys, "ryser", "--coloring", path)
    assert code == OK
    obj = json.loads(out)
    assert obj["ok"] and all(step["ok"] for step in obj["report"])


@pytest.mark.parametrize("mode,n", [("construct", 25), ("tc2", 25),
                                    ("prune", 25), ("equivalence", 10)])
def test_fuzz_modes_run_clean(mode, n, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # reproducer files land in cwd
    code, out, _ = run(capsys, "fuzz", "--mode", mode,
                       "--seed", "7", "--n", str(n))
    assert code == OK
    obj = json.loads(out)
    assert obj["violations"] == 0 and obj["reproducers"] == []
    assert sum(obj["counters"].values()) == n


def test_fuzz_prune_rechecks_without_verify_cover(tmp_path, capsys,
                                                  monkeypatch):
    # verify_cover is broken to pass every diameter, and the rules return a
    # cover whose first piece is two vertices of part 0 (disconnected):
    # only a re-check that does not use verify_cover can refuse it
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(covers, "diameter_at_most", lambda *args: True)

    def too_wide(chi, d):
        rest = chi.shape.full_mask & ~0b11
        cover = cover_from_masks([(RED, 0b11), (RED, rest)])
        assert covers.verify_cover(chi, cover, d, 2) is None
        return cover

    monkeypatch.setattr(cli, "prune_with_constructions", too_wide)
    code, out, _ = run(capsys, "fuzz", "--mode", "prune", "--seed", "1",
                       "--n", "3")
    assert code == REFUTED
    obj = json.loads(out)
    assert obj["counters"] == {"unverified-certificate": 3}
    assert obj["violations"] == 3 and len(obj["reproducers"]) == 3
    repro = json.loads((tmp_path / obj["reproducers"][0]).read_text())
    assert repro["cover"]["subgraphs"][0] == {"color": "red",
                                              "vertices": [0, 1]}


def test_fuzz_is_seed_deterministic(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, out1, _ = run(capsys, "fuzz", "--mode", "construct",
                     "--seed", "11", "--n", "15")
    _, out2, _ = run(capsys, "fuzz", "--mode", "construct",
                     "--seed", "11", "--n", "15")
    assert out1 == out2


def test_malformed_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "cover", "--input", str(bad))
    assert code == CONFIG_ERROR and "cannot read input" in err
    code, _, err = run(capsys, "cover", "--input",
                       str(tmp_path / "missing.json"))
    assert code == CONFIG_ERROR


@pytest.mark.parametrize("argv", [
    ("gen", "--family", "fig3", "-o", "{missing}/x.json"),
    ("cover", "--input", "{fig3}", "-o", "{missing}/x.json"),
    ("compute-d", "--parts", "2,2,1", "--checkpoint", "{missing}/cp.json"),
    ("gk", "--k", "3", "--checkpoint", "{missing}/cp.json"),
], ids=["gen-report", "cover-report", "compute-d-checkpoint", "gk-checkpoint"])
def test_a_failed_write_names_the_path_given(tmp_path, capsys, monkeypatch,
                                             argv):
    fig3 = tmp_path / "fig3.json"
    assert run(capsys, "gen", "--family", "fig3", "-o", str(fig3))[0] == OK
    decided = []

    def decide(*args):
        decided.append(args)
        return None, "none"

    monkeypatch.setattr(search, "_decide", decide)
    argv = [a.format(missing=tmp_path / "missing", fig3=fig3) for a in argv]
    code, out, err = run(capsys, *argv)
    # the path as given, also for a checkpoint written through a temp file
    assert code == CONFIG_ERROR and out == ""
    assert err.startswith(f"mpcover: cannot write {argv[-1]}: "), err
    # a checkpoint's directory is probed before any class is surveyed
    assert decided == []


def test_a_failed_reproducer_write_names_the_reproducer(tmp_path, capsys,
                                                        monkeypatch):
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)  # reproducers land in cwd, which then vanishes
    gone.rmdir()
    monkeypatch.setattr(cli, "_fuzz_one", lambda mode, rng, i: ("bad-cover", {}))
    code, _, err = run(capsys, "fuzz", "--mode", "prune", "--seed", "1",
                       "--n", "1")
    assert code == CONFIG_ERROR
    assert err.startswith("mpcover: cannot write mpcover-repro-prune-1-0.json: ")


GOOD_COLORING = {"parts": [2, 1], "bits": "0"}
GOOD_COVER = {"subgraphs": [{"color": "red", "vertices": [0, 1, 2]}]}
VERIFY = ("verify", "--coloring", "chi.json", "--cover", "cover.json",
          "--d", "2", "--t", "2")
# raw file contents that fail to decode before any JSON is parsed
NOT_UTF8 = b"\xff\xfe\x00{}"
TOO_DEEP = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize("files,argv", [
    ({"chi.json": {"parts": [2, 1], "bits": "zz"}, "cover.json": GOOD_COVER},
     VERIFY),
    ({"chi.json": {"parts": [2, 1], "bits": "-1"}, "cover.json": GOOD_COVER},
     VERIFY),
    ({"chi.json": {"parts": [2, 1], "edges": [[0, 2], [1, 2]]},
      "cover.json": GOOD_COVER}, VERIFY),
    ({"chi.json": GOOD_COLORING,
      "cover.json": {"subgraphs": [{"vertices": [0, 1, 2]}]}}, VERIFY),
    ({"cp.json": {"version": 1}},
     ("compute-d", "--parts", "2,2,1", "--checkpoint", "cp.json")),
    ({"chi.json": {"parts": [2.5, 1], "bits": "0"}, "cover.json": GOOD_COVER},
     VERIFY),
    ({"chi.json": GOOD_COLORING,
      "cover.json": {"subgraphs": [{"color": "red", "vertices": "012"}]}},
     VERIFY),
    ({}, ("compute-d", "--parts", "2,2,1", "--checkpoint", "cp.json",
          "--checkpoint-every", "0")),
    ({}, ("compute-d", "--parts", "2,2,1", "--checkpoint", "cp.json",
          "--checkpoint-every", "-5")),
    ({}, ("gk", "--k", "3", "--checkpoint-every", "0")),
    ({}, ("compute-d", "--parts", "2,2,1", "--checkpoint", "cp.json",
          "--stop-after", "0")),
    ({}, ("compute-d", "--parts", "2,2,1", "--checkpoint", "cp.json",
          "--stop-after", "-3")),
    ({}, ("compute-d", "--parts", "2,2,1", "--threads", "100000")),
    ({}, ("compute-d", "--parts", "2,2,1", "--threads", "0")),
    ({}, ("gk", "--k", "3", "--threads", "100000")),
    ({}, ("gk", "--k", "3", "--threads", "0")),
    ({"chi.json": NOT_UTF8, "cover.json": GOOD_COVER}, VERIFY),
    ({"chi.json": GOOD_COLORING, "cover.json": NOT_UTF8}, VERIFY),
    ({"chi.json": TOO_DEEP, "cover.json": GOOD_COVER}, VERIFY),
    ({"chi.json": b'{"parts": [' + b"1" * 5000 + b'], "bits": "0"}',
      "cover.json": GOOD_COVER}, VERIFY),
    ({"cp.json": TOO_DEEP},
     ("compute-d", "--parts", "2,2,1", "--checkpoint", "cp.json")),
    ({"cp.json": NOT_UTF8},
     ("compute-d", "--parts", "2,2,1", "--checkpoint", "cp.json")),
    ({}, ("fuzz", "--mode", "prune", "--seed", "1", "--n", "-3")),
], ids=["bits-not-hex", "bits-signed", "edge-without-color",
        "subgraph-without-color", "checkpoint-without-config", "part-size-not-int",
        "vertices-not-a-list", "checkpoint-every-0", "checkpoint-every-negative",
        "gk-checkpoint-every-0", "stop-after-0", "stop-after-negative",
        "threads-huge", "threads-0", "gk-threads-huge", "gk-threads-0",
        "coloring-not-utf8", "cover-not-utf8", "coloring-nested-too-deep",
        "part-size-too-many-digits", "checkpoint-nested-too-deep",
        "checkpoint-not-utf8", "fuzz-n-negative"])
def test_malformed_input_exits_2_without_traceback(tmp_path, files, argv):
    _assert_config_error(tmp_path, files, argv, timeout=120)


@pytest.mark.parametrize("bad", [-1, 3, 10 ** 18], ids=["negative", "n", "huge"])
def test_verify_hostile_vertex_id_exits_2_without_traceback(tmp_path, bad):
    cover = {"subgraphs": [{"color": "red", "vertices": [0, 1, bad]}]}
    _assert_config_error(tmp_path, {"chi.json": GOOD_COLORING,
                                    "cover.json": cover}, VERIFY, timeout=60)


def test_resume_with_overlapping_ranges_exits_2(tmp_path, capsys):
    # A checkpoint stopped after 3 classes, its ranges rewound to lo and
    # listed twice: resuming it would enumerate every key twice and report
    # 57 classes instead of 27.
    cp = tmp_path / "cp.json"
    argv = ("compute-d", "--parts", "2,2,1", "--checkpoint", "cp.json")
    code, out, _ = run(capsys, *argv[:-1], str(cp), "--stop-after", "3")
    assert code == OK and json.loads(out)["complete"] is False
    state = json.loads(cp.read_text())
    ranges = [[lo, hi, lo] for lo, hi, _ in state["cursor_ranges"]]
    state["cursor_ranges"] = ranges + ranges
    _assert_config_error(tmp_path, {"cp.json": state}, argv, timeout=120)


def test_resume_with_raised_counts_exits_2(tmp_path, capsys):
    # The class count and one rule count raised together by 1 still fit each
    # other, so only the orbit count at the end of the survey can catch them.
    cp = tmp_path / "cp.json"
    argv = ("compute-d", "--parts", "2,2,1", "--checkpoint", "cp.json")
    code, out, _ = run(capsys, *argv[:-1], str(cp), "--stop-after", "10")
    assert code == OK and json.loads(out)["complete"] is False
    state = json.loads(cp.read_text())
    counts = state["counts"]
    counts["classes_enumerated"] += 1
    rule = sorted(counts["pruned_by_rule"])[0]
    counts["pruned_by_rule"][rule] += 1
    _assert_config_error(tmp_path, {"cp.json": state}, argv, timeout=120)


@pytest.mark.parametrize("cap", ["abc", "-1", "2.5", ""])
def test_bad_cap_env_exits_2_without_traceback(tmp_path, cap):
    _assert_config_error(tmp_path, {}, ("compute-d", "--parts", "2,2,1"),
                         timeout=120, env={"MPCOVER_CAP_EDGES": cap})


def test_oversized_shape_exits_2_quickly(tmp_path):
    # Without the vertex bound the shape's O(n^2) pair loop runs for minutes.
    _assert_config_error(tmp_path, {"chi.json": {"parts": [100000], "bits": "0"},
                                    "cover.json": GOOD_COVER}, VERIFY, timeout=10)


def _assert_config_error(tmp_path, files, argv, timeout, env=None):
    for name, obj in files.items():
        if isinstance(obj, bytes):
            (tmp_path / name).write_bytes(obj)
        else:
            (tmp_path / name).write_text(json.dumps(obj))
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "mpcover.cli", *argv],
                          cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path, **(env or {})),
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == CONFIG_ERROR, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("mpcover: ")


# ---------------------------------------------------------------------------
# Mutated JSON inputs
# ---------------------------------------------------------------------------

# Each input is a valid document plus the mutations that may leave it valid:
# (path pattern, kinds) with "*" matching any key or index.  Every other
# mutation (drop a key or list item, give a value another JSON type, or put
# an out-of-range integer in an integer slot) must make the command exit 2.
MUTABLE_COLORING = {"parts": [2, 1], "edges": [[0, 2, "red"], [1, 2, "blue"]]}
MUTABLE_BITS_COLORING = {"parts": [2, 2, 1], "bits": "a5"}
MUTABLE_COVER = {"subgraphs": [{"color": "red", "vertices": [0, 2]},
                               {"color": 1, "vertices": [1, 2]}]}
COLORING_FREE = [(("parts", "*"), {"drop"})]  # a smaller shape
COVER_FREE = [(("subgraphs", "*"), {"drop"}),  # a smaller cover, maybe refuted
              (("subgraphs", "*", "vertices", "*"), {"drop"})]
# "shape" and "t" at the top are written for readers and never read back
CHECKPOINT_FREE = [(("shape",), "any"), (("shape", "*"), "any"),
                   (("t",), "any"),
                   (("counts", "survivors"), {"drop"}),
                   (("counts", "property_violations"), {"drop"}),
                   (("counts", "violation_notes"), {"drop"}),
                   (("counts", "seconds"), {"drop"})]

OTHER_TYPES = (None, True, 2.5, "x", [], {})
OUT_OF_RANGE = (-1, 1 << 63)


def _mutations(doc, free, path=()):
    """Every (path, kind, replacement) mutation of doc outside ``free``."""
    def allowed(kind):
        for pattern, kinds in free:
            if len(pattern) == len(path) and all(
                    p == "*" or p == q for p, q in zip(pattern, path)) \
                    and (kinds == "any" or kind in kinds):
                return False
        return True

    if path and allowed("drop"):
        yield path, "drop", None
    if allowed("retype"):
        for other in OTHER_TYPES:
            if type(other) is not type(doc):
                yield path, "retype", other
    if type(doc) is int and allowed("range"):
        for value in OUT_OF_RANGE:
            yield path, "range", value
    children = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _mutations(child, free, path + (key,))


def _apply(doc, path, kind, value):
    doc = copy.deepcopy(doc)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


# checkpoints of surveys stopped part way, as compute-d and gk leave them
STOPPED_SURVEYS = {
    "compute-d": lambda path: compute_D([2, 2, 1], checkpoint_path=path,
                                        checkpoint_every=5,
                                        stop_after_classes=10),
    "gk": lambda path: gk_survey(3, checkpoint_path=path, checkpoint_every=5,
                                 stop_after_classes=40),
}


@functools.lru_cache(maxsize=None)
def _checkpoint_text(which):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cp.json")
        assert STOPPED_SURVEYS[which](path) is None
        with open(path) as fh:
            return fh.read()


def _targets():
    """{name: (file mutated, base document or the name of a stopped survey,
    free mutations, other files, argv)}."""
    verify = ("verify", "--coloring", "chi.json", "--cover", "cover.json",
              "--d", "1", "--t", "2")
    good = {"chi.json": MUTABLE_COLORING, "cover.json": MUTABLE_COVER}
    return {
        "cover": ("chi.json", MUTABLE_BITS_COLORING, COLORING_FREE, {},
                  ("cover", "--input", "chi.json")),
        "verify-coloring": ("chi.json", MUTABLE_COLORING, COLORING_FREE, good,
                            verify),
        "verify-cover": ("cover.json", MUTABLE_COVER, COVER_FREE, good, verify),
        "exists": ("chi.json", MUTABLE_COLORING, COLORING_FREE, {},
                   ("exists", "--coloring", "chi.json", "--t", "2", "--d", "1")),
        "compute-d": ("cp.json", "compute-d", CHECKPOINT_FREE, {},
                      ("compute-d", "--parts", "2,2,1", "--checkpoint",
                       "cp.json")),
        "gk": ("cp.json", "gk", CHECKPOINT_FREE, {},
               ("gk", "--k", "3", "--checkpoint", "cp.json")),
    }


def test_the_unmutated_inputs_are_accepted(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, (target, base, _, files, argv) in _targets().items():
        if isinstance(base, str):
            base = json.loads(_checkpoint_text(base))
        for fname, obj in {**files, target: base}.items():
            (tmp_path / fname).write_text(json.dumps(obj))
        code, _, err = run(capsys, *argv)
        assert code == OK, (name, err)


@pytest.mark.parametrize("name", list(_targets()))
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_mutated_json_exits_2_without_traceback(name, data):
    target, base, free, files, argv = _targets()[name]
    if isinstance(base, str):
        base = json.loads(_checkpoint_text(base))
    path, kind, value = data.draw(st.sampled_from(list(_mutations(base, free))))
    mutated = _apply(base, path, kind, value)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        for fname, obj in {**files, target: mutated}.items():
            with open(os.path.join(tmp, fname), "w") as fh:
                json.dump(obj, fh)
        here = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(list(argv))
        finally:
            os.chdir(here)
    assert code == CONFIG_ERROR, (path, kind, value, err.getvalue())
    assert err.getvalue().startswith("mpcover: ")
