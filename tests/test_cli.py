import argparse
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from toposig import cli
from toposig import embedding as em
from toposig import graph as gstore
from toposig import nullmodel as nm
from toposig.features import compute_all_features
from toposig.graph import parse_edges_tsv, parse_geo

FIXTURE_DIR = Path(__file__).parent / "data"
FIXTURE_LINKS = FIXTURE_DIR / "fixture_200.links"
FIXTURE_GEO = FIXTURE_DIR / "fixture_200.geo"

CORE_ARTIFACTS = (
    cli.EDGES_TSV,
    cli.FEATURES_TSV,
    cli.MODEL_FILE,
    cli.POINTS_NPY,
    cli.NULL_SAMPLES_TSV,
    cli.NULL_MODEL_TSV,
    cli.RESULTS_TSV,
    cli.SUMMARY_TSV,
)
INGEST_ARTIFACTS = (
    cli.EDGES_TSV, cli.NODES_TSV, cli.DEGREES_NPY, cli.NEIGHBORS_NPY, cli.LABELS_TSV,
    cli.LABEL_CODES_NPY, cli.LABEL_GROUPS_TSV, cli.MANIFEST,
)


def run(args):
    return cli.main([str(a) for a in args])


def parsed_args(stage, out):
    """The namespace the CLI hands a stage, with the parser's own defaults."""
    return cli.build_parser().parse_args([stage, "--out", str(out)])


# the fixture run's settings, each under the stage that takes it
FIXTURE_FLAGS = {
    "ingest": ["--links", FIXTURE_LINKS, "--geo", FIXTURE_GEO],
    "features": [],
    "embed": [],
    "null": ["--sizes", "10,20,50", "--sets", "40"],
    "test": ["--level", "both"],
    "report": [],
}


def stage_args(stage, out):
    """``stage`` on ``out`` with the fixture run's settings that it takes."""
    return [stage, "--out", out, "--seed", 7, *FIXTURE_FLAGS[stage]]


def fixture_args(out, seed=7):
    """``all`` on ``out`` with every stage's fixture settings."""
    flags = [arg for stage_flags in FIXTURE_FLAGS.values() for arg in stage_flags]
    return ["all", "--out", out, "--seed", seed, *flags]


# ---------------------------------------------------------------------------
# dependency and error handling
# ---------------------------------------------------------------------------

def test_test_before_null_exits_2(tmp_path, capsys):
    assert run(["test", "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert f"missing {tmp_path / cli.POINTS_NPY} (produced by the 'embed' stage)" in err


def test_ingest_without_input_exits_2(tmp_path):
    assert run(["ingest", "--out", tmp_path]) == 2


def usage_error_code(args):
    with pytest.raises(SystemExit) as exc:
        run(args)
    return exc.value.code


def test_links_and_edges_together_exit_2_and_write_nothing(tmp_path, capsys):
    out = tmp_path / "run"
    args = ["ingest", "--links", FIXTURE_LINKS, "--edges", FIXTURE_LINKS, "--out", out]
    assert usage_error_code(args) == 2
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["all", "--links", FIXTURE_LINKS, "--geo", FIXTURE_GEO, "--seed", "-1"],
    ["ingest", "--links", FIXTURE_LINKS, "--seed", "-1"],
    ["synth", "--model", "er", "--n", 50, "--seed", "-1"],
    ["synth", "--model", "er", "--n", 50, "--random-groups", "-3"],
], ids=["all-seed", "ingest-seed", "synth-seed", "synth-random-groups"])
def test_negative_count_exits_2_and_writes_nothing(tmp_path, capsys, args):
    assert usage_error_code(args + ["--out", tmp_path / "run"]) == 2
    flag, value = args[-2:]
    assert f"{flag}: must be a non-negative integer, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    """The fixture run of the whole chain, for tests to copy."""
    out = tmp_path_factory.mktemp("finished") / "run"
    assert run(fixture_args(out)) == 0
    return out


@pytest.mark.parametrize("args", [
    ["null", "--pooled-std"],
    ["synth", "--geo", "x"],
    ["synth", "--level", "region"],
    ["test", "--labeled-only"],
    ["embed", "--pair-budget", 5],
    ["null", "--level", "both"],
    ["features", "--sizes", 10],
    ["report", "--level", "region"],
    ["ingest", "--eig-tol", 0.1],
    ["test", "--sizes", "10,20"],
    # the eigenvalue tolerance and the smallest group scored are constants
    ["embed", "--eig-tol", "1e-4"],
    ["all", "--eig-tol", "1e-4"],
    ["test", "--min-group-size", 5],
    ["all", "--min-group-size", 5],
    # alpha is always fitted
    ["null", "--fix-alpha", 1],
    ["all", "--fix-alpha", 1],
    # flags are spelled in full: a prefix of a flag the stage takes is unknown
    ["null", "--size", "10,20"],
    ["embed", "--lab"],
    ["all", "--lab"],
    ["test", "--lev", "both"],
    ["synth", "--mod", "er"],
], ids=["null-pooled-std", "synth-geo", "synth-level", "test-labeled-only", "embed-pair-budget",
        "null-level", "features-sizes", "report-level", "ingest-eig-tol", "test-sizes",
        "embed-eig-tol", "all-eig-tol", "test-min-group-size", "all-min-group-size",
        "null-fix-alpha", "all-fix-alpha",
        "null-size-prefix", "embed-lab-prefix", "all-lab-prefix", "test-lev-prefix",
        "synth-mod-prefix"])
def test_flags_a_stage_does_not_take_exit_2(tmp_path, capsys, finished_run, args):
    assert usage_error_code(args + ["--out", tmp_path / "run"]) == 2
    assert not (tmp_path / "run").exists()
    # the stage's own parser reports the flag, so its usage shows the flags it does take
    stage, flag = args[:2]
    err = capsys.readouterr().err
    assert err.startswith(f"usage: toposig {stage} [-h] --out OUT [--seed SEED]"), err
    assert f"toposig {stage}: error: unrecognized arguments: {flag}" in err
    # on a finished run the stage would otherwise run and append its manifest line
    out = shutil.copytree(finished_run, tmp_path / "finished")
    manifest = (out / cli.MANIFEST).read_bytes()
    assert usage_error_code(args + ["--out", out]) == 2
    assert (out / cli.MANIFEST).read_bytes() == manifest


@pytest.mark.parametrize("flag, name", [
    ("--edges", "nope.tsv"), ("--links", "nope.tsv"), ("--geo", "nope.tsv"), ("--edges", "dir"),
], ids=["edges", "links", "geo", "edges-directory"])
def test_missing_input_file_exits_2(tmp_path, capsys, flag, name):
    out, missing = tmp_path / "run", tmp_path / name
    if name == "dir":
        missing.mkdir()
    source = "--links" if flag == "--geo" else flag
    paths = {source: FIXTURE_LINKS, "--geo": FIXTURE_GEO, flag: missing}
    assert run(["ingest", "--out", out, *(arg for pair in paths.items() for arg in pair)]) == 2
    assert f"missing input file {missing}" in capsys.readouterr().err
    assert not [name for name in INGEST_ARTIFACTS if (out / name).exists()]


@pytest.mark.parametrize("flag", ["--edges", "--geo"])
@pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["lenient", "strict"])
def test_input_that_is_not_utf8_names_its_file_and_writes_nothing(tmp_path, capsys, flag, strict):
    good, bad, out = tmp_path / "good.tsv", tmp_path / "bad.tsv", tmp_path / "run"
    good.write_text("a\tb\nb\tc\n", encoding="utf-8")
    bad.write_bytes(b"a\tb\n\xff\tc\n")  # the second line holds byte 0xff
    inputs = {"--edges": good, "--geo": good, flag: bad}
    assert run(["ingest", "--out", out, *(arg for pair in inputs.items() for arg in pair)]
               + strict) == 2
    assert f"toposig: {bad}: not UTF-8 text" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["synth", "--model", "er", "--n", "-5"], "need n >= 2"),
    (["ingest", "--edges", "nope.tsv"], "missing input file"),
    (["features"], "produced by the 'ingest' or 'synth' stage"),
], ids=["synth-bad-n", "ingest-missing-edges", "features-fresh-out"])
def test_a_failed_stage_creates_no_out(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    assert run(args + ["--out", tmp_path / "run"]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("args", [
    ["synth", "--model", "er", "--n", 50], ["ingest", "--links", FIXTURE_LINKS],
], ids=["synth", "ingest"])
def test_out_naming_a_file_exits_2(tmp_path, capsys, args):
    out = tmp_path / "run"
    out.write_text("not a directory\n")
    assert run(args + ["--out", out]) == 2
    assert f"--out {out} is not a directory" in capsys.readouterr().err
    assert out.read_text() == "not a directory\n"


def test_strict_geo_parse_failure_exits_3_and_writes_nothing(tmp_path, capsys):
    geo = tmp_path / "bad.geo"
    geo.write_text("N000\tC0\nnot a record\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run(["ingest", "--links", FIXTURE_LINKS, "--geo", geo, "--out", out, "--strict"]) == 3
    assert "bad geo record" in capsys.readouterr().err
    assert not [name for name in INGEST_ARTIFACTS if (out / name).exists()]


def test_strict_parse_failure_exits_3(tmp_path):
    bad = tmp_path / "bad.links"
    bad.write_text("link L1: N1 N2\nnot a record\n")
    assert run(["ingest", "--links", bad, "--out", tmp_path, "--strict"]) == 3
    # lenient mode shrugs it off
    assert run(["ingest", "--links", bad, "--out", tmp_path]) == 0


def test_degenerate_features_exit_4(tmp_path):
    ring = tmp_path / "ring.tsv"
    ring.write_text("a\tb\nb\tc\nc\td\nd\te\ne\tf\na\tf\n")
    assert run(["ingest", "--edges", ring, "--out", tmp_path]) == 0
    assert run(["features", "--out", tmp_path]) == 0
    assert run(["embed", "--out", tmp_path]) == 4


def test_corrupt_graph_artifacts_exit_2(tmp_path, capsys):
    assert run(["ingest", "--links", FIXTURE_LINKS, "--out", tmp_path]) == 0
    degrees, neighbors = tmp_path / cli.DEGREES_NPY, tmp_path / cli.NEIGHBORS_NPY
    nodes = tmp_path / cli.NODES_TSV
    good = {path: path.read_bytes() for path in (degrees, neighbors, nodes)}

    def features_fails(path, data, message):
        path.write_bytes(data)
        assert run(["features", "--out", tmp_path]) == 2, message
        err = capsys.readouterr().err
        assert path.name in err and message in err, err
        path.write_bytes(good[path])

    def saved(array):
        data = io.BytesIO()
        np.save(data, array)
        return data.getvalue()

    features_fails(degrees, good[degrees][:-8], f"{degrees}: ")  # numpy's message follows
    features_fails(neighbors, good[neighbors][:-8], f"{neighbors}: ")
    features_fails(neighbors, saved(np.load(neighbors).astype(np.float64)), "float64 array")
    negative = np.load(degrees)
    negative[:2] = [negative[0] + negative[1] + 1, -1]  # same sum, one degree below 0
    features_fails(degrees, saved(negative), "degrees outside")
    features_fails(nodes, good[nodes] + b"N999\n", "names")
    features_fails(nodes, good[nodes][:-1], "last line is not newline-terminated")

    run_stages(tmp_path, "features", "embed", "null")
    np.save(degrees, np.load(degrees)[:-1])
    for stage in ("embed", "null", "test"):  # rows of features.npy or points.npy != n
        assert run(stage_args(stage, tmp_path)) == 2, stage
        assert f"for the 199 nodes in {cli.DEGREES_NPY}" in capsys.readouterr().err
    np.save(degrees, np.int64(200))
    for stage in ("embed", "null", "test"):
        assert run(stage_args(stage, tmp_path)) == 2, stage
        assert f"{degrees}: 0-d array, expected 1-d" in capsys.readouterr().err


def test_truncated_model_files_exit_2(tmp_path, capsys):
    assert run(fixture_args(tmp_path)) == 0
    points, null_model = tmp_path / cli.POINTS_NPY, tmp_path / cli.NULL_MODEL_TSV
    good_points = points.read_bytes()
    points.write_bytes(good_points[:-8])
    assert run(stage_args("null", tmp_path)) == 2
    assert f"toposig: {points}: " in capsys.readouterr().err  # numpy's message follows

    points.write_bytes(good_points)
    header, row = null_model.read_text().splitlines()
    short_row = row.rsplit("\t", 1)[0]
    null_model.write_text(f"{header}\n{short_row}\n")
    assert run(stage_args("test", tmp_path)) == 2
    assert "expected 4" in capsys.readouterr().err


def test_non_finite_null_model_exits_2(tmp_path, capsys):
    run_stages(tmp_path, "ingest", "features", "embed", "null")
    null_model = tmp_path / cli.NULL_MODEL_TSV
    header, row = null_model.read_text().splitlines()
    rest = row.split("\t", 1)[1]
    null_model.write_text(f"{header}\nnan\t{rest}\n")
    assert run(stage_args("test", tmp_path)) == 2
    assert "null model field mu_r is nan" in capsys.readouterr().err
    assert not (tmp_path / cli.RESULTS_TSV).exists()


@pytest.mark.parametrize("name, rows, stage, message", [
    (cli.RESULTS_TSV, "country\tC0\t3\n", "report",
     "line 2: 3 fields, expected 7: level, group, n_nodes, mean_dist, z, p, significant"),
    (cli.NULL_MODEL_TSV, "abc\t1\t1\t0\n", "test",
     "line 2: could not convert string to float: 'abc'"),
    (cli.NULL_MODEL_TSV, "", "test", "no null model row"),
], ids=["results-short-row", "null-model-text", "null-model-no-row"])
def test_a_malformed_handoff_tsv_names_the_file_and_line(tmp_path, capsys, finished_run, name,
                                                         rows, stage, message):
    out = shutil.copytree(finished_run, tmp_path / "run")
    path = out / name
    header = path.read_text(encoding="utf-8").splitlines()[0]
    path.write_text(f"{header}\n{rows}", encoding="utf-8")
    kept = {kept_name: (out / kept_name).read_bytes()
            for kept_name in (cli.RESULTS_TSV, cli.SUMMARY_TSV, cli.MANIFEST)}
    assert run(stage_args(stage, out)) == 2
    assert capsys.readouterr().err == f"toposig: {path}: {message}\n"
    assert {kept_name: (out / kept_name).read_bytes() for kept_name in kept} == kept


@pytest.mark.parametrize("name, stage", [
    (cli.FEATURES_NPY, "embed"), (cli.POINTS_NPY, "null"), (cli.LABEL_CODES_NPY, "test"),
])
def test_empty_or_directory_npy_handoff_exits_2(tmp_path, capsys, name, stage):
    run_stages(tmp_path, "ingest", "features", "embed", "null")
    path = tmp_path / name
    path.unlink()
    path.mkdir()
    assert run(stage_args(stage, tmp_path)) == 2
    assert f"missing {path} (produced by" in capsys.readouterr().err
    path.rmdir()
    path.write_bytes(b"")
    assert run(stage_args(stage, tmp_path)) == 2
    assert f"{path}: empty file" in capsys.readouterr().err


def test_a_missing_graph_handoff_names_both_producers(tmp_path, capsys):
    assert run(["synth", "--model", "ba", "--n", 200, "--seed", 1, "--out", tmp_path]) == 0
    (tmp_path / cli.NEIGHBORS_NPY).unlink()
    assert run(["features", "--out", tmp_path]) == 2
    want = f"missing {tmp_path / cli.NEIGHBORS_NPY} (produced by the 'ingest' or 'synth' stage)"
    assert want in capsys.readouterr().err


def test_pair_budget_below_one_exits_2(tmp_path, capsys):
    assert usage_error_code(fixture_args(tmp_path / "run") + ["--pair-budget", "0"]) == 2
    err = capsys.readouterr().err
    assert "argument --pair-budget: must be an integer of at least 1, got 0" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("stage, flag, value, message", [
    ("all", "--seed", "x", "expected an integer, got 'x'"),
    ("all", "--sizes", "10,x", "expected an integer, got 'x'"),
    ("all", "--pair-budget", "abc", "expected an integer, got 'abc'"),
    ("test", "--pair-budget", "-3", "must be an integer of at least 1, got -3"),
    ("synth", "--stubs", "1,a", "expected an integer, got 'a'"),
    ("synth", "--random-groups", "many", "expected an integer, got 'many'"),
    ("synth", "--group-sizes", "5", "expected LO,HI, got '5'"),
    ("synth", "--group-sizes", "a,b", "expected an integer, got 'a'"),
], ids=["seed", "sizes", "pair-budget", "pair-budget-negative", "stubs",
        "random-groups", "group-sizes-one", "group-sizes-text"])
def test_a_flag_value_it_cannot_parse_is_a_plain_usage_error(tmp_path, capsys, stage, flag,
                                                             value, message):
    """argparse names no function of the CLI: each type says what it expected."""
    args = [stage, "--out", tmp_path / "run", flag, value]
    if stage == "all":
        args += FIXTURE_FLAGS["ingest"]
    assert usage_error_code(args) == 2
    err = capsys.readouterr().err
    assert f"toposig {stage}: error: argument {flag}: {message}\n" in err, err
    assert "invalid" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flags", [
    ["--sizes", "10,20"], ["--sizes", "20,10"], ["--sets", "1"],
], ids=["two-sizes", "descending-sizes", "one-set"])
def test_all_rejects_a_null_config_before_ingest_writes(tmp_path, capsys, flags):
    out = tmp_path / "run"
    with mock.patch.object(cli, "run_stage", side_effect=AssertionError("a stage ran")):
        assert run(["all", "--out", out, *FIXTURE_FLAGS["ingest"], *flags]) == 2
    assert capsys.readouterr().err.startswith("toposig: ")
    assert not out.exists()


def run_stages(out, *stages):
    """Run ``stages`` one by one on the fixture with ``fixture_args``' settings."""
    for stage in stages:
        assert run(stage_args(stage, out)) == 0, stage


def no_set_drawn():
    """Patches the CLI's ``sample_null`` so that drawing a null set fails the test."""
    return mock.patch.object(cli, "sample_null", side_effect=AssertionError("a set was drawn"))


def test_two_sizes_exit_2_before_a_set_is_drawn(tmp_path, capsys, finished_run):
    out = shutil.copytree(finished_run, tmp_path / "run")
    manifest = (out / cli.MANIFEST).read_bytes()
    with no_set_drawn():
        assert run(["null", "--out", out, "--sizes", "10,20"]) == 2
    assert capsys.readouterr().err == (
        "toposig: --sizes gives 2 set sizes; fitting alpha needs at least 3\n")
    assert (out / cli.MANIFEST).read_bytes() == manifest


def test_empty_sizes_exit_2_with_their_own_message(tmp_path, capsys, finished_run):
    out = shutil.copytree(finished_run, tmp_path / "run")
    with no_set_drawn():
        assert run(["null", "--out", out, "--sizes", ""]) == 2
    assert "toposig: no set sizes given" in capsys.readouterr().err


def test_null_on_points_with_no_spread_exits_4(tmp_path, capsys, finished_run):
    out = shutil.copytree(finished_run, tmp_path / "run")
    points = np.load(out / cli.POINTS_NPY)
    np.save(out / cli.POINTS_NPY, np.repeat(points[:1], len(points), axis=0))
    kept = {name: (out / name).read_bytes()
            for name in (cli.NULL_SAMPLES_TSV, cli.NULL_MODEL_TSV, cli.MANIFEST)}
    assert run(stage_args("null", out)) == 4
    assert capsys.readouterr().err == (
        "toposig: degenerate input: need at least 3 sizes with nonzero spread, got 0\n")
    assert {name: (out / name).read_bytes() for name in kept} == kept


def test_sigma_overflowing_at_a_group_size_exits_4(tmp_path, capsys, finished_run):
    # a = 9.3e-308 and alpha = -230: sigma(N) = a * N**230 overflows at N >= 22
    out = shutil.copytree(finished_run, tmp_path / "run")
    (out / cli.NULL_MODEL_TSV).write_text("0.9\t9.3e-308\t-230\t0\n")
    kept = {name: (out / name).read_bytes() for name in (cli.RESULTS_TSV, cli.MANIFEST)}
    assert run(stage_args("test", out)) == 4
    assert re.search(r"sigma\(N\) = inf at N = \d+ is not finite", capsys.readouterr().err)
    assert {name: (out / name).read_bytes() for name in kept} == kept


def one_node_per_group(out):
    """Rewrite the label codes in ``out`` so that each group keeps only its first node."""
    codes = np.load(out / cli.LABEL_CODES_NPY)
    for column in codes.T:
        repeated = np.ones(len(column), dtype=bool)
        repeated[np.unique(column, return_index=True)[1]] = False
        column[repeated] = -1
    np.save(out / cli.LABEL_CODES_NPY, codes)


def test_min_group_size_above_every_group_exits_2(tmp_path, capsys):
    run_stages(tmp_path, "ingest", "features", "embed", "null")
    one_node_per_group(tmp_path)
    assert run(stage_args("test", tmp_path)) == 2
    err = capsys.readouterr().err
    assert err == "toposig: no label group has 2 or more nodes to score\n"
    assert not (tmp_path / cli.RESULTS_TSV).exists()


def test_a_group_of_one_node_is_skipped(tmp_path):
    run_stages(tmp_path, "ingest", "features", "embed", "null")
    codes = np.load(tmp_path / cli.LABEL_CODES_NPY)
    codes[np.flatnonzero(codes[:, 0] == 0)[1:], 0] = -1  # country C0 keeps one node
    np.save(tmp_path / cli.LABEL_CODES_NPY, codes)
    run_stages(tmp_path, "test")
    _, _, info = manifest_fields(tmp_path, "test")
    assert "groups=11" in info and "skipped=1" in info
    rows = [line.split("\t")[:2] for line in (tmp_path / cli.RESULTS_TSV).read_text().splitlines()
            if not line.startswith("#")]
    assert len(rows) == 11 and ["country", "C0"] not in rows


def test_missing_labels_for_test_stage_exits_2(tmp_path):
    assert run(["ingest", "--links", FIXTURE_LINKS, "--out", tmp_path]) == 0
    assert run(["features", "--out", tmp_path]) == 0
    assert run(["embed", "--out", tmp_path]) == 0
    assert run(["null", "--out", tmp_path, "--sizes", "10,20,50", "--sets", "10"]) == 0
    assert run(["test", "--out", tmp_path]) == 2  # no label codes


def test_ingest_without_geo_removes_an_earlier_label_handoff(tmp_path, capsys):
    run_stages(tmp_path, "ingest")
    assert run(["ingest", "--links", FIXTURE_LINKS, "--out", tmp_path]) == 0
    assert not [name for name in (cli.LABELS_TSV, cli.LABEL_CODES_NPY, cli.LABEL_GROUPS_TSV)
                if (tmp_path / name).exists()]
    run_stages(tmp_path, "features", "embed", "null")
    assert run(stage_args("test", tmp_path)) == 2
    err = capsys.readouterr().err
    assert cli.LABEL_CODES_NPY in err and "'ingest' or 'synth' stage" in err
    assert not (tmp_path / cli.RESULTS_TSV).exists()


def resave_codes(out, change):
    path = out / cli.LABEL_CODES_NPY
    np.save(path, change(np.load(path)))


def set_code(codes, value):
    codes[0, 0] = value
    return codes


def append_table_line(out, line):
    with open(out / cli.LABEL_GROUPS_TSV, "a", encoding="utf-8") as f:
        f.write(line)


@pytest.mark.parametrize("corrupt, message", [
    (lambda out: resave_codes(out, lambda c: c.astype(np.int64)), "expected int32"),
    (lambda out: resave_codes(out, lambda c: c[:-1]), "expected int32 of shape (200, 2)"),
    (lambda out: resave_codes(out, lambda c: c[:, :1].copy()), "expected int32 of shape (200, 2)"),
    (lambda out: resave_codes(out, lambda c: set_code(c, 6)), "codes outside"),
    (lambda out: resave_codes(out, lambda c: set_code(c, -2)), "codes outside"),
    (lambda out: append_table_line(out, "city\tX\n"), "line 14 is not"),
    (lambda out: append_table_line(out, "country\n"), "line 14 is not"),
    (lambda out: append_table_line(out, "country\tX"), "not newline-terminated"),
    (lambda out: (out / cli.LABEL_GROUPS_TSV).write_text("country\tX\n"), "first line"),
    (lambda out: (out / cli.LABEL_CODES_NPY).unlink(), "by the 'ingest' or 'synth' stage"),
    (lambda out: (out / cli.LABEL_GROUPS_TSV).unlink(), "by the 'ingest' or 'synth' stage"),
], ids=["dtype", "rows", "columns", "code-past-table", "code-below-none", "bad-level",
        "no-key", "no-newline", "no-header", "missing-codes", "missing-table"])
def test_malformed_label_artifacts_exit_2(tmp_path, capsys, corrupt, message):
    # the fixture's table holds 6 countries and 6 regions, on lines 2 to 13
    run_stages(tmp_path, "ingest", "features", "embed", "null")
    corrupt(tmp_path)
    assert run(stage_args("test", tmp_path)) == 2
    assert message in capsys.readouterr().err
    assert run(["embed", "--labeled-only", "--out", tmp_path]) == 2
    assert not (tmp_path / cli.RESULTS_TSV).exists()


# ---------------------------------------------------------------------------
# end-to-end runs
# ---------------------------------------------------------------------------

def test_fixture_end_to_end_produces_all_artifacts(tmp_path, capsys):
    assert run(fixture_args(tmp_path)) == 0
    for artifact in CORE_ARTIFACTS:
        assert (tmp_path / artifact).exists(), artifact
    assert (tmp_path / cli.MANIFEST).exists()
    out = capsys.readouterr().out
    assert "groups tested" in out

    manifest = (tmp_path / cli.MANIFEST).read_text().splitlines()
    assert [line.split("\t")[0] for line in manifest] == list(cli.ALL_CHAIN)


def test_stagewise_equals_all(tmp_path):
    out_all = tmp_path / "all"
    out_staged = tmp_path / "staged"
    assert run(fixture_args(out_all)) == 0
    for stage in cli.ALL_CHAIN:  # each stage given only its own flags
        assert run(stage_args(stage, out_staged)) == 0, stage
    for artifact in CORE_ARTIFACTS:
        assert (out_all / artifact).read_bytes() == (out_staged / artifact).read_bytes()


def test_same_seed_byte_identical_artifacts(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(fixture_args(out_a)) == 0
    assert run(fixture_args(out_b)) == 0
    for artifact in CORE_ARTIFACTS + (cli.NODES_TSV, cli.LABELS_TSV):
        assert (out_a / artifact).read_bytes() == (out_b / artifact).read_bytes(), artifact
    # manifest identical apart from the trailing timestamp column
    strip = lambda p: [l.rsplit("\t", 1)[0] for l in (p / cli.MANIFEST).read_text().splitlines()]
    assert strip(out_a) == strip(out_b)


def test_different_seed_changes_null_samples(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run(fixture_args(out_a, seed=7)) == 0
    assert run(fixture_args(out_b, seed=8)) == 0
    assert (out_a / cli.NULL_SAMPLES_TSV).read_bytes() != (out_b / cli.NULL_SAMPLES_TSV).read_bytes()


def test_results_levels_respect_flag(tmp_path):
    assert run(fixture_args(tmp_path)) == 0
    rows = [
        line.split("\t")
        for line in (tmp_path / cli.RESULTS_TSV).read_text().splitlines()
        if not line.startswith("#")
    ]
    levels = {row[0] for row in rows}
    assert levels == {"country", "region"}
    zs = [float(row[4]) for row in rows]
    assert zs == sorted(zs)


def test_level_both_without_regions_scores_countries(tmp_path):
    geo = tmp_path / "country_only.geo"
    geo.write_text(
        "".join(
            "\t".join(line.split("\t")[:2]) + "\t\n"
            for line in FIXTURE_GEO.read_text().splitlines()
        )
    )
    out = tmp_path / "run"
    args = fixture_args(out)
    args[args.index(FIXTURE_GEO)] = geo
    assert run(args) == 0
    rows = [line for line in (out / cli.RESULTS_TSV).read_text().splitlines()
            if not line.startswith("#")]
    assert rows and {row.split("\t")[0] for row in rows} == {"country"}
    test_line = [line for line in (out / cli.MANIFEST).read_text().splitlines()
                 if line.startswith("test\t")][0]
    assert "empty_levels=region" in test_line.split("\t")[6]
    # a level asked for alone still has to have groups
    assert run(["test", "--out", out, "--level", "region"]) == 2


def library_features():
    with open(FIXTURE_LINKS, encoding="utf-8") as f:
        graph = gstore.build_graph(gstore.parse_links(f))
    return graph, compute_all_features(graph)


def library_results_tsv(seed, sizes, sets, pair_budget=em.DEFAULT_PAIR_BUDGET):
    """Both levels' results.tsv text, built from the low-level pieces: each group's
    mean from ``embedding.set_mean_distances`` on its own (seed, key) stream, then
    ``nullmodel.z_score``; so a CLI check against it cannot pass by sharing code.

    Also returns se / sigma(N) of every group that took the sampled pair path.
    """
    graph, values = library_features()
    with open(FIXTURE_GEO, encoding="utf-8") as f:
        labels = parse_geo(f)
    points = em.transform_all(em.fit_embedding(values), values)
    config = nm.NullSamplingConfig(
        set_sizes=sizes, sets_per_size=sets, pair_budget=pair_budget, seed=seed
    )
    null = nm.fit_null_scaling(nm.sample_null(points, config))
    results = []
    se_fracs = []
    for level, build in (("country", gstore.country_groups), ("region", gstore.region_groups)):
        for key, ids in build(graph, labels).items():
            if len(ids) < 2:
                continue
            [mean] = em.set_mean_distances(points, [ids], [nm._key_rng(seed, key)], pair_budget)
            results.append(nm.z_score(null, key, level, len(ids), mean.mean))
            if not mean.exact:
                se_fracs.append(mean.se / null.sigma(len(ids)))
    out = io.StringIO()
    nm.write_results_tsv(results, out)
    return out.getvalue(), se_fracs


def check_cli_equals_library(out, pair_budget):
    """Compare results.tsv with the library; return (sampled groups, their se / sigma)."""
    assert run(fixture_args(out) + ["--pair-budget", pair_budget]) == 0
    expected, se_fracs = library_results_tsv(
        seed=7, sizes=(10, 20, 50), sets=40, pair_budget=pair_budget
    )
    assert (out / cli.RESULTS_TSV).read_text(encoding="utf-8") == expected
    test_line = [line for line in (out / cli.MANIFEST).read_text().splitlines()
                 if line.startswith("test\t")][0]
    info = dict(tok.split("=", 1) for tok in test_line.split("\t")[6].split())
    assert int(info["sampled"]) == len(se_fracs)
    assert info["pair_se_frac"] == f"{max(se_fracs, default=0.0):.3g}"
    return se_fracs


def test_cli_results_byte_identical_to_library(tmp_path):
    assert check_cli_equals_library(tmp_path, em.DEFAULT_PAIR_BUDGET) == []


def test_cli_results_byte_identical_to_library_on_sampled_pairs(tmp_path):
    # at 500 pairs the fixture's country groups (33-34 nodes), its larger region
    # groups and the 50-node null sets take the sampled pair path
    se_fracs = check_cli_equals_library(tmp_path, 500)
    assert se_fracs and all(0.0 < frac < 1.0 for frac in se_fracs)


@pytest.mark.parametrize("seed,pair_budget", [(0, em.DEFAULT_PAIR_BUDGET),
                                              (3, em.DEFAULT_PAIR_BUDGET), (3, 500)])
def test_analyze_writes_what_all_writes(tmp_path, seed, pair_budget):
    """nullmodel.analyze is the chain `all` runs: its model, null and z match byte for byte."""
    assert run(fixture_args(tmp_path, seed) + ["--pair-budget", pair_budget]) == 0
    graph, values = library_features()
    with open(FIXTURE_GEO, encoding="utf-8") as f:
        labels = parse_geo(f)
    memberships = {"country": gstore.country_groups(graph, labels),
                   "region": gstore.region_groups(graph, labels)}
    config = nm.NullSamplingConfig(
        set_sizes=(10, 20, 50), sets_per_size=40, pair_budget=pair_budget, seed=seed
    )
    analysis = nm.analyze(values, memberships, config)
    written = {
        cli.MODEL_FILE: (em.save_model, analysis.model),
        cli.NULL_SAMPLES_TSV: (nm.write_null_samples_tsv, analysis.samples),
        cli.NULL_MODEL_TSV: (nm.write_null_model_tsv, analysis.null),
        cli.RESULTS_TSV: (nm.write_results_tsv, analysis.results),
    }
    for name, (write, value) in written.items():
        write(value, out := io.StringIO())
        assert (tmp_path / name).read_text(encoding="utf-8") == out.getvalue(), name
    _, _, info = manifest_fields(tmp_path, "test")
    assert ("sampled=0" in info) == (pair_budget == em.DEFAULT_PAIR_BUDGET)


# ---------------------------------------------------------------------------
# flags with their own code path: the CLI artifact equals the library call
# ---------------------------------------------------------------------------

def manifest_fields(out, stage):
    """Config description, inputs and info of ``stage``'s manifest line."""
    line = next(line for line in (out / cli.MANIFEST).read_text().splitlines()
                if line.startswith(stage + "\t"))
    fields = line.split("\t")
    return fields[3].split(), fields[4], fields[6].split()


def model_text(model):
    out = io.StringIO()
    em.save_model(model, out)
    return out.getvalue()


def null_samples_text(points):
    config = nm.NullSamplingConfig(set_sizes=(10, 20, 50), sets_per_size=40, seed=7)
    out = io.StringIO()
    nm.write_null_samples_tsv(nm.sample_null(points, config), out)
    return out.getvalue()


def label_codes_of(out):
    """``label_codes.npy`` and ``label_groups.tsv`` of ``out`` as a name -> key dict per level."""
    with open(out / cli.NODES_TSV, encoding="utf-8", newline="") as f:
        names = gstore.read_nodes_tsv(f)
    codes, tables, _ = cli._load_label_codes(parsed_args("test", out), len(names), [])
    return [
        {name: tables[level][code] for name, code in zip(names, codes[:, column]) if code >= 0}
        for column, level in enumerate(gstore.GEO_LEVELS)
    ]


def half_labeled_args(tmp_path):
    """``fixture_args`` with a geo file that labels every other node; the labeled ids."""
    geo = tmp_path / "half.geo"
    lines = FIXTURE_GEO.read_text(encoding="utf-8").splitlines(keepends=True)
    geo.write_text("".join(lines[::2]), encoding="utf-8")  # header and every other node
    args = fixture_args(tmp_path / "run")
    args[args.index(FIXTURE_GEO)] = geo
    graph, _ = library_features()
    with open(geo, encoding="utf-8") as f:
        labels = parse_geo(f)
    keep = [i for i, name in enumerate(graph.names) if name in labels.country]
    assert len(keep) == 100
    return args, keep


def test_labeled_only_fits_and_samples_the_labeled_rows(tmp_path):
    args, keep = half_labeled_args(tmp_path)
    out = tmp_path / "run"
    assert run(args + ["--labeled-only"]) == 0

    _, values = library_features()
    model = em.fit_embedding(values[keep])
    assert (out / cli.MODEL_FILE).read_text(encoding="utf-8") == model_text(model)
    points = em.transform_all(model, values)[keep]
    assert (out / cli.NULL_SAMPLES_TSV).read_text(encoding="utf-8") == null_samples_text(points)
    for stage in ("embed", "null"):
        desc, inputs, _ = manifest_fields(out, stage)
        assert "labeled_only=1" in desc and f"{cli.LABEL_CODES_NPY}:" in inputs
        assert f"{cli.LABEL_GROUPS_TSV}:" in inputs and f"{cli.LABELS_TSV}:" not in inputs


@pytest.mark.parametrize("flags", [[], ["--labeled-only"]], ids=["default", "labeled-only"])
def test_points_are_every_row_in_the_fitted_space(tmp_path, flags):
    args, keep = half_labeled_args(tmp_path)
    half_geo = args[args.index("--geo") + 1]
    for stage_flags in (["ingest", "--links", FIXTURE_LINKS, "--geo", half_geo], ["features"],
                        ["embed", *flags]):
        assert run(stage_flags + ["--out", tmp_path / "run", "--seed", 7]) == 0, stage_flags[0]
    _, values = library_features()
    rows = values[keep] if "--labeled-only" in flags else values
    expected = em.transform_all(em.fit_embedding(rows), values)
    points = np.load(tmp_path / "run" / cli.POINTS_NPY)
    assert points.dtype == np.float64 and points.shape == (200, 4)
    assert points.tobytes() == expected.tobytes()


def test_readme_shared_flags_are_the_parser_options():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")

    def documented(opening):
        return re.findall(r"`(--[\w-]+)", readme.split(opening, 1)[1].split(".", 1)[0])

    parser = cli.build_parser()
    stages = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, stage in stages.choices.items():
        options = [s for a in stage._actions for s in a.option_strings]
        expected = documented(f"`{name}` takes")
        assert expected == [s for s in options if s not in ("-h", "--help")], name


class ReadRecorder(argparse.Namespace):
    """A parsed namespace that records which settings the code reads from it."""

    def __getattribute__(self, name):
        if not name.startswith("_"):
            vars(self).setdefault("_read", set()).add(name)
        return super().__getattribute__(name)


def options_unread(stage, runs):
    """Options ``stage`` declares that none of ``runs`` (argument lists) reads."""
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    declared = {a.dest: a.option_strings[0] for a in subparsers.choices[stage]._actions
                if a.dest != "help"}
    read = set()
    for args in runs:
        cfg = parser.parse_args([str(a) for a in args], namespace=ReadRecorder())
        vars(cfg)["_read"] = set()  # parsing itself reads every default
        assert (cli.run_all(cfg) if stage == "all" else cli.run_stage(stage, cfg)) == 0
        read |= vars(cfg)["_read"]
    return sorted(flag for dest, flag in declared.items() if dest not in read)


@pytest.mark.parametrize("command", [*cli.ALL_CHAIN, "all", "synth"])
def test_every_option_of_a_command_is_read_by_it(tmp_path, command):
    if command == "synth":
        runs = [["synth", "--model", model, "--n", 300, "--groups", 4, "--random-groups", 3,
                 "--group-sizes", "10,20", "--out", tmp_path / model]
                for model in ("er", "ba")]
        runs.append(["synth", "--model", "gravity", "--n", 300, "--groups", 4,
                     "--out", tmp_path / "gravity"])
    elif command in ("ingest", "all"):  # a links run, then an edges run on its edges.tsv
        links = tmp_path / "links"
        edges_run = [command, "--edges", links / cli.EDGES_TSV, "--geo", FIXTURE_GEO,
                     "--out", tmp_path / "edges"]
        if command == "all":
            edges_run += ["--sizes", "10,20,50", "--sets", "40"]
        runs = [fixture_args(links) if command == "all" else stage_args("ingest", links),
                edges_run]
    else:
        run_stages(tmp_path, *cli.ALL_CHAIN[:cli.ALL_CHAIN.index(command)])
        runs = [stage_args(command, tmp_path)]
    assert options_unread(command, runs) == []


def test_geo_name_with_edge_whitespace_meets_its_node(tmp_path):
    edges = tmp_path / "input.tsv"
    edges.write_text("x \tc\nc\td\nd\te\ne\tf\nf\tg\ng\th\nc\tf\nd\tg\n", encoding="utf-8")
    geo = tmp_path / "input.geo"
    geo.write_text("x \tUS\nc\tUS\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run(["ingest", "--edges", edges, "--geo", geo, "--out", out]) == 0
    ingest_line = (out / cli.MANIFEST).read_text(encoding="utf-8").splitlines()[0]
    info = ingest_line.split("\t")[6].split()
    assert "geo_country=2" in info and "geo_unmatched=0" in info
    # the label codes join the name as the graph keeps it
    assert label_codes_of(out) == [{"x ": "US", "c": "US"}, {}]
    for stage in (["features"], ["embed"], ["null", "--sizes", "2,3,4", "--sets", "20"], ["test"]):
        assert run([*stage, "--out", out]) == 0
    rows = [line.split("\t") for line in (out / cli.RESULTS_TSV).read_text().splitlines()
            if not line.startswith("#")]
    assert [row[:3] for row in rows] == [["country", "US", "2"]]


def test_ingest_reports_duplicate_geo_records(tmp_path):
    edges = tmp_path / "input.tsv"
    edges.write_text("N1\tN2\n", encoding="utf-8")
    geo = tmp_path / "input.geo"
    geo.write_text("N1\tUS\tMD\nN1\tFR\t\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run(["ingest", "--edges", edges, "--geo", geo, "--out", out]) == 0
    ingest_line = (out / cli.MANIFEST).read_text(encoding="utf-8").splitlines()[0]
    info = ingest_line.split("\t")[6].split()
    assert "geo_duplicates=1" in info
    # the last record wins, region and all
    assert "geo_country=1" in info and "geo_region=0" in info
    assert label_codes_of(out) == [{"N1": "FR"}, {}]


# ---------------------------------------------------------------------------
# graph handoff: later stages see exactly the graph ingest built
# ---------------------------------------------------------------------------

def check_handoff(out, edges_text):
    """ingest + features on ``edges_text``; compare with the in-memory graph."""
    edges = out / "input.tsv"
    edges.write_text(edges_text, encoding="utf-8")
    reference = gstore.build_graph(parse_edges_tsv(io.StringIO(edges_text)))
    assert run(["ingest", "--edges", edges, "--out", out]) == 0
    assert run(["features", "--out", out]) == 0
    loaded = cli._load_graph(parsed_args("features", out), [])
    assert loaded.equals(reference)
    values = np.load(out / cli.FEATURES_NPY)
    assert np.array_equal(values, compute_all_features(reference))
    return reference


def test_features_stage_sees_the_ingested_graph(tmp_path):
    graph = check_handoff(tmp_path, "b\t#a\nb\tc\nc\td\nd\te\nx \tc\n")
    assert (graph.n, graph.m) == (6, 5)
    assert "#a" in graph.names and "x " in graph.names
    assert np.load(tmp_path / cli.FEATURES_NPY).shape == (6, 4)


def test_later_stages_read_no_tsv_and_no_graph(tmp_path):
    full, isolated = tmp_path / "full", tmp_path / "isolated"
    for out in (full, isolated):
        run_stages(out, "ingest", "features")
    # in ``isolated`` each stage runs without the files it should not read
    unread = {
        "embed": (
            cli.LABELS_TSV, cli.EDGES_TSV, cli.FEATURES_TSV, cli.NEIGHBORS_NPY, cli.NODES_TSV
        ),
        "null": (cli.FEATURES_NPY, cli.MODEL_FILE),
    }
    later = (["embed", "--labeled-only"], ["null"], ["null", "--labeled-only"], ["test"])
    with mock.patch.object(gstore, "parse_geo", side_effect=AssertionError("geo re-parsed")), \
            mock.patch.object(gstore, "read_nodes_tsv", side_effect=AssertionError("names read")):
        for stage, *flags in later:
            for name in unread.pop(stage, ()):
                assert (isolated / name).read_bytes() == (full / name).read_bytes(), name
                (isolated / name).unlink()
            for out in (full, isolated):
                assert run(stage_args(stage, out) + flags) == 0, stage
    for name in (cli.POINTS_NPY, cli.NULL_SAMPLES_TSV, cli.NULL_MODEL_TSV, cli.RESULTS_TSV):
        assert (isolated / name).read_bytes() == (full / name).read_bytes(), name


@pytest.mark.parametrize("flags", [[], ["--labeled-only"]], ids=["all-rows", "labeled-only"])
def test_manifest_lists_the_files_each_stage_reads(tmp_path, flags):
    real_open, real_run_stage = open, cli.run_stage
    opened, read = [], {}

    def recording_open(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, Path)) and not set(mode) & set("wax+"):
            opened.append(Path(file).name)
        return real_open(file, mode, *args, **kwargs)

    def recording_run_stage(stage, cfg):
        opened.clear()
        code = real_run_stage(stage, cfg)
        read[stage] = sorted(opened)
        return code

    with mock.patch.object(cli, "_digest", return_value="-"), \
            mock.patch.object(cli, "run_stage", recording_run_stage), \
            mock.patch("builtins.open", recording_open):
        assert run(fixture_args(tmp_path) + flags) == 0
    assert list(read) == list(cli.ALL_CHAIN)
    for line in (tmp_path / cli.MANIFEST).read_text().splitlines():
        stage, inputs = line.split("\t")[0], line.split("\t")[4]
        listed = sorted(item.rsplit(":", 1)[0] for item in inputs.split(";"))
        assert read[stage] == listed, stage


def test_manifest_records_the_digest_of_the_bytes_read(tmp_path):
    edges = tmp_path / cli.EDGES_TSV
    edges.write_text("# a comment\na\tb\nb\tc\nc\td\nd\te\n", encoding="utf-8")
    parsed = cli._digest(edges)
    assert run(["ingest", "--edges", edges, "--out", tmp_path]) == 0
    assert cli._digest(edges) != parsed  # rewritten in place, without the comment
    inputs = (tmp_path / cli.MANIFEST).read_text(encoding="utf-8").split("\t")[4]
    assert inputs == f"{cli.EDGES_TSV}:{parsed}"


# the fixture's graph-side artifacts as the manifest records them: a change
# that keeps these files byte for byte keeps every digest here
PINNED_DIGESTS = {
    cli.EDGES_TSV: "1d30bfb132a0",
    cli.NODES_TSV: "c81726251481",
    cli.DEGREES_NPY: "85e565143e3e",
    cli.NEIGHBORS_NPY: "3618bf463aa6",
    cli.LABELS_TSV: "8b5df7de12eb",
    cli.LABEL_CODES_NPY: "bfa2316f2947",
    cli.LABEL_GROUPS_TSV: "ea81e008c279",
    cli.FEATURES_TSV: "adff362332f7",
    cli.FEATURES_NPY: "54cd83dabb3c",
}


def test_graph_side_artifacts_keep_their_pinned_digests(tmp_path):
    assert run(["ingest", "--links", FIXTURE_LINKS, "--geo", FIXTURE_GEO, "--out", tmp_path]) == 0
    assert run(["features", "--out", tmp_path]) == 0
    outputs = [line.split("\t")[5] for line in (tmp_path / cli.MANIFEST).read_text().splitlines()]
    recorded = dict(item.split(":") for entry in outputs for item in entry.split(";"))
    assert recorded == PINNED_DIGESTS


def test_a_stage_appends_one_manifest_line_and_a_failed_stage_none(tmp_path, capsys):
    manifest = tmp_path / cli.MANIFEST
    lines = []
    for stage in ("ingest", "features", "embed", "null", "test"):
        run_stages(tmp_path, stage)
        *earlier, last = manifest.read_text().splitlines()
        assert earlier == lines and last.startswith(f"{stage}\t"), stage
        lines.append(last)
    one_node_per_group(tmp_path)
    assert run(stage_args("test", tmp_path)) == 2
    neighbors = tmp_path / cli.NEIGHBORS_NPY
    neighbors.write_bytes(neighbors.read_bytes()[:-8])
    assert run(["features", "--out", tmp_path]) == 2
    assert f"{neighbors}: " in capsys.readouterr().err
    assert manifest.read_text().splitlines() == lines


def test_no_stage_after_ingest_lists_a_people_artifact_as_input(tmp_path):
    assert run(fixture_args(tmp_path) + ["--labeled-only"]) == 0
    lines = [line.split("\t") for line in (tmp_path / cli.MANIFEST).read_text().splitlines()]
    assert [fields[0] for fields in lines] == list(cli.ALL_CHAIN)
    for fields in lines[1:]:
        inputs = {item.split(":")[0] for item in fields[4].split(";")}
        assert not inputs & {cli.LABELS_TSV, cli.EDGES_TSV, cli.FEATURES_TSV}, fields[0]
        if fields[0] != "features":  # the row count comes from degrees.npy
            assert not inputs & {cli.NEIGHBORS_NPY, cli.NODES_TSV}, fields[0]


# names may hold "#", spaces, "\x85" and "\u2028"; ingest strips each line's
# outer whitespace, so the first column starts and the second ends with no space
SOLID, ANY = "ab#é", "ab#é \x85\u2028"
FIRST = st.builds(str.__add__, st.sampled_from(SOLID), st.text(ANY, max_size=3))
SECOND = st.builds(str.__add__, st.text(ANY, max_size=3), st.sampled_from(SOLID))


@given(st.lists(st.tuples(FIRST, SECOND), min_size=1, max_size=12))
@settings(max_examples=40, deadline=None)
def test_handoff_property_over_awkward_names(pairs):
    text = "".join(f"{a}\t{b}\n" for a, b in pairs)
    assume(any(not a.startswith("#") for a, _ in pairs))  # all-comment input
    assume(gstore.build_graph(parse_edges_tsv(io.StringIO(text))).n >= 2)
    with tempfile.TemporaryDirectory() as tmp:
        check_handoff(Path(tmp), text)


@given(st.lists(st.text(ANY, min_size=1, max_size=4), min_size=1, max_size=12, unique=True))
@settings(max_examples=40, deadline=None)
def test_node_list_round_trip_over_awkward_names(names):
    graph = gstore.graph_from_id_edges(sorted(names), [], [])
    text = io.StringIO()
    gstore.write_nodes_tsv(graph, text)
    assert gstore.read_nodes_tsv(io.StringIO(text.getvalue())) == list(graph.names)
    edge_list = gstore.parse_nodes_tsv(io.StringIO(text.getvalue()), gstore.EdgeList())
    assert list(edge_list.ids) == list(graph.names)
    with tempfile.TemporaryDirectory() as tmp:
        cfg = parsed_args("features", tmp)
        cli._write_graph_artifacts(cfg, graph, None)
        assert cli._load_graph(cfg, []).names == graph.names


# ---------------------------------------------------------------------------
# synth subcommand
# ---------------------------------------------------------------------------

def test_synth_gravity_writes_labeled_graph(tmp_path):
    code = run(
        ["synth", "--model", "gravity", "--n", 300, "--groups", 6, "--beta", 2,
         "--stubs", "1,2", "--seed", 3, "--out", tmp_path]
    )
    assert code == 0
    with open(tmp_path / cli.EDGES_TSV) as f:
        graph = gstore.build_graph(parse_edges_tsv(f))
    assert graph.m > 0
    with open(tmp_path / cli.LABELS_TSV) as f:
        labels = parse_geo(f)
    assert len(labels.country) == 300
    assert set(labels.region.values()) <= {"Q0", "Q1", "Q2", "Q3"}


@pytest.mark.parametrize("beta", ["nan", "inf", "200"])
def test_synth_unusable_gravity_beta_exits_2(tmp_path, capsys, beta):
    code = run(["synth", "--model", "gravity", "--n", 50, "--groups", 5, "--beta", beta,
                "--out", tmp_path])
    assert code == 2
    assert "distance" in capsys.readouterr().err
    assert not (tmp_path / cli.EDGES_TSV).exists()


def test_synth_empty_stubs_exits_2(tmp_path, capsys):
    code = run(["synth", "--model", "gravity", "--n", 50, "--groups", 5, "--stubs", ",",
                "--out", tmp_path])
    assert code == 2
    assert "one count >= 1 per group" in capsys.readouterr().err


def test_synth_er_with_random_groups(tmp_path):
    code = run(
        ["synth", "--model", "er", "--n", 500, "--p", 0.02, "--seed", 1,
         "--random-groups", 5, "--group-sizes", "20,40", "--out", tmp_path]
    )
    assert code == 0
    with open(tmp_path / cli.LABELS_TSV) as f:
        labels = parse_geo(f)
    assert len(set(labels.country.values())) == 5


def test_synth_gravity_with_random_groups_exits_2(tmp_path, capsys):
    code = run(["synth", "--model", "gravity", "--n", 50, "--groups", 5, "--random-groups", 3,
                "--out", tmp_path])
    assert code == 2
    assert "--random-groups applies to --model er and ba only" in capsys.readouterr().err
    assert not (tmp_path / cli.EDGES_TSV).exists() and not (tmp_path / cli.MANIFEST).exists()


def test_synth_ba_has_no_labels(tmp_path):
    assert run(["synth", "--model", "ba", "--n", 100, "--attach", 2, "--out", tmp_path]) == 0
    assert not (tmp_path / cli.LABELS_TSV).exists()


def test_synth_feeds_pipeline(tmp_path):
    assert run(
        ["synth", "--model", "gravity", "--n", 400, "--groups", 8, "--beta", 3,
         "--stubs", "1,2,3", "--seed", 11, "--out", tmp_path]
    ) == 0
    code = run(
        ["all", "--edges", tmp_path / cli.EDGES_TSV, "--geo", tmp_path / cli.LABELS_TSV,
         "--out", tmp_path, "--seed", 5, "--sizes", "10,20,50", "--sets", "30"]
    )
    assert code == 0
    assert (tmp_path / cli.RESULTS_TSV).exists()


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def fresh_env(**variables):
    """This environment without BLAS thread settings (importing toposig here set one),
    with this checkout's toposig on the path and ``variables`` added."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    return dict(env, PYTHONPATH=str(Path(cli.__file__).resolve().parent.parent), **variables)


def run_in_fresh_process(code, **variables):
    """Last stdout line of ``code`` run by a new interpreter in ``fresh_env(**variables)``."""
    proc = subprocess.run(
        [sys.executable, "-c", code], env=fresh_env(**variables),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


# thread count and the BLAS thread variables after importing {0}
THREADS_AFTER = (
    "import os, {0}\n"
    f"print(len(os.listdir('/proc/self/task')), *map(os.environ.get, {BLAS_THREAD_VARS!r}))"
)
needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="counts threads in /proc/self/task"
)


@needs_proc
def test_import_leaves_one_thread():
    assert run_in_fresh_process(THREADS_AFTER.format("toposig")) == "1 1 None None"


@needs_proc
@pytest.mark.parametrize("variable", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_import_keeps_a_users_blas_thread_setting(variable):
    # the threads numpy alone starts under the same setting, and no variable changed
    numpy_alone = run_in_fresh_process(THREADS_AFTER.format("numpy"), **{variable: "2"})
    assert "2" in numpy_alone.split()[1:]
    assert run_in_fresh_process(THREADS_AFTER.format("toposig"), **{variable: "2"}) == numpy_alone


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the criterion-7 run, once on one BLAS thread and once on two
    outs = [tmp_path / "one", tmp_path / "two"]
    for out, threads in zip(outs, ("1", "2")):
        args = ["all", "--links", FIXTURE_LINKS, "--geo", FIXTURE_GEO, "--out", out, "--seed", 21,
                "--sizes", "10,20,50,100", "--sets", 60, "--level", "both"]
        proc = subprocess.run(
            [sys.executable, "-m", "toposig.cli", *map(str, args)],
            env=fresh_env(OPENBLAS_NUM_THREADS=threads), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir()) and len(names) >= 10
    for name in names:
        one, two = ((out / name).read_bytes() for out in outs)
        if name == cli.MANIFEST:  # all but each line's timestamp
            one, two = ([line.rsplit(b"\t", 1)[0] for line in text.splitlines()] for text in (one, two))
        assert one == two, name


def test_ingest_does_not_import_scipy_spatial(tmp_path):
    """Loading scipy.spatial costs a process 0.35-0.47 s and 33 MB; ingest never needs it."""
    code = (
        "import sys\n"
        "from toposig import cli\n"
        f"args = ['ingest', '--links', {str(FIXTURE_LINKS)!r}, '--out', {str(tmp_path)!r}]\n"
        "assert cli.main(args) == 0\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    assert run_in_fresh_process(code) == "False"


def test_chains_below_the_pdist_threshold_do_not_import_scipy_spatial(tmp_path):
    # every exact-pair call here is far below nullmodel.PDIST_MIN_PAIRS
    fixture = [str(a) for a in fixture_args(tmp_path / "fixture")]
    demo = str(tmp_path / "demo")
    synth = ["synth", "--model", "gravity", "--n", "2000", "--groups", "10", "--beta", "4",
             "--stubs", "1,2,3", "--seed", "3", "--out", demo]
    chain = ["all", "--edges", f"{demo}/edges.tsv", "--geo", f"{demo}/labels.tsv",
             "--out", demo, "--seed", "3", "--level", "both"]
    code = (
        "import sys\n"
        "from toposig import cli\n"
        f"for args in ({fixture!r}, {synth!r}, {chain!r}):\n"
        "    assert cli.main(args) == 0, args\n"
        "print('scipy.spatial' in sys.modules)\n"
    )
    assert run_in_fresh_process(code) == "False"
    assert (tmp_path / "fixture" / cli.RESULTS_TSV).exists()
    assert (tmp_path / "demo" / cli.RESULTS_TSV).exists()


def test_group_means_past_the_pdist_threshold_load_pdist_and_keep_their_bits():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from toposig import embedding as em, nullmodel as nm\n"
        "pts = np.random.default_rng(4).normal(size=(3000, 4))\n"
        "groups = {'a': np.arange(0, 3000, 2), 'b': np.arange(1, 900), 'c': np.arange(5)}\n"
        "def means():\n"
        "    rngs = [nm._key_rng(2, key) for key in groups]\n"
        "    return em.set_mean_distances(pts, list(groups.values()), rngs, 500_000)\n"
        "numpy_means = means()\n"
        "before = 'scipy.spatial' in sys.modules\n"
        "em.PDIST_MIN_PAIRS = 0\n"
        "pdist_means = means()\n"
        "print(before, 'scipy.spatial' in sys.modules, pdist_means == numpy_means)\n"
    )
    assert run_in_fresh_process(code) == "False True True"


def test_test_stage_picks_one_kernel_for_both_levels(tmp_path, monkeypatch):
    """Levels that pass PDIST_MIN_PAIRS only together are both scored by pdist, to the same bits."""
    from scipy.spatial.distance import pdist

    calls = []
    mean = em.mean_pairwise_distance

    def recording(points, pair_budget, rng, kernel):
        result = mean(points, pair_budget, rng, kernel)
        calls.append((kernel, result))
        return result

    assert run(fixture_args(tmp_path)) == 0
    results = (tmp_path / cli.RESULTS_TSV).read_bytes()
    graph, _ = library_features()
    with open(FIXTURE_GEO, encoding="utf-8") as f:
        labels = parse_geo(f)
    totals = [sum(len(g) * (len(g) - 1) // 2 for g in build(graph, labels).values() if len(g) >= 2)
              for build in (gstore.country_groups, gstore.region_groups)]
    assert max(totals) < sum(totals) <= em.PDIST_MIN_PAIRS
    monkeypatch.setattr(em, "mean_pairwise_distance", recording)
    test_args = stage_args("test", tmp_path)
    assert run(test_args) == 0
    numpy_calls, calls[:] = calls[:], []
    assert {kernel for kernel, _ in numpy_calls} == {em.all_pair_distances}
    assert all(result.exact for _, result in numpy_calls)
    monkeypatch.setattr(em, "PDIST_MIN_PAIRS", max(totals))  # each level alone stays below it
    assert run(test_args) == 0
    assert [kernel for kernel, _ in calls] == [pdist] * len(numpy_calls)
    assert [result for _, result in calls] == [result for _, result in numpy_calls]
    assert (tmp_path / cli.RESULTS_TSV).read_bytes() == results


@pytest.mark.parametrize("stage", ["null", "test"])
def test_sampled_sets_run_before_pdist_loads(tmp_path, stage):
    """A batch past the pdist threshold samples its sets before it imports scipy.spatial."""
    budget = ["--pair-budget", "400"]  # sets and groups of 29 or more nodes are sampled
    run_stages(tmp_path, "ingest", "features", "embed")
    if stage == "test":
        assert run(stage_args("null", tmp_path) + budget) == 0
    args = [str(a) for a in stage_args(stage, tmp_path) + budget]
    code = (
        "import sys\n"
        "from toposig import cli, embedding as em\n"
        "em.PDIST_MIN_PAIRS = 0\n"
        "sampled = em.pair_sample_distances\n"
        "loaded = []  # per call: exact, and whether scipy.spatial was loaded\n"
        "def recording(*args, **kwargs):\n"
        "    before = 'scipy.spatial' in sys.modules\n"
        "    distances, exact = sampled(*args, **kwargs)\n"
        "    loaded.append((exact, before))\n"
        "    return distances, exact\n"
        "em.pair_sample_distances = recording\n"
        f"assert cli.main({args!r}) == 0\n"
        "calls = {(exact, before) for exact, before in loaded}\n"
        "print(sorted(calls), 'scipy.spatial' in sys.modules)\n"
    )
    # sampled calls all ran without scipy.spatial, exact ones all with it
    assert run_in_fresh_process(code) == "[(False, False), (True, True)] True"
