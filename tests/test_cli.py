import argparse
import json
import os

import pytest

from tgraph import assembly
from tgraph.cli import _COMMANDS, build_parser, main
from tgraph.edges import EdgeRecord
from tgraph.monomial import enumerate_ideals

from oracles import journal_lines, journal_record, rewrite_journal


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_ideals_listing(capsys):
    code, out, _ = run(capsys, "ideals", "4")
    assert code == 0
    assert out.splitlines() == [
        "1: 4: <x^4, y>",
        "2: 3+1: <x^3, x*y, y^2>",
        "3: 2+2: <x^2, y^2>",
        "4: 2+1+1: <x^2, x*y, y^3>",
        "5: 1+1+1+1: <x, y^4>",
    ]
    code, out, _ = run(capsys, "ideals", "2", "--json")
    data = json.loads(out)
    assert data["ideals"][0]["ideal"] == "<x^2, y>"


def test_arrowmap_identity_and_enumeration(capsys):
    code, out, _ = run(capsys, "arrowmap", "<x^2, y^2>", "<x^2, y^2>",
                       "--alpha", "1", "--beta", "1")
    assert code == 0 and "identity" in out
    code, out, _ = run(capsys, "arrowmap", "<y^5, x^2>", "<y^2, x^5>",
                       "--alpha", "1", "--beta", "1", "--enumerate",
                       "--json")
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_arrowmap_limit_keeps_the_search_order(capsys):
    # --limit keeps the first maps the search finds, then sorts them
    code, out, _ = run(capsys, "arrowmap", "<x^5, y^2>", "<x^2, y^5>",
                       "--alpha", "1", "--beta", "1", "--enumerate",
                       "--limit", "2")
    assert code == 0
    assert out.splitlines() == [
        "map 1: y^2 -> x^2, y^3 -> x^2*y, y^4 -> x^2*y^2, x*y^2 -> x^3, "
        "x*y^3 -> x^3*y, x*y^4 -> x^2*y^3, x^2*y^2 -> x^4, "
        "x^2*y^3 -> x^4*y",
        "map 2: y^2 -> x^2, y^3 -> x^2*y, y^4 -> x^2*y^2, x*y^2 -> x^3, "
        "x*y^3 -> x^3*y, x*y^4 -> x^2*y^3, x^2*y^2 -> x^4, "
        "x^2*y^3 -> x^3*y^2, x^3*y^2 -> x^4*y",
    ]


def test_arrowmap_negative_verdict(capsys):
    code, out, _ = run(capsys, "arrowmap", "<x^4, x*y, y^3>", "<x^3, y^2>",
                       "--alpha", "1", "--beta", "1")
    assert code == 1


def test_arrowmap_on_a_comparable_pair_without_a_map(capsys):
    # the smallest such pair under the standard grading, at colength 7
    code, out, _ = run(capsys, "arrowmap", "<x^3, x*y, y^5>",
                       "<x^5, x*y, y^3>", "--alpha", "1", "--beta", "1")
    assert code == 1 and out == "no arrow map\n"


@pytest.mark.parametrize("command, message", [
    ("dual", "no dual arrow map: the pair is not comparable"),
    ("edge-ideal", "the pair is not comparable for this grading"),
])
def test_incomparable_pair_exits_one(command, message, capsys):
    code, out, err = run(capsys, command, "<x^4, x*y, y^3>", "<x^3, y^2>",
                         "--alpha", "1", "--beta", "1")
    assert (code, out, err) == (1, message + "\n", "")


_VERDICT_PAIRS = {
    "map": ["<y^5, x^2>", "<y^2, x^5>"],
    "no-map": ["<x^3, x*y, y^5>", "<x^5, x*y, y^3>"],
    "incomparable": ["<x^4, x*y, y^3>", "<x^3, y^2>"],
}


_SCHEMAS = {"arrowmap": "tgraph.arrow-maps/1", "dual": "tgraph.dual/1",
            "edge-ideal": "tgraph.edge-ideal/1", "edge": "tgraph.edge-record/1"}


@pytest.mark.parametrize("pair", _VERDICT_PAIRS)
@pytest.mark.parametrize("command", _SCHEMAS)
def test_json_prints_one_document_for_every_verdict(command, pair, capsys):
    argv = [command, *_VERDICT_PAIRS[pair], "--alpha", "1", "--beta", "1"]
    code, _, _ = run(capsys, *argv)
    json_code, out, err = run(capsys, *argv, "--json")
    assert (json_code, err) == (code, "")
    assert json.loads(out)["schema"] == _SCHEMAS[command]


def test_incomparable_pair_documents(capsys):
    # the pair keeps the order it was given in: neither ideal is on top
    pair = [*_VERDICT_PAIRS["incomparable"], "--alpha", "1", "--beta", "1",
            "--json"]
    code, out, _ = run(capsys, "arrowmap", *pair)
    assert code == 1
    assert json.loads(out) == {"schema": "tgraph.arrow-maps/1", "count": 0,
                               "maps": []}
    for box, given in (([4, 3], []), ([6, 7], ["--r1", "6", "--r2", "7"])):
        code, out, _ = run(capsys, "dual", *pair, *given)
        assert code == 1
        assert json.loads(out) == {"schema": "tgraph.dual/1", "box": box,
                                   "exists": False, "map": None}
    code, out, _ = run(capsys, "edge-ideal", *pair)
    assert code == 1
    assert json.loads(out) == {
        "schema": "tgraph.edge-ideal/1", "pair": pair[:2],
        "grading": {"alpha": 1, "beta": 1}, "variables": [],
        "generators": []}


def test_dual_verdicts(capsys):
    code, out, _ = run(capsys, "dual", "<x^5, x^3*y^2, y^4>",
                       "<x^4, x^3*y^3, x*y^4, y^5>",
                       "--alpha", "1", "--beta", "1")
    assert code == 1 and "does not exist" in out
    code, out, _ = run(capsys, "dual", "<y^5, x^2>", "<y^2, x^5>",
                       "--alpha", "1", "--beta", "1", "--json")
    assert code == 0
    assert json.loads(out)["box"] == [5, 5]
    # a given box replaces the default one
    code, out, _ = run(capsys, "dual", "<y^5, x^2>", "<y^2, x^5>",
                       "--alpha", "1", "--beta", "1", "--r1", "6",
                       "--r2", "7", "--json")
    assert code == 0
    assert json.loads(out)["box"] == [6, 7]
    # half a box is a usage error, even for a pair that is not comparable
    for half in (["--r1", "5"], ["--r2", "5"]):
        code, out, err = run(capsys, "dual", "<x^4, x*y, y^3>", "<x^3, y^2>",
                             "--alpha", "1", "--beta", "1", *half)
        assert code == 3 and out == ""
        assert "give both --r1 and --r2" in err


def test_edge_ideal_output(capsys):
    code, out, _ = run(capsys, "edge-ideal", "<y^5, x^2>", "<y^2, x^5>",
                       "--alpha", "1", "--beta", "1")
    assert code == 0
    assert "F[y^5; x^4*y] = c1^1**4 - 3*c1^1**2*c1^2 + c1^2**2" in out
    assert "F[x^2; x*y] = -c1^1*ct1^2 + ct1^1" in out
    assert "F[x^2; x^2] = -c1^2*ct1^2 + 1" in out


def test_edge_ideal_json(capsys):
    # the pair is oriented, dominating ideal first, whatever order it is
    # given in; a generator entry prints its polynomial as the text form does
    code, out, _ = run(capsys, "edge-ideal", "<y^2, x^5>", "<y^5, x^2>",
                       "--alpha", "1", "--beta", "1", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"schema", "pair", "grading", "variables",
                         "generators"}
    assert data["schema"] == "tgraph.edge-ideal/1"
    assert data["pair"] == ["<x^5, y^2>", "<x^2, y^5>"]
    assert data["grading"] == {"alpha": 1, "beta": 1}
    assert data["variables"][:2] == ["c1^1", "c1^2"]
    assert all(set(gen) == {"n", "s", "poly"} for gen in data["generators"])
    assert {"n": "x^2", "s": "x*y", "poly": "-c1^1*ct1^2 + ct1^1"} in (
        data["generators"])
    code, text, _ = run(capsys, "edge-ideal", "<y^2, x^5>", "<y^5, x^2>",
                        "--alpha", "1", "--beta", "1")
    assert code == 0
    assert [line for line in text.splitlines() if line.startswith("F[")] == [
        f"F[{gen['n']}; {gen['s']}] = {gen['poly']}"
        for gen in data["generators"]]


def test_edge_ideal_of_one_ideal_is_a_usage_error(capsys):
    # a pair of one ideal dominates both ways, so it is oriented, but it has
    # no edge equations; the message says what is wrong, as `edge` does
    code, out, err = run(capsys, "edge-ideal", "<x^2, y>", "<x^2, y>",
                         "--alpha", "1", "--beta", "1")
    assert code == 3 and out == ""
    assert "the two ideals must differ" in err


def test_edge_json_is_an_edge_record(capsys):
    code, out, _ = run(capsys, "edge", "<y^2, x^2*y, x^3>", "<y^3, x*y, x^3>",
                       "--alpha", "1", "--beta", "1", "--dimension",
                       "--char", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"schema", "pair", "grading", "status", "dimension",
                         "generator_count", "groebner", "characteristic"}
    assert data["schema"] == "tgraph.edge-record/1"
    assert data["pair"] == ["<x^3, x^2*y, y^2>", "<x^3, x*y, y^3>"]
    assert data["status"] == "EDGE" and data["dimension"] == 1
    assert data["characteristic"] == 3
    assert set(data["groebner"]) == {"s_pairs"}
    record = EdgeRecord.from_json(data)
    assert record.s_pairs == data["groebner"]["s_pairs"] > 0
    assert record.to_json() == data
    code, out, _ = run(capsys, "edge", "<y^5, x^2>", "<y^2, x^5>",
                       "--alpha", "1", "--beta", "1", "--json")
    data = json.loads(out)
    assert code == 0 and data["characteristic"] == 0
    assert data["dimension"] is None


def test_edge_exit_codes(capsys):
    code, out, _ = run(capsys, "edge", "<y^5, x^2>", "<y^2, x^5>",
                       "--alpha", "1", "--beta", "1")
    assert code == 0 and out.strip() == "EDGE"
    code, out, _ = run(capsys, "edge", "<x^5, x^3*y^2, y^4>",
                       "<x^4, x^3*y^3, x*y^4, y^5>",
                       "--alpha", "1", "--beta", "1")
    assert code == 1 and out.strip() == "NO_EDGE"
    code, out, _ = run(capsys, "edge", "<x^3, x^2*y, y^2>", "<x^3, x*y, y^3>",
                       "--alpha", "1", "--beta", "1", "--budget", "1")
    assert code == 2


class ReadRecorder(argparse.Namespace):
    """A namespace that notes the name of each attribute read from it."""

    def __init__(self):
        super().__init__()
        self._reads = set()

    def __getattribute__(self, name):
        if not name.startswith("_"):
            object.__getattribute__(self, "_reads").add(name)
        return object.__getattribute__(self, name)


_PAIR = ["<x^2, y>", "<x, y^2>", "--alpha", "1", "--beta", "1"]


@pytest.mark.parametrize("argv", [
    ["ideals", "1"],
    ["arrowmap", *_PAIR, "--enumerate"],
    ["dual", *_PAIR],
    ["edge-ideal", *_PAIR],
    ["edge", *_PAIR],
    ["tgraph", "2"],
    ["table", "2", "2"],
    ["verify-fixtures"],
], ids=lambda argv: argv[0])
def test_each_command_declares_exactly_what_it_reads(argv, capsys,
                                                     monkeypatch):
    import tgraph.fixtures

    monkeypatch.delenv("TGRAPH_CACHE_DIR", raising=False)
    monkeypatch.setattr(tgraph.fixtures, "run_all", lambda report: 0)
    parser = build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    assert {a.dest for a in parser._actions} == {"help", "version",
                                                 "command"}
    declared = {a.dest for a in commands.choices[argv[0]]._actions} - {"help"}
    args = parser.parse_args(argv, namespace=ReadRecorder())
    args._reads.clear()
    assert _COMMANDS[argv[0]](args) == 0
    assert args._reads == declared
    if argv[0] == "verify-fixtures":
        assert declared == set()


@pytest.mark.parametrize("argv", [
    ["table", "3", "3", "--threads", "2"],
    ["ideals", "2", "--char", "3"],
    ["tgraph", "3", "--json"],
    ["verify-fixtures", "--output", "f"],
    ["--json", "ideals", "2"],
])
def test_a_command_refuses_options_it_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 3
    err = capsys.readouterr().err
    assert err.startswith("usage: tgraph")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv", [
    ["edge", *_PAIR, "--char", "6"],
    ["edge", *_PAIR, "--budget", "0"],
    ["table", "3", "3", "--budget", "0"],
    ["tgraph", "3", "--threads", "0"],
    ["arrowmap", *_PAIR, "--enumerate", "--limit", "0"],
])
def test_bad_option_values_exit_three_before_any_work(argv, capsys,
                                                      monkeypatch):
    def no_work(args):
        raise AssertionError("the command ran")

    monkeypatch.setitem(_COMMANDS, argv[0], no_work)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 3
    assert f"tgraph {argv[0]}: error: argument --" in capsys.readouterr().err


def test_parse_errors_exit_three(capsys):
    code, _, err = run(capsys, "edge", "x^2, y", "<x, y^2>",
                       "--alpha", "1", "--beta", "1")
    assert code == 3 and "wrapped in <...>" in err
    code, _, err = run(capsys, "edge", "<x^2, y>", "<x, y^2>",
                       "--alpha", "2", "--beta", "4")
    assert code == 3


def test_char_flag_validation():
    with pytest.raises(SystemExit) as info:
        main(["edge", "<x, y>", "<x, y>", "--alpha", "1", "--beta", "1",
              "--char", "6"])
    assert info.value.code == 3


def test_char_flag_above_the_exact_primality_bound(capsys):
    with pytest.raises(SystemExit) as info:
        main(["edge", "<x^2, y>", "<x, y^2>", "--alpha", "1", "--beta", "1",
              "--char", str(2 ** 64 + 13)])
    assert info.value.code == 3
    assert "2**64" in capsys.readouterr().err


def test_threads_flag_validation(monkeypatch):
    import tgraph.assembly

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(tgraph.assembly, "ProcessPoolExecutor", no_pool)
    with pytest.raises(SystemExit) as info:
        main(["tgraph", "4", "--threads", "0"])
    assert info.value.code == 3


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_limit_flag_validation(capsys, limit):
    with pytest.raises(SystemExit) as info:
        main(["arrowmap", "<y^5, x^2>", "<y^2, x^5>", "--alpha", "1",
              "--beta", "1", "--enumerate", "--limit", limit])
    assert info.value.code == 3
    assert ("argument --limit: must be at least 1"
            in capsys.readouterr().err)


def test_limit_without_enumerate_is_a_usage_error(capsys, monkeypatch):
    import tgraph.cli

    def no_work(*args):
        raise AssertionError("the pair was read")

    monkeypatch.setattr(tgraph.cli, "parse_ideal", no_work)
    code, out, err = run(capsys, "arrowmap", "<x^5, y^2>", "<x^2, y^5>",
                         "--alpha", "1", "--beta", "1", "--limit", "2")
    assert (code, out) == (3, "")
    assert err.startswith("tgraph: ") and "--enumerate" in err


def test_unwritable_output_exits_three(tmp_path, capsys):
    target = tmp_path / "missing" / "ideals.txt"
    code, out, err = run(capsys, "ideals", "3", "--output", str(target))
    assert code == 3
    assert out == "" and err.startswith("tgraph: ")
    assert not target.exists()


def test_cache_dir_that_is_a_file_exits_three(tmp_path, capsys):
    path = tmp_path / "cache"
    path.write_text("not a directory", encoding="utf-8")
    code, out, err = run(capsys, "table", "3", "3", "--cache-dir", str(path))
    assert code == 3
    assert out == "" and err.startswith("tgraph: ")
    assert path.read_text(encoding="utf-8") == "not a directory"


def _last_job(d):
    vertices = enumerate_ideals(d)
    (i, j), g = assembly.pair_grading_jobs(vertices)[-1]
    return vertices[i - 1], vertices[j - 1], g


_FATAL_JOB = _last_job(7)


def _worker_dies_on_one_job(job):
    # Module level, so the pool can pickle it by name.
    if job[:3] == _FATAL_JOB:
        os._exit(1)
    return assembly._decide(job)


def test_dead_pool_worker_exits_three_and_keeps_records(tmp_path, capsys,
                                                        monkeypatch):
    cache = tmp_path / "cache"
    monkeypatch.setattr(assembly, "_full_job", _worker_dies_on_one_job)
    code, out, err = run(capsys, "tgraph", "7", "--cache-dir", str(cache),
                         "--threads", "2", "--depth", "full",
                         "--format", "csv")
    monkeypatch.undo()
    assert code == 3
    assert out == "" and err.startswith("tgraph: ")
    assert "Traceback" not in err
    assert [p.suffix for p in cache.iterdir()] == [".jsonl"]
    written = journal_lines(cache)
    assert written
    for line in written:
        assert line.endswith(b"\n")
        EdgeRecord.from_json(journal_record(line))

    code, clean, _ = run(capsys, "tgraph", "7", "--format", "csv")
    assert code == 0
    code, resumed, _ = run(capsys, "tgraph", "7", "--cache-dir", str(cache),
                           "--threads", "1", "--format", "csv")
    assert code == 0
    assert resumed == clean


def test_tgraph_formats(tmp_path, capsys):
    code, out, _ = run(capsys, "tgraph", "4", "--format", "dot")
    assert code == 0 and out.count(" -- ") == 8
    target = tmp_path / "graph.json"
    code, _, _ = run(capsys, "tgraph", "4", "--output", str(target),
                     "--depth", "dual")
    assert code == 0
    data = json.loads(target.read_text())
    assert data["d"] == 4 and data["depth"] == "dual"


def test_tgraph_exits_two_when_a_full_build_leaves_pairs_undecided(capsys):
    code, out, _ = run(capsys, "tgraph", "9", "--budget", "3",
                       "--format", "csv")
    assert code == 2
    assert out.count(",UNKNOWN,") == 26
    # the table reads the same build and agrees
    code, _, _ = run(capsys, "table", "9", "9", "--budget", "3")
    assert code == 2


def test_tgraph_below_full_depth_exits_zero(capsys):
    # below full depth UNKNOWN means the pair passed the filters
    code, out, _ = run(capsys, "tgraph", "9", "--budget", "3",
                       "--depth", "dual", "--format", "csv")
    assert code == 0 and ",UNKNOWN," in out


def test_below_full_depth_no_cache_is_opened(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "cache"
    code, plain, _ = run(capsys, "tgraph", "7", "--depth", "dual")
    assert code == 0
    code, out, _ = run(capsys, "tgraph", "7", "--depth", "dual",
                       "--cache-dir", str(cache))
    assert code == 0 and out == plain
    code, plain, _ = run(capsys, "table", "5", "6", "--depth", "order")
    monkeypatch.setenv("TGRAPH_CACHE_DIR", str(cache))
    code, out, _ = run(capsys, "table", "5", "6", "--depth", "order")
    assert code == 0 and out == plain
    assert not cache.exists()


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "4", "5", "--depth", "dual")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("4,5,10,8,8,8")
    assert lines[2].startswith("5,7,21,15,15,15")


def test_table_json(capsys, monkeypatch):
    # the CSV columns, plus the count of pairs left UNKNOWN, which sets the
    # exit code of a full build
    monkeypatch.delenv("TGRAPH_CACHE_DIR", raising=False)
    columns = ["d", "ideals", "pairs", "pairs_ordered", "pairs_arrowmap",
               "pairs_dual_arrowmap", "edges"]
    code, csv, _ = run(capsys, "table", "4", "5", "--depth", "full")
    assert code == 0
    code, out, _ = run(capsys, "table", "4", "5", "--depth", "full",
                       "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "tgraph.table/1" and data["depth"] == "full"
    assert all(set(row) == {*columns, "unknown"} for row in data["rows"])
    lines = [",".join(str(row[c]) for c in columns) for row in data["rows"]]
    assert [",".join(columns), *lines] == csv.splitlines()
    assert [row["unknown"] for row in data["rows"]] == [0, 0]
    code, out, _ = run(capsys, "table", "4", "4", "--depth", "full",
                       "--budget", "1", "--json")
    assert code == 2
    (row,) = json.loads(out)["rows"]
    assert row["unknown"] == 1 and row["edges"] == 7


def test_cache_warm_run_is_byte_identical(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["table", "4", "4", "--cache-dir", str(cache), "--depth", "full"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    files = sorted(p.name for p in cache.iterdir())
    lines = journal_lines(cache)
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert sorted(p.name for p in cache.iterdir()) == files
    assert journal_lines(cache) == lines


def _digest(line):
    return line.partition(b"\t")[0]


def test_damaged_cache_records_are_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["table", "3", "4", "--cache-dir", str(cache), "--depth", "full"]
    code, clean, _ = run(capsys, *args)
    assert code == 0

    def damage(lines):
        first, second, third = lines[:3]
        # A readable record stored under another pair's digest is stale.
        return ([first[:len(first) // 2] + b"\n",
                 _digest(second) + b"\t" + third.partition(b"\t")[2]]
                + lines[2:])

    first, second, third = rewrite_journal(cache, damage)[:3]
    code, rerun, _ = run(capsys, *args)
    assert code == 0
    assert rerun == clean

    # Both records were appended again; the first as it was, byte for byte,
    # and the second under its own pair next to the stale line.
    after = journal_lines(cache)
    assert first in after
    again = [journal_record(line) for line in after
             if _digest(line) == _digest(second)]
    assert len(again) == 2
    assert journal_record(second) in again and journal_record(third) in again
    assert journal_record(second)["pair"] != journal_record(third)["pair"]


def test_cached_record_missing_a_field_is_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["tgraph", "4", "--dimension", "--cache-dir", str(cache)]
    code, clean, _ = run(capsys, *args)
    assert code == 0
    pair = {"<x^3, x*y, y^2>", "<x^2, y^2>"}
    (line,) = [line for line in journal_lines(cache)
               if set(journal_record(line)["pair"]) == pair]
    intact = journal_record(line)
    assert intact["grading"] == {"alpha": 1, "beta": 1}
    assert intact["dimension"] == 1
    damaged = dict(intact)
    del damaged["dimension"]
    rewrite_journal(cache, lambda lines: [
        _digest(old) + b"\t" + json.dumps(damaged).encode() + b"\n"
        if old == line else old for old in lines])
    code, rerun, _ = run(capsys, *args)
    assert code == 0
    assert rerun == clean
    rewritten = [journal_record(new) for new in journal_lines(cache)
                 if _digest(new) == _digest(line)]
    assert len(rewritten) == 2 and damaged in rewritten
    (rewritten,) = [r for r in rewritten if r != damaged]
    assert rewritten["dimension"] == 1
    assert rewritten == intact


def test_cold_graph_runs_print_the_same_bytes(capsys, monkeypatch):
    # records carry no timings, so a recomputed record prints as a cached one
    monkeypatch.delenv("TGRAPH_CACHE_DIR", raising=False)
    first = run(capsys, "tgraph", "3")
    assert first[0] == 0 and json.loads(first[1])["records"]
    assert run(capsys, "tgraph", "3") == first


def test_verify_fixtures(capsys):
    code, out, _ = run(capsys, "verify-fixtures")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(line.startswith("PASS") for line in lines)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
