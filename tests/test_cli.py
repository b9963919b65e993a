import json
import os

import pytest

from tgraph import assembly
from tgraph.cli import main
from tgraph.edges import EdgeRecord
from tgraph.monomial import enumerate_ideals


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
    code, out, _ = run(capsys, "--json", "ideals", "2")
    data = json.loads(out)
    assert data["ideals"][0]["ideal"] == "<x^2, y>"


def test_arrowmap_identity_and_enumeration(capsys):
    code, out, _ = run(capsys, "arrowmap", "<x^2, y^2>", "<x^2, y^2>",
                       "--alpha", "1", "--beta", "1")
    assert code == 0 and "identity" in out
    code, out, _ = run(capsys, "--json", "arrowmap", "<y^5, x^2>",
                       "<y^2, x^5>", "--alpha", "1", "--beta", "1",
                       "--enumerate")
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_arrowmap_negative_verdict(capsys):
    code, out, _ = run(capsys, "arrowmap", "<x^4, x*y, y^3>", "<x^3, y^2>",
                       "--alpha", "1", "--beta", "1")
    assert code == 1


def test_dual_verdicts(capsys):
    code, out, _ = run(capsys, "dual", "<x^5, x^3*y^2, y^4>",
                       "<x^4, x^3*y^3, x*y^4, y^5>",
                       "--alpha", "1", "--beta", "1")
    assert code == 1 and "does not exist" in out
    code, out, _ = run(capsys, "--json", "dual", "<y^5, x^2>", "<y^2, x^5>",
                       "--alpha", "1", "--beta", "1")
    assert code == 0
    assert json.loads(out)["box"] == [5, 5]


def test_edge_ideal_output(capsys):
    code, out, _ = run(capsys, "edge-ideal", "<y^5, x^2>", "<y^2, x^5>",
                       "--alpha", "1", "--beta", "1")
    assert code == 0
    assert "F[y^5; x^4*y] = c1^1**4 - 3*c1^1**2*c1^2 + c1^2**2" in out
    assert "F[x^2; x*y] = -c1^1*ct1^2 + ct1^1" in out
    assert "F[x^2; x^2] = -c1^2*ct1^2 + 1" in out


def test_edge_exit_codes(capsys):
    code, out, _ = run(capsys, "edge", "<y^5, x^2>", "<y^2, x^5>",
                       "--alpha", "1", "--beta", "1")
    assert code == 0 and out.strip() == "EDGE"
    code, out, _ = run(capsys, "edge", "<x^5, x^3*y^2, y^4>",
                       "<x^4, x^3*y^3, x*y^4, y^5>",
                       "--alpha", "1", "--beta", "1")
    assert code == 1 and out.strip() == "NO_EDGE"
    code, out, _ = run(capsys, "--budget", "1", "edge", "<y^5, x^2>",
                       "<y^2, x^5>", "--alpha", "1", "--beta", "1")
    assert code == 2


def test_parse_errors_exit_three(capsys):
    code, _, err = run(capsys, "edge", "x^2, y", "<x, y^2>",
                       "--alpha", "1", "--beta", "1")
    assert code == 3 and "wrapped in <...>" in err
    code, _, err = run(capsys, "edge", "<x^2, y>", "<x, y^2>",
                       "--alpha", "2", "--beta", "4")
    assert code == 3


def test_char_flag_validation():
    with pytest.raises(SystemExit) as info:
        main(["--char", "6", "edge", "<x, y>", "<x, y>",
              "--alpha", "1", "--beta", "1"])
    assert info.value.code == 3


def test_char_flag_above_the_exact_primality_bound(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--char", str(2 ** 64 + 13), "edge", "<x^2, y>", "<x, y^2>",
              "--alpha", "1", "--beta", "1"])
    assert info.value.code == 3
    assert "2**64" in capsys.readouterr().err


def test_threads_flag_validation(monkeypatch):
    import tgraph.assembly

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(tgraph.assembly, "ProcessPoolExecutor", no_pool)
    with pytest.raises(SystemExit) as info:
        main(["--threads", "0", "tgraph", "4"])
    assert info.value.code == 3


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_limit_flag_validation(capsys, limit):
    with pytest.raises(SystemExit) as info:
        main(["arrowmap", "<y^5, x^2>", "<y^2, x^5>", "--alpha", "1",
              "--beta", "1", "--enumerate", "--limit", limit])
    assert info.value.code == 3
    assert "--limit must be at least 1" in capsys.readouterr().err


def test_unwritable_output_exits_three(tmp_path, capsys):
    target = tmp_path / "missing" / "ideals.txt"
    code, out, err = run(capsys, "--output", str(target), "ideals", "3")
    assert code == 3
    assert out == "" and err.startswith("tgraph: ")
    assert not target.exists()


def test_cache_dir_that_is_a_file_exits_three(tmp_path, capsys):
    path = tmp_path / "cache"
    path.write_text("not a directory", encoding="utf-8")
    code, out, err = run(capsys, "--cache-dir", str(path), "table", "3", "3")
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
    code, out, err = run(capsys, "--cache-dir", str(cache), "--threads", "2",
                         "tgraph", "7", "--depth", "full", "--format", "csv")
    monkeypatch.undo()
    assert code == 3
    assert out == "" and err.startswith("tgraph: ")
    assert "Traceback" not in err
    written = sorted(cache.iterdir())
    assert written
    for path in written:
        assert path.suffix == ".json"
        EdgeRecord.from_json(json.loads(path.read_text(encoding="utf-8")))

    code, clean, _ = run(capsys, "tgraph", "7", "--format", "csv")
    assert code == 0
    code, resumed, _ = run(capsys, "--cache-dir", str(cache), "--threads",
                           "1", "tgraph", "7", "--format", "csv")
    assert code == 0
    assert resumed == clean


def test_tgraph_formats(tmp_path, capsys):
    code, out, _ = run(capsys, "tgraph", "4", "--format", "dot")
    assert code == 0 and out.count(" -- ") == 8
    target = tmp_path / "graph.json"
    code, _, _ = run(capsys, "--output", str(target), "tgraph", "4",
                     "--depth", "dual")
    assert code == 0
    data = json.loads(target.read_text())
    assert data["d"] == 4 and data["depth"] == "dual"


def test_table_csv(capsys):
    code, out, _ = run(capsys, "table", "4", "5", "--depth", "dual")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[1].startswith("4,5,10,8,8,8")
    assert lines[2].startswith("5,7,21,15,15,15")


def test_cache_warm_run_is_byte_identical(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "table", "4", "4", "--depth", "full"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    files = sorted(p.name for p in cache.iterdir())
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert sorted(p.name for p in cache.iterdir()) == files


def test_damaged_cache_records_are_recomputed(tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "table", "3", "4", "--depth", "full"]
    code, clean, _ = run(capsys, *args)
    assert code == 0
    first, second, third = sorted(cache.iterdir())[:3]
    intact = first.read_text(encoding="utf-8")
    first.write_text(intact[:len(intact) // 2], encoding="utf-8")
    # A readable record stored under another pair's name is stale.
    second.write_text(third.read_text(encoding="utf-8"), encoding="utf-8")
    code, rerun, _ = run(capsys, *args)
    assert code == 0
    assert rerun == clean

    # Both records were rewritten; only their timings may differ.
    def untimed(text):
        data = json.loads(text)
        del data["groebner"]["time_ms"]
        return data

    assert untimed(first.read_text(encoding="utf-8")) == untimed(intact)
    assert (json.loads(second.read_text(encoding="utf-8"))["pair"]
            != json.loads(third.read_text(encoding="utf-8"))["pair"])


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
