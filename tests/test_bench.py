import csv
import json

import pytest

from multimodel import BufferPool, ConfigError
from multimodel.bench import (REPORT_COLUMNS, bench_bufferpool, bench_mshj,
                              parse_sweep, pool_workload, replay_events,
                              write_report)
from multimodel.cli import main
from multimodel.executor import Engine, EngineConfig

SMALL = dict(size=(60, 40), tile=(20, 10), repeat=1)


def test_parse_sweep():
    assert parse_sweep("100:1000:3") == [100, 550, 1000]
    assert parse_sweep("50:50:4") == [50]
    with pytest.raises(ConfigError):
        parse_sweep("100:10:3")
    with pytest.raises(ConfigError):
        parse_sweep("abc")


def test_csr_is_two_d_only():
    with pytest.raises(ConfigError):
        bench_mshj(3, "csr", "10:10:1")


def test_strategies_share_checksums_and_report_shape(tmp_path):
    rows = bench_mshj(2, "dense", "300:900:2", "all", seed=11, **SMALL)
    assert len(rows) == 6
    assert all(set(r) == set(REPORT_COLUMNS) for r in rows)
    by_n = {}
    for r in rows:
        by_n.setdefault(r["n"], set()).add(r["checksum"])
    assert all(len(sums) == 1 for sums in by_n.values())

    out = tmp_path / "report.csv"
    write_report(rows, str(out))
    with open(out) as f:
        got = list(csv.DictReader(f))
    assert [list(r.values()) for r in got] and got[0].keys() == set(REPORT_COLUMNS)


def test_rows_reproducible_from_seed():
    a = bench_mshj(2, "coo", "400:400:1", "mshj", seed=23, **SMALL)
    b = bench_mshj(2, "coo", "400:400:1", "mshj", seed=23, **SMALL)
    keys = [c for c in REPORT_COLUMNS if not c.endswith("_ms")]
    assert [{k: r[k] for k in keys} for r in a] == \
        [{k: r[k] for k in keys} for r in b]


def test_capacity_one_tile_separates_strategies():
    rows = bench_mshj(2, "dense", "800:800:1", "all", seed=5,
                      capacity_tiles=1, **SMALL)
    by = {r["strategy"]: r for r in rows}
    distinct = by["mshj"]["tile_pins"]
    assert by["mshj"]["tile_reads"] == distinct  # each tile from disk once
    assert by["probe-only"]["tile_reads"] > distinct
    assert by["probe-only"]["tile_reads"] == by["probe-only"]["tile_pins"]
    assert by["mshj"]["block_scans"] == 3 and by["probe-only"]["block_scans"] == 1


def test_convert_cost_is_separately_recorded():
    rows = bench_mshj(2, "dense", "500:500:1", "convert", seed=9, **SMALL)
    assert rows[0]["convert_ms"] > 0
    assert rows[0]["build_ms"] == 0


def test_extraction_is_reported_beside_build():
    rows = bench_mshj(2, "dense", "500:500:1", "all", seed=9, **SMALL)
    by = {r["strategy"]: r for r in rows}
    assert by["mshj"]["extract_ms"] > 0 and by["probe-only"]["extract_ms"] > 0
    assert by["convert"]["extract_ms"] == 0
    cols = REPORT_COLUMNS
    phases = ["extract_ms", "build_ms", "probe_ms", "emit_ms", "convert_ms"]
    assert cols[cols.index("wall_ms") + 1:][:len(phases)] == phases
    for r in rows:  # one timed repeat: the phases are parts of its wall time
        assert sum(r[p] for p in phases) <= r["wall_ms"] + 0.001 * len(phases)
    assert by["mshj"]["probe_ms"] > 0 and by["mshj"]["emit_ms"] > 0


def test_phases_are_medians_over_the_timed_repeats(monkeypatch):
    import multimodel.bench as bench

    run = bench.dispatch_join
    # per repeat (the first is the warm-up): seconds of each phase
    seconds = iter([9.0, 0.001, 0.005, 0.003, 0.002])

    def fixed(rel, arr, pred, *, stats, **kwargs):
        res = run(rel, arr, pred, stats=stats, **kwargs)
        s = next(seconds)
        stats.extract_seconds, stats.build_seconds = s, 2 * s
        stats.probe_seconds, stats.emit_seconds = 3 * s, 4 * s
        return res

    monkeypatch.setattr(bench, "dispatch_join", fixed)
    [row] = bench_mshj(2, "dense", "200:200:1", "mshj", seed=3,
                       size=(60, 40), tile=(20, 10), repeat=4)
    # median of 1, 5, 3, 2 ms (the warm-up's 9 s is dropped; the last is 2)
    assert [row[p] for p in ("extract_ms", "build_ms", "probe_ms",
                             "emit_ms")] == [2.5, 5.0, 7.5, 10.0]


# ---------------------------------------------------------------- pool bench

def test_unified_wins_on_skewed_working_set():
    rows, events = bench_bufferpool(100_000, "both", seed=3)
    by = {(r["scenario"], r["strategy"]): r for r in rows}
    assert by[("pool-tight", "unified")]["pool_evictions"] == 0
    assert by[("pool-tight", "split")]["pool_evictions"] > 0
    assert by[("pool-roomy", "unified")]["pool_evictions"] == 0
    assert by[("pool-roomy", "split")]["pool_evictions"] == 0
    assert len(events) == sum(r["n"] for r in rows) // 2  # both modes replay it


# (hits, misses, evictions, checksum) per (scenario, mode): the figures of one
# pool with a half-capacity quota per owner, which split mode's two pools
# must reproduce exactly; every event is one lookup, so hits + misses = n
_POOL_PIN = {
    3: {("pool-tight", "unified"): (126, 18, 0, "97d170e1550e"),
        ("pool-tight", "split"): (77, 67, 52, "405369284b62"),
        ("pool-roomy", "unified"): (56, 8, 0, "97d170e1550e"),
        ("pool-roomy", "split"): (56, 8, 0, "97d170e1550e")},
    8: {("pool-tight", "unified"): (126, 18, 0, "97d170e1550e"),
        ("pool-tight", "split"): (77, 67, 52, "845358bb2149"),
        ("pool-roomy", "unified"): (56, 8, 0, "97d170e1550e"),
        ("pool-roomy", "split"): (56, 8, 0, "97d170e1550e")},
}


@pytest.mark.parametrize("capacity", [100_000, 12_345])
@pytest.mark.parametrize("seed", sorted(_POOL_PIN))
def test_pool_bench_rows_pinned(capacity, seed):
    rows, _ = bench_bufferpool(capacity, "both", seed=seed)
    got = {(r["scenario"], r["strategy"]):
           (r["pool_hits"], r["pool_misses"], r["pool_evictions"],
            r["checksum"]) for r in rows}
    assert got == _POOL_PIN[seed]
    assert all(r["pool_hits"] + r["pool_misses"] == r["n"] for r in rows)


def test_pool_bench_matches_reference_simulator():
    from test_buffer_pool import SimPool

    capacity = 64_000
    rows, events = bench_bufferpool(capacity, "unified", seed=17)
    for scen in ("tight", "roomy"):
        pool = BufferPool(capacity)
        sim = SimPool(capacity)
        evicted: list = []
        replay_events(events, dict.fromkeys(("rel", "array"), pool), scen,
                      evicted)
        for s, owner, oid, size in events:
            if s == scen and not sim.get(oid):
                assert sim.add(oid, size) == "ok"
        assert evicted == sim.log


def test_split_pools_need_two_bytes():
    with pytest.raises(ConfigError):
        bench_bufferpool(1, "split")
    rows, _ = bench_bufferpool(1, "unified")
    assert all(r["pool_evictions"] > 0 for r in rows)


def test_pool_workload_deterministic():
    assert pool_workload(50_000, seed=2) == pool_workload(50_000, seed=2)
    assert pool_workload(50_000, seed=2) != pool_workload(50_000, seed=3)


# ---------------------------------------------------------------------- cli

def test_cli_run_and_explain(tmp_path, capsys):
    (tmp_path / "points.csv").write_text("x,y\n1,10\n4,2\n9,1\n")
    script = tmp_path / "q.m2s"
    script.write_text("t = openTable('points')\n"
                      "execute(t.sort('x DESC').limit(1))\n")
    assert main(["run", str(script), "--data", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["x,y", "9,1"]

    assert main(["run", str(script), "--data", str(tmp_path),
                 "--explain"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"nodes", "partitions", "edges", "order", "target"} <= set(doc)


def test_cli_error_paths(tmp_path, capsys):
    script = tmp_path / "q.m2s"
    script.write_text("t = openTable('ghost')\nexecute(t)\n")
    assert main(["run", str(script), "--data", str(tmp_path)]) == 2
    assert "ghost" in capsys.readouterr().err

    script.write_text("execute(nope)\n")
    assert main(["run", str(script), "--data", str(tmp_path)]) == 2
    assert "nope" in capsys.readouterr().err


def test_cli_ingest_round_trip(tmp_path, capsys):
    src = tmp_path / "raw.csv"
    src.write_text("a,b\n1,x\n2,y\n")
    assert main(["ingest", "csv", str(src), "--as", "t",
                 "--data", str(tmp_path / "cat")]) == 0
    script = tmp_path / "q.m2s"
    script.write_text("t = openTable('t')\nexecute(t.project('a').count())\n")
    capsys.readouterr()
    assert main(["run", str(script), "--data", str(tmp_path / "cat")]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "2"


def test_cli_ingest_coo_and_open_array(tmp_path, capsys):
    src = tmp_path / "cells.csv"
    src.write_text("r,c,v\n0,0,1.5\n2,3,2.5\n")
    assert main(["ingest", "coo", str(src), "--as", "grid",
                 "--data", str(tmp_path), "--size", "4,4",
                 "--tile-size", "2,2", "--layout", "coo"]) == 0
    script = tmp_path / "q.m2s"
    script.write_text("g = openArray('grid')\nexecute(g.transpose())\n")
    capsys.readouterr()
    assert main(["run", str(script), "--data", str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "c,r,v"
    assert set(out[1:]) == {"0,0,1.5", "3,2,2.5"}


def test_cli_prints_bool_cells_as_tables_do(tmp_path, capsys):
    (tmp_path / "t.csv").write_text("r,c,b\n0,0,true\n1,1,false\n")
    script = tmp_path / "q.m2s"
    script.write_text("execute(openTable('t').toArray({'r', 'c'}, {'b'}))\n")
    assert main(["run", str(script), "--data", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["r,c,b", "0,0,true",
                                                    "1,1,false"]


@pytest.mark.parametrize("text, printed", [
    ("r,c,v\n0,0,1.5\n\n2,3,-0.25\n", "r,c,v\n0,0,1.5\n2,3,-0.25\n"),
    ("\n r, c,v\n3,1,2.0\n", " r, c,v\n3,1,2.0\n"),
])
def test_cli_coo_text_follows_the_csv_loader_rules(tmp_path, capsys, text,
                                                   printed):
    src = tmp_path / "cells.csv"
    src.write_text(text)
    assert main(["ingest", "coo", str(src), "--as", "grid",
                 "--data", str(tmp_path), "--size", "4,4",
                 "--tile-size", "2,2"]) == 0
    script = tmp_path / "q.m2s"
    script.write_text("execute(openArray('grid'))\n")
    capsys.readouterr()
    assert main(["run", str(script), "--data", str(tmp_path)]) == 0
    assert capsys.readouterr().out == printed


@pytest.mark.parametrize("text, line", [
    ("r,c,v\n0,0,1.5\n1,1,abc\n", 3),  # non-numeric value
    ("r,c,v\n\n0,-1,1.0\n", 3),  # negative coordinate
    ("r,c,v\n0,0,\n", 2),  # empty value cell
    ("r,c,v\n0,0,1\n\n1,1,\n", 4),  # empty value cell after a blank line
    ("r,c,v\n0,0,true\n,1,false\n", 3),  # empty coordinate cell
    ("r,c,v\n0,0,1\n1,1,1180591620717411303424\n", 3),  # int beyond int64
    ("r,c,v\n0,0,1\n1,1,2\n0,0,3\n", 4),  # repeated cell
    ("r,c,v\n0,0,1\n9,0,2\n", 3),  # coordinate outside --size
])
def test_cli_bad_coo_cell_is_one_line(tmp_path, capsys, text, line):
    src = tmp_path / "cells.csv"
    src.write_text(text)
    assert main(["ingest", "coo", str(src), "--as", "grid",
                 "--data", str(tmp_path / "cat"), "--size", "4,4"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert f"dataset 'grid', line {line}:" in err[0]
    assert not (tmp_path / "cat" / "grid.m2ar").exists()


@pytest.mark.parametrize("text, message", [
    ("r,c,v\n0,0,1\n1,1,1180591620717411303424\n",
     "line 3: value attribute 'v' must fit in a signed 64-bit integer, "
     "got 1180591620717411303424"),
    ("r,c,v\n0,0,1\n18446744073709551615,1,2\n",
     "line 3: dimension attribute 'r' must fit in a signed 64-bit integer, "
     "got 18446744073709551615"),
    ("r,c,v\n0,0,1\n9,0,2\n",
     "line 3: coordinate (9, 0) outside array size (4, 4)"),
])
def test_cli_bad_coo_cell_is_named_by_its_line_only(tmp_path, capsys, text,
                                                    message):
    src = tmp_path / "big.csv"
    src.write_text(text)
    assert main(["ingest", "coo", str(src), "--as", "big",
                 "--data", str(tmp_path), "--size", "4,4",
                 "--tile-size", "2,2"]) == 2
    assert capsys.readouterr().err == f"error: dataset 'big', {message}\n"


@pytest.mark.parametrize("cells, kind", [
    (["7", "-2", "40"], "int"),
    (["1.5", "-0.25", "2.0"], "float"),
    (["true", "false", "true"], "bool"),
])
def test_printed_array_reads_back_with_its_type(tmp_path, capsys, cells,
                                                kind):
    """``run`` prints an array; ``ingest coo`` of that text, printed again,
    gives the same text and the same value type."""
    rows = "".join(f"{r},{c},{v}\n" for (r, c), v in
                   zip([(0, 0), (1, 1), (2, 0)], cells))
    (tmp_path / "t.csv").write_text("r,c,v\n" + rows)
    script = tmp_path / "q.m2s"
    script.write_text("execute(openTable('t').toArray({'r', 'c'}, {'v'}))\n")
    capsys.readouterr()
    assert main(["run", str(script), "--data", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    original = Engine(EngineConfig(data_dir=str(tmp_path))).run(
        script.read_text())
    (tmp_path / "cells.csv").write_text(printed)
    assert main(["ingest", "coo", str(tmp_path / "cells.csv"), "--as",
                 "grid", "--data", str(tmp_path), "--size", "3,2"]) == 0
    script.write_text("execute(openArray('grid'))\n")
    capsys.readouterr()
    assert main(["run", str(script), "--data", str(tmp_path)]) == 0
    assert capsys.readouterr().out == printed
    back = Engine(EngineConfig(data_dir=str(tmp_path))).run(script.read_text())
    assert [str(t) for t in back.meta.schema.attr_types] == [kind]
    assert back.meta.schema.attr_types == original.meta.schema.attr_types


@pytest.mark.parametrize("argv", [
    ["run", "q.m2s", "--buffer-bytes", "0"],
    ["run", "q.m2s", "--buffer-bytes", "-5"],
    ["ingest", "coo", "cells.csv", "--as", "g", "--size", "4,x"],
    ["ingest", "coo", "cells.csv", "--as", "g", "--size", "4,4,4",
     "--tile-size", "0,2,2"],
    ["ingest", "coo", "cells.csv", "--as", "g", "--size", "4,4",
     "--tile-size", "2"],
    ["ingest", "coo", "cells.csv", "--as", "g", "--size", "4,4,4",
     "--layout", "csr"],
])
def test_cli_bad_option_is_one_line(tmp_path, capsys, monkeypatch, argv):
    (tmp_path / "cells.csv").write_text("x,y,z,v\n0,0,0,1.0\n")
    (tmp_path / "q.m2s").write_text("execute(rand({2, 2}))\n")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_bench_pool_writes_report(tmp_path, capsys):
    out = tmp_path / "pool.csv"
    assert main(["bench", "pool", "--capacity", "100000",
                 "--out", str(out)]) == 0
    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert {r["scenario"] for r in rows} == {"pool-tight", "pool-roomy"}
