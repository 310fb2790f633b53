import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import fake_clock
from hypothesis import given, settings
from hypothesis import strategies as st

import coinwalk
from coinwalk.cli import main, write_series_csv
from coinwalk.runner import RunSeries


DATA = Path(__file__).parent / "data"


def run_cli(*argv):
    return main(list(argv))


class TestGoldenOutputs:
    """Written files stay byte-identical to the recorded copies in tests/data."""

    @pytest.mark.parametrize(
        "argv,files",
        [
            (
                ["table", "--sizes", "40", "--blocks", "3,5", "--coins", "akr,grover",
                 "--output", "{out}/table"],
                ["table_rows.csv", "table_ratios.csv"],
            ),
            (
                ["simulate", "--n", "20", "--block", "3x3", "--coin", "grover",
                 "--output", "{out}/series.csv"],
                ["series.csv", "series.summary.json"],
            ),
            *(
                (
                    ["graph-sim", "--graph", "{data}/graph.txt", "--marked-file",
                     "{data}/graph_marked.txt", "--coin", coin, "--horizon", "300",
                     "--output", f"{{out}}/graph_{coin}.csv"],
                    [f"graph_{coin}.csv", f"graph_{coin}.summary.json"],
                )
                for coin in ("akr", "grover")
            ),
            # a degree-65 hub, every degree 2..8 and a marked vertex of degree 12;
            # the odd horizon ends the run on the walk's coin-and-gather step
            *(
                (
                    ["graph-sim", "--graph", "{data}/hub.txt", "--marked-file",
                     "{data}/hub_marked.txt", "--coin", coin, "--horizon", "301",
                     "--output", f"{{out}}/hub_{coin}.csv"],
                    [f"hub_{coin}.csv", f"hub_{coin}.summary.json"],
                )
                for coin in ("akr", "grover")
            ),
            (
                ["verify", "--n", "8", "--block", "2x4", "--output", "{out}/verify_grid_oracle.json"],
                ["verify_grid_oracle.json"],
            ),
            (
                ["verify", "--n", "30", "--block", "4x6", "--output", "{out}/verify_grid.json"],
                ["verify_grid.json"],
            ),
            (
                ["verify", "--graph-ring", "3,3", "--output", "{out}/verify_ring.json"],
                ["verify_ring.json"],
            ),
            (
                ["table", "--sizes", "40", "--blocks", "3,5", "--format", "json",
                 "--output", "{out}/table"],
                ["table_rows.json", "table_ratios.json"],
            ),
        ],
        ids=["table", "simulate", "graph-akr", "graph-grover", "hub-akr", "hub-grover",
             "verify-grid-oracle", "verify-grid", "verify-ring", "table-json"],
    )
    def test_files_byte_identical(self, argv, files, tmp_path):
        assert run_cli(*(a.format(out=tmp_path, data=DATA) for a in argv)) == 0
        for name in files:
            assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


class TestSimulate:
    def test_block_run_writes_series_and_summary(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli(
            "simulate", "--n", "30", "--block", "3x3", "--coin", "akr",
            "--horizon", "120", "--output", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [int(r["step"]) for r in rows] == list(range(121))
        assert all(0.0 <= float(r["probability"]) <= 1.0 for r in rows)
        assert float(rows[0]["overlap"]) == pytest.approx(1.0)
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["n"] == 30 and summary["k"] == 9 and summary["scheme"] == "akr"
        assert summary["halt_step"] is not None
        assert summary["runtime"] == pytest.approx(
            summary["halt_step"] / math.sqrt(summary["halt_probability"]), rel=1e-6
        )

    def test_empty_cells_all_zero_probability(self, tmp_path):
        out = tmp_path / "empty.csv"
        code = run_cli(
            "simulate", "--n", "20", "--cells", "", "--coin", "grover",
            "--horizon", "15", "--output", str(out),
        )
        assert code == 0
        rows = csv.DictReader(out.read_text().splitlines())
        assert all(float(r["probability"]) == 0.0 for r in rows)

    def test_json_format_round_trip(self, tmp_path):
        out = tmp_path / "run.json"
        code = run_cli(
            "simulate", "--n", "16", "--block", "2x1", "--coin", "grover",
            "--horizon", "40", "--format", "json", "--output", str(out),
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert len(data["probability"]) == 41
        assert data["overlap"][0] == 1.0

    def test_no_overlap_flag(self, tmp_path):
        out = tmp_path / "run.csv"
        run_cli(
            "simulate", "--n", "16", "--block", "3x3", "--coin", "akr",
            "--horizon", "20", "--no-overlap", "--output", str(out),
        )
        assert "overlap" not in next(csv.reader(out.read_text().splitlines()))

    def test_both_descriptors_rejected(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--n", "16", "--block", "2x2", "--cells", "1,1",
            "--coin", "akr", "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "descriptor" in capsys.readouterr().err

    def test_no_descriptor_rejected(self, tmp_path):
        assert run_cli("simulate", "--n", "16", "--coin", "akr") == 2

    def test_bad_block_syntax_rejected(self, tmp_path):
        code = run_cli(
            "simulate", "--n", "16", "--block", "2by2", "--coin", "akr",
            "--output", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_wrapped_origin_equals_reduced_origin(self, tmp_path, capsys):
        for name, origin in (("wrapped", "19,-11"), ("reduced", "9,9")):
            argv = ["simulate", "--n", "10", "--block", f"2x2@{origin}", "--coin", "akr",
                    "--horizon", "30", "--output", str(tmp_path / f"{name}.csv")]
            assert run_cli(*argv) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["k"] == 4
        for suffix in (".csv", ".summary.json"):
            wrapped = (tmp_path / "wrapped").with_suffix(suffix).read_bytes()
            assert wrapped == (tmp_path / "reduced").with_suffix(suffix).read_bytes()

    def test_output_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("COINWALK_OUTPUT_DIR", str(tmp_path / "outs"))
        code = run_cli("simulate", "--n", "12", "--cells", "1,1", "--coin", "akr", "--horizon", "5")
        assert code == 0
        assert (tmp_path / "outs" / "series.csv").is_file()


    @pytest.mark.parametrize(
        "argv,steps,code",
        [(["--block", "3x3", "--coin", "grover", "--horizon", "200"], 64, 3),
         # no time left, but the run ends at its halt step before the first check
         (["--block", "3x3", "--coin", "akr", "--horizon", "200", "--stop-at-halt"], 23, 0),
         (["--block", "3x3", "--coin", "grover", "--horizon", "64"], 64, 0)],
        ids=["stopped", "halted", "horizon"],
    )
    def test_zero_budget_writes_the_steps_run(self, argv, steps, code, tmp_path, monkeypatch, capsys):
        # one clock read for the deadline; the run's first check, at step 64, finds it spent
        fake_clock(monkeypatch, 1)
        out = tmp_path / "s.csv"
        assert run_cli("simulate", "--n", "20", *argv, "--budget", "0", "--output", str(out)) == code
        assert len(out.read_text().splitlines()) == steps + 2
        err = capsys.readouterr().err
        if code:
            assert err == f"truncated: stopped after {steps} of 200 steps, time budget exceeded\n"
        else:
            assert err == ""


class TestVerify:
    def test_grid_domino_passes(self, capsys):
        assert run_cli("verify", "--n", "100", "--block", "1x2") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["residual"] <= 1e-12
        assert report["conditions"] == {
            "uniform_unmarked": True, "zero_sum_marked": True, "facing_equal": True,
        }
        assert report["delta_norm_sq"] == pytest.approx(8e-4, rel=1e-6)

    def test_grid_odd_odd_exit_4(self, capsys):
        assert run_cli("verify", "--n", "100", "--block", "3x3") == 4
        assert "odd-by-odd" in capsys.readouterr().err

    def test_grid_small_n_includes_oracle(self, capsys):
        assert run_cli("verify", "--n", "8", "--block", "2x2") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle_residual"] <= 1e-12

    def test_graph_two_marked(self, capsys):
        assert run_cli("verify", "--graph-two-marked", "--k", "3") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] and report["oracle_residual"] <= 1e-12

    def test_graph_three(self, capsys):
        assert run_cli("verify", "--graph-three", "1,2,3") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["conditions"]["arc_symmetric"] is True

    def test_graph_ring(self):
        assert run_cli("verify", "--graph-ring", "4,2") == 0

    @pytest.mark.parametrize(
        "target", [["--n", "8", "--block", "2x4"], ["--graph-ring", "3,3"]], ids=["grid", "graph"]
    )
    @pytest.mark.parametrize(
        "reads,stage", [(1, "the witness"), (2, "the step"), (3, "the dense oracle"), (4, None)]
    )
    def test_zero_budget_stops_between_stages(self, target, reads, stage, tmp_path, monkeypatch, capsys):
        # the deadline takes the first clock read and the end of every stage but the
        # decomposition one more, so the clock that turns after `reads` reads stops the
        # command after the stage that read it; both targets build the dense oracle
        fake_clock(monkeypatch, reads)
        out = tmp_path / "report.json"
        code = run_cli("verify", *target, "--budget", "0", "--output", str(out))
        captured = capsys.readouterr()
        if stage is None:
            assert code == 0
            assert json.loads(out.read_text())["oracle_residual"] <= 1e-12
        else:
            assert code == 3
            assert captured.err == f"truncated: stopped after {stage}, time budget exceeded\n"
            assert captured.out == "" and not out.exists()

    def test_impossible_tolerance_exit_1(self):
        # the residual here is 6.9e-18, above a zero tolerance, so the verification must
        # report failure (a negative tolerance is a configuration error, exit 2)
        assert run_cli("verify", "--n", "10", "--block", "1x2", "--tolerance", "0") == 1

    def test_failed_condition_fails_verify(self, monkeypatch, capsys):
        monkeypatch.setattr("coinwalk.cli.check_conditions", lambda *a, **k: (True, False, True))
        assert run_cli("verify", "--n", "12", "--block", "2x2") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["residual"] <= report["tolerance"]
        assert report["passed"] is False

    @pytest.mark.parametrize("origin", ["9,9", "-1,-1", "19,-11"])
    def test_explicit_origin_reduced_mod_n(self, origin, capsys):
        # at, below and past the seam: one block, wrapped on both axes
        assert run_cli("verify", "--n", "10", "--block", f"2x4@{origin}") == 0
        text = capsys.readouterr().out
        report = json.loads(text)
        assert report["block"] == "2x4@9,9"
        assert run_cli("verify", "--n", "10", "--block", "2x4@9,9") == 0
        assert capsys.readouterr().out == text
        assert run_cli("verify", "--n", "10", "--block", "2x4") == 0
        centred = json.loads(capsys.readouterr().out)
        assert centred["block"] == "2x4@4,3"
        assert report["conditions"] == centred["conditions"]
        assert report["passed"] is centred["passed"] is True

    @pytest.mark.parametrize("block", ["100000x2", "2x1000000000"])
    def test_oversized_block_exit_2_at_once(self, block, capsys):
        # rejected before any work that grows with the block's area
        assert run_cli("verify", "--n", "8", "--block", block) == 2
        assert capsys.readouterr().err == f"error: --block: {block} block wraps onto itself on a side-8 torus\n"

    def test_library_fault_not_labelled_as_block(self, monkeypatch, capsys):
        # only _parse_block's checks speak for --block; a fault past them keeps its own message
        def fault(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr("coinwalk.cli.build_block_layered", fault)
        assert run_cli("verify", "--n", "8", "--block", "2x4") == 2
        assert capsys.readouterr().err == "error: internal fault\n"

    def test_needs_exactly_one_target(self):
        assert run_cli("verify", "--n", "10") == 2
        assert run_cli("verify", "--graph-two-marked", "--graph-ring", "3,2", "--k", "1") == 2

    def test_report_file_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run_cli("verify", "--n", "12", "--block", "2x2", "--output", str(out)) == 0
        assert json.loads(out.read_text())["passed"] is True


class TestTable:
    def test_small_table_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = run_cli("table", "--sizes", "40", "--blocks", "3", "--coins", "akr,grover")
        assert code == 0
        rows = list(csv.DictReader(Path("table_rows.csv").read_text().splitlines()))
        ratios = list(csv.DictReader(Path("table_ratios.csv").read_text().splitlines()))
        assert {r["scheme"] for r in rows} == {"akr", "grover"}
        assert len(ratios) == 1 and int(ratios[0]["k"]) == 9
        akr = next(r for r in rows if r["scheme"] == "akr")
        assert float(akr["runtime"]) == pytest.approx(
            int(akr["steps"]) / math.sqrt(float(akr["probability"])), rel=1e-6
        )

    def test_json_output(self, tmp_path):
        prefix = str(tmp_path / "t")
        code = run_cli(
            "table", "--sizes", "30", "--blocks", "3", "--format", "json",
            "--output", prefix,
        )
        assert code == 0
        rows = json.loads(Path(prefix + "_rows.json").read_text())
        assert rows and rows[0]["n"] == 30

    def test_prefix_holding_rows_names_both_files_from_it(self, tmp_path, capsys):
        prefix = str(tmp_path / "run_rows.v1")
        assert run_cli("table", "--sizes", "10", "--blocks", "3", "--output", prefix) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run_rows.v1_ratios.csv", "run_rows.v1_rows.csv"]
        assert f"and {prefix}_ratios.csv (1 ratios)" in capsys.readouterr().out

    def test_repeated_cell_written_once(self, tmp_path):
        prefix = str(tmp_path / "t")
        argv = ["--sizes", "10,10", "--blocks", "3,3", "--coins", "akr,grover,akr", "--output", prefix]
        assert run_cli("table", *argv) == 0
        rows = csv.DictReader(Path(prefix + "_rows.csv").read_text().splitlines())
        assert [(int(r["n"]), int(r["k"]), r["scheme"]) for r in rows] == [(10, 9, "akr"), (10, 9, "grover")]
        assert len(list(csv.DictReader(Path(prefix + "_ratios.csv").read_text().splitlines()))) == 1

    def test_empty_sizes_exit_2(self):
        assert run_cli("table", "--sizes", "", "--blocks", "3") == 2

    def test_large_without_opt_in_exit_2(self, capsys):
        assert run_cli("table", "--sizes", "500", "--blocks", "3") == 2
        assert "large" in capsys.readouterr().err.lower()

    def test_zero_budget_exit_3(self, tmp_path, capsys):
        prefix = str(tmp_path / "t")
        code = run_cli(
            "table", "--sizes", "30", "--blocks", "3", "--budget", "0",
            "--output", prefix,
        )
        assert code == 3
        assert "truncated" in capsys.readouterr().err

    def test_bad_coin_exit_2(self):
        assert run_cli("table", "--sizes", "30", "--blocks", "3", "--coins", "fourier") == 2


class TestGraphSim:
    def test_triangle_run(self, tmp_path, capsys):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("# triangle\n0 1\n1 2\n2 0\n")
        marked_file = tmp_path / "m.txt"
        marked_file.write_text("0\n")
        out = tmp_path / "gs.csv"
        code = run_cli(
            "graph-sim", "--graph", str(graph_file), "--marked-file", str(marked_file),
            "--coin", "grover", "--horizon", "25", "--output", str(out),
        )
        assert code == 0
        assert len(list(csv.DictReader(out.read_text().splitlines()))) == 26
        summary = json.loads(out.with_suffix(".summary.json").read_text())
        assert summary["k"] == 1

    def test_no_marked_file_means_no_marks(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("0 1\n1 2\n2 0\n")
        out = tmp_path / "gs.csv"
        code = run_cli(
            "graph-sim", "--graph", str(graph_file), "--coin", "akr",
            "--horizon", "10", "--output", str(out),
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert all(float(r["probability"]) == 0.0 for r in rows)
        assert all(float(r["overlap"]) == 1.0 for r in rows)

    def test_zero_budget_exit_3(self, tmp_path, monkeypatch, capsys):
        # one clock read for the deadline; the run's first check, at step 64, finds it spent
        fake_clock(monkeypatch, 1)
        out = tmp_path / "gs.csv"
        code = run_cli(
            "graph-sim", "--graph", str(DATA / "graph.txt"), "--marked-file", str(DATA / "graph_marked.txt"),
            "--coin", "grover", "--horizon", "300", "--budget", "0", "--output", str(out),
        )
        assert code == 3
        assert len(list(csv.DictReader(out.read_text().splitlines()))) == 65
        assert json.loads(out.with_suffix(".summary.json").read_text())["halt_step"] == 5
        assert capsys.readouterr().err == "truncated: stopped after 64 of 300 steps, time budget exceeded\n"

    def test_missing_graph_file_exit_2(self, tmp_path):
        assert run_cli("graph-sim", "--graph", str(tmp_path / "nope.txt"), "--coin", "akr") == 2

    @pytest.mark.parametrize("what", ["graph file", "marked-vertex file"])
    def test_unreadable_file_exit_2(self, what, tmp_path, monkeypatch, capsys):
        files = {"graph file": tmp_path / "g.txt", "marked-vertex file": tmp_path / "m.txt"}
        files["graph file"].write_text("0 1\n1 2\n2 0\n")
        files["marked-vertex file"].write_text("0\n")

        def graph_sim_error() -> str:
            code = run_cli(
                "graph-sim", "--graph", str(files["graph file"]),
                "--marked-file", str(files["marked-vertex file"]), "--coin", "grover",
                "--horizon", "5", "--output", str(tmp_path / "gs.csv"),
            )
            assert code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            return err

        read_text = Path.read_text

        def denied(path, *args, **kwargs):
            if path == files[what]:
                raise PermissionError(13, "Permission denied", str(path))
            return read_text(path, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "read_text", denied)
            assert graph_sim_error() == f"error: cannot read {what}: [Errno 13] Permission denied: '{files[what]}'\n"
        # a file that is not text is named the same way
        files[what].write_bytes(b"\xff0 1\n")
        with pytest.raises(UnicodeDecodeError) as decode_error:
            files[what].read_text()
        assert graph_sim_error() == f"error: cannot read {what}: {decode_error.value}\n"

    def test_out_of_range_marked_exit_2(self, tmp_path):
        graph_file = tmp_path / "g.txt"
        graph_file.write_text("0 1\n1 2\n2 0\n")
        marked_file = tmp_path / "m.txt"
        marked_file.write_text("7\n")
        assert run_cli(
            "graph-sim", "--graph", str(graph_file), "--marked-file", str(marked_file),
            "--coin", "akr",
        ) == 2


class TestInvalidInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "1", "--block", "1x1", "--coin", "akr"],
            ["simulate", "--n", "10", "--block", "2x2", "--coin", "akr", "--horizon", "0"],
            ["verify", "--graph-three", "1,2"],
            ["verify", "--graph-three", "1,2,3,4"],
            ["verify", "--graph-ring", "1,1"],
            ["graph-sim", "--graph", "{self_loop}", "--coin", "grover"],
            ["table", "--sizes", "10", "--blocks", "2", "--horizon", "0"],
            ["graph-sim", "--graph", "{huge_id}", "--coin", "grover"],
            ["verify", "--n", "10", "--block", "2x2", "--tolerance", "nan"],
            ["verify", "--n", "10", "--block", "2x2", "--tolerance=-1e-3"],
            # an id far beyond the edge count, through the array path and the line loop
            *(
                ["graph-sim", "--graph", f"{{{name}}}", "--coin", "grover"]
                for name in ("far_id", "far_id_lines", "top_id", "top_id_lines")
            ),
            ["table", "--sizes", "10", "--blocks", "2", "--budget", "nan"],
            ["table", "--sizes", "10", "--blocks", "2", "--budget=-1"],
            # a torus side below 2, before anything divides by it or reduces modulo it
            ["verify", "--n", "0", "--block", "1x2"],
            ["verify", "--n", "0", "--block", "1x2@1,1"],
            ["simulate", "--n", "0", "--block", "1x2@1,1", "--coin", "akr"],
            ["verify", "--n", "-2", "--block", "1x2"],
            ["simulate", "--n", "0", "--cells", "", "--coin", "akr"],
            # a side whose 4 n^2 amplitudes no array can index, and a series larger than memory
            ["simulate", "--n", "99999999999999999999", "--block", "2x2@-1,-1", "--coin", "akr"],
            ["verify", "--n", "99999999999999999999", "--block", "1x2"],
            ["simulate", "--n", "10", "--block", "2x2", "--coin", "akr", "--horizon", str(10**15)],
            ["graph-sim", "--graph", "{ring}", "--coin", "grover", "--horizon", str(10**15)],
            ["table", "--sizes", "10", "--blocks", "2", "--horizon", str(10**15)],
            # a state or a dense oracle larger than memory, rejected before allocating it
            ["verify", "--n", "400", "--block", "1x2", "--oracle-cap", "400"],
            ["verify", "--graph-two-marked", "--k", "40000", "--oracle-cap", "10000000"],
            ["simulate", "--n", "1000000", "--cells", "0,0", "--coin", "akr", "--horizon", "1"],
            # malformed descriptors and missing arguments
            ["simulate", "--n", "10", "--cells", "1,2,3", "--coin", "akr"],
            ["simulate", "--n", "10", "--cells", "a,b", "--coin", "akr"],
            ["simulate", "--n", "10", "--block", "0x2", "--coin", "akr"],
            ["table", "--sizes", "x", "--blocks", "2"],
            ["table", "--sizes", "10", "--blocks", "2", "--coins", ","],
            ["verify", "--graph-two-marked"],
            ["verify", "--graph-ring", "3"],
            ["verify", "--block", "1x2"],
            ["graph-sim", "--graph", "{ring}", "--marked-file", "{missing}", "--coin", "akr"],
            # a graph witness larger than memory, rejected before its edge list is built
            ["verify", "--graph-two-marked", "--k", "99999999999999999999"],
            ["verify", "--graph-ring", "3,99999999999"],
            ["verify", "--graph-three", "1,1,99999999999"],
            # a block side that does not fit some size, found before any cell runs or the budget ends
            ["table", "--sizes", "10", "--blocks", "11", "--budget", "0"],
            ["table", "--sizes", "10", "--blocks", "0", "--budget", "0"],
            ["table", "--sizes", "200,10", "--blocks", "3,11"],
            # a horizon below 1 or beyond memory, found before the budget ends
            ["table", "--sizes", "10", "--blocks", "1", "--horizon", "0", "--budget", "0"],
            ["table", "--sizes", "10", "--blocks", "1", "--horizon", "-1", "--budget", "0"],
            ["table", "--sizes", "10", "--blocks", "1", "--horizon", str(10**15), "--budget", "0"],
            # a NaN or negative budget, found before the walk or the graph file is read
            ["simulate", "--n", "10", "--block", "2x2", "--coin", "akr", "--budget", "nan"],
            ["graph-sim", "--graph", "{missing}", "--coin", "grover", "--budget=-1"],
        ],
    )
    def test_exit_2_without_traceback(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COINWALK_OUTPUT_DIR", str(tmp_path))
        graph_texts = {
            "self_loop": "0 1\n1 1\n",
            "huge_id": "0 1\n1 99999999999999999999\n",
            "far_id": "3000000000 0\n",
            "far_id_lines": "# comment\n3000000000 0\n",
            "top_id": "999999999999999999 0\n",
            "top_id_lines": "# comment\n999999999999999999 0\n",
            "ring": "0 1\n1 2\n2 0\n",
        }
        files = {name: tmp_path / f"{name}.txt" for name in graph_texts}
        for name, text in graph_texts.items():
            files[name].write_text(text)
        argv = [a.format(**files, missing=tmp_path / "missing.txt") for a in argv]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("n", ["-2", "0", "1"])
    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_side_below_two_named(self, command, n, capsys):
        coin = ["--coin", "akr"] if command == "simulate" else []
        assert run_cli(command, "--n", n, "--block", "1x2@1,1", *coin) == 2
        assert capsys.readouterr().err == f"error: grid side must be at least 2, got {n}\n"

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_side_too_large_to_index_named(self, command, capsys):
        n = "1518500250"  # the smallest side with 4 n^2 above the int64 maximum
        coin = ["--coin", "akr"] if command == "simulate" else []
        assert run_cli(command, "--n", n, "--block", "1x2", *coin) == 2
        assert capsys.readouterr().err == (
            f"error: grid side {n} is too large: its 4 n^2 amplitudes cannot be indexed\n"
        )

    @pytest.mark.parametrize("overlap", [[], ["--no-overlap"]])
    def test_horizon_beyond_memory_named(self, overlap, capsys):
        horizon = 10**15
        argv = ["simulate", "--n", "10", "--block", "2x2", "--coin", "akr", "--horizon", str(horizon)]
        assert run_cli(*argv, *overlap) == 2
        size = 8 * (horizon + 1) * (1 if overlap else 2)
        assert capsys.readouterr().err.startswith(f"error: horizon {horizon} needs {size} bytes for its series")

    @pytest.mark.parametrize(
        "argv, size",
        [
            (["simulate", "--n", "1000000", "--cells", "0,0", "--coin", "akr"],
             "grid side 1000000 needs 32000000000000 bytes for its state"),
            (["verify", "--n", "400", "--block", "1x2", "--oracle-cap", "400"],
             f"oracle for n=400 needs {40 * 640000**2} bytes"),
            (["verify", "--graph-two-marked", "--k", "40000", "--oracle-cap", "10000000"],
             f"oracle for 320002 arcs needs {40 * 320002**2} bytes"),
            (["verify", "--graph-ring", "3,99999999999"],
             f"a witness with 599999999997 edges needs {300 * 599999999997 + 56 * 300000000000} bytes"),
        ],
        ids=["state", "grid-oracle", "graph-oracle", "witness"],
    )
    def test_beyond_memory_named(self, argv, size, capsys):
        assert run_cli(*argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {size}, more than the ")

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--graph-two-marked", "--k", "1000000"],
            ["simulate", "--n", "6000", "--cells", "0,0", "--coin", "akr", "--horizon", "1"],
        ],
        ids=["witness", "state"],
    )
    def test_beyond_address_space_limit_named(self, argv, tmp_path):
        # both fit in physical memory but not under a 700 MB address-space cap
        resource = pytest.importorskip("resource")
        cap = 700 * 2**20

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        env = {**os.environ, "PYTHONPATH": str(Path(coinwalk.__file__).parents[1]), "OPENBLAS_NUM_THREADS": "1"}
        script = "import sys; from coinwalk.cli import main; sys.exit(main(sys.argv[1:]))"
        done = subprocess.run(
            [sys.executable, "-c", script, *argv],
            env=env, cwd=tmp_path, preexec_fn=limit, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr.startswith("error: ")
        assert f"more than the {cap} bytes of the address-space limit" in done.stderr
        assert "Traceback" not in done.stderr

    def test_memory_error_exit_2(self, monkeypatch, capsys):
        # an allocation no check foresaw still ends in an error line, not a traceback
        def exhausted(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr("coinwalk.cli.run_walk", exhausted)
        assert run_cli("simulate", "--n", "10", "--block", "2x2", "--coin", "akr") == 2
        assert capsys.readouterr().err == "error: out of memory: an allocation failed\n"

    @pytest.mark.parametrize("where", ["directory", "under_file"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--n", "10", "--block", "2x2", "--coin", "grover", "--horizon", "5",
             "--output", "{out}"],
            ["graph-sim", "--graph", "{data}/graph.txt", "--coin", "akr", "--horizon", "5",
             "--output", "{out}"],
            ["verify", "--n", "10", "--block", "2x2", "--output", "{out}"],
            ["table", "--sizes", "10", "--blocks", "3", "--horizon", "50", "--output", "{prefix}"],
        ],
        ids=["simulate", "graph-sim", "verify", "table"],
    )
    def test_unwritable_output_exit_2(self, argv, where, tmp_path, capsys):
        # an output path that is a directory, or whose parent is a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        if where == "directory":
            out, prefix = tmp_path / "dir", tmp_path / "t"
            out.mkdir()
            (tmp_path / "t_rows.csv").mkdir()
        else:
            out, prefix = blocker / "out.csv", blocker / "t"
        assert run_cli(*(a.format(out=out, prefix=prefix, data=DATA) for a in argv)) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write output: ")
        assert captured.out == ""


# edge values for every option: horizons stay at most 30 and sides at most 12,
# or take 20 digits, which must be rejected before anything is allocated
EDGE_VALUES = ["0", "-1", "1", "2", "3", "12", "99999999999999999999", "nan", "inf", "", "x"]
BLOCKS = ["1x2", "2x2", "3x3", "2x3@-1,11", "1x1@99999999999999999999,0", "0x2", "13x1"]


@st.composite
def cli_argvs(draw, out):
    """An argv for one of the four subcommands, with edge values in every option."""
    # half the draws are small positive integers, so that some runs get past the checks
    value = st.sampled_from(EDGE_VALUES) | st.sampled_from(["1", "2", "3", "12"])
    values = st.lists(value, min_size=1, max_size=3).map(",".join)
    coin = st.sampled_from(["akr", "grover", "x"])
    files = st.sampled_from([str(DATA / "graph.txt"), str(DATA / "graph_marked.txt"), str(out / "missing.txt")])

    def option(flag, strategy):
        return [flag, draw(strategy)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["simulate", "verify", "table", "graph-sim"]))
    if command == "simulate":
        argv = ["--n", draw(value), "--coin", draw(coin), "--horizon", draw(value)]
        argv += option("--block", st.sampled_from(BLOCKS) | value)
        argv += option("--cells", st.sampled_from(["", "0,0", "1,2;11,11", "-1,99999999999999999999", "1,2,3"]))
        argv += option("--budget", value) + (["--stop-at-halt"] if draw(st.booleans()) else [])
        argv += ["--output", str(out / "series.csv")]
    elif command == "verify":
        target = draw(st.sampled_from(["block", "two", "three", "ring"]))
        if target == "block":
            argv = option("--n", value) + ["--block", draw(st.sampled_from(BLOCKS) | value)]
        elif target == "two":
            argv = ["--graph-two-marked"] + option("--k", value)
        else:
            argv = [f"--graph-{target}", draw(values)]
        argv += option("--tolerance", value) + option("--oracle-cap", value) + option("--budget", value)
    elif command == "table":
        argv = ["--sizes", draw(values), "--blocks", draw(values), "--horizon", draw(value)]
        argv += option("--coins", st.sampled_from(["akr", "grover,akr", ",", "x"]))
        argv += option("--budget", value) + (["--large"] if draw(st.booleans()) else [])
        argv += ["--output", str(out / "table")]
    else:
        argv = ["--graph", draw(files), "--coin", draw(coin), "--horizon", draw(value)]
        argv += option("--marked-file", files) + option("--budget", value)
        argv += ["--output", str(out / "graph.csv")]
    return [command, *argv]


class TestExitCodeContract:
    @settings(deadline=None, max_examples=150)
    @given(st.data())
    def test_exit_codes_keep_their_meaning(self, tmp_path_factory, data):
        # main raises nothing but argparse's exit 2, only verify returns 1, and only
        # with a report that did not pass
        argv = data.draw(cli_argvs(tmp_path_factory.getbasetemp()), label="argv")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                assert exc.code == 2, err.getvalue()
                return
        assert code in (0, 1, 2, 3, 4), err.getvalue()
        if code == 1:
            assert argv[0] == "verify"
            assert json.loads(out.getvalue())["passed"] is False


class TestRoundTrips:
    @pytest.mark.parametrize("with_overlap", [True, False])
    def test_series_csv_matches_csv_writer(self, tmp_path, with_overlap):
        # several write chunks long, with values that need every .9g form and the
        # edge values in both columns; 1025 rows leave one row in the last chunk
        rng = np.random.default_rng(3)
        edges = [-0.0, np.nan, np.inf, -np.inf, 5e-324, 1e308]
        for size in (2500, 1025):
            prob = rng.random(size) ** 9
            prob[:4] = [0.0, 1.0, 1e-300, 0.25]
            prob[-len(edges):] = edges
            overlap = None
            if with_overlap:
                overlap = rng.normal(size=size)
                overlap[4 : 4 + len(edges)] = edges
                overlap[-len(edges):] = edges[::-1]
            write_series_csv(tmp_path / "s.csv", RunSeries(prob, overlap, 0, 0.0, None, None))
            with open(tmp_path / "ref.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["step", "probability", "overlap"][: 3 if with_overlap else 2])
                for t in range(prob.size):
                    row = [t, format(prob[t], ".9g")]
                    if with_overlap:
                        row.append(format(overlap[t], ".9g"))
                    writer.writerow(row)
            assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_series_json_matches_csv(self, tmp_path):
        csv_out = tmp_path / "s.csv"
        json_out = tmp_path / "s.json"
        args = ["simulate", "--n", "14", "--block", "2x2", "--coin", "akr", "--horizon", "30"]
        run_cli(*args, "--output", str(csv_out))
        run_cli(*args, "--format", "json", "--output", str(json_out))
        c = list(csv.DictReader(csv_out.read_text().splitlines()))
        j = json.loads(json_out.read_text())
        assert [float(r["probability"]) for r in c] == pytest.approx(j["probability"], rel=1e-8)
        assert [float(r["overlap"]) for r in c] == pytest.approx(j["overlap"], rel=1e-8)
