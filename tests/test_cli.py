import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from coinwalk.cli import (
    main,
    read_series_csv,
    read_series_json,
    read_table_csv,
    read_table_json,
    write_series_csv,
)
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
        data = read_series_csv(out)
        assert data["step"] == list(range(121))
        assert all(0.0 <= p <= 1.0 for p in data["probability"])
        assert data["overlap"][0] == pytest.approx(1.0)
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
        data = read_series_csv(out)
        assert all(p == 0.0 for p in data["probability"])

    def test_json_format_round_trip(self, tmp_path):
        out = tmp_path / "run.json"
        code = run_cli(
            "simulate", "--n", "16", "--block", "2x1", "--coin", "grover",
            "--horizon", "40", "--format", "json", "--output", str(out),
        )
        assert code == 0
        data = read_series_json(out)
        assert len(data["probability"]) == 41
        assert data["overlap"][0] == 1.0

    def test_no_overlap_flag(self, tmp_path):
        out = tmp_path / "run.csv"
        run_cli(
            "simulate", "--n", "16", "--block", "3x3", "--coin", "akr",
            "--horizon", "20", "--no-overlap", "--output", str(out),
        )
        assert "overlap" not in read_series_csv(out)

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
        rows = read_table_csv(Path("table_rows.csv"))
        ratios = read_table_csv(Path("table_ratios.csv"))
        assert {r["scheme"] for r in rows} == {"akr", "grover"}
        assert len(ratios) == 1 and ratios[0]["k"] == 9
        akr = next(r for r in rows if r["scheme"] == "akr")
        assert akr["runtime"] == pytest.approx(
            akr["steps"] / math.sqrt(akr["probability"]), rel=1e-6
        )

    def test_json_output(self, tmp_path):
        prefix = str(tmp_path / "t")
        code = run_cli(
            "table", "--sizes", "30", "--blocks", "3", "--format", "json",
            "--output", prefix,
        )
        assert code == 0
        rows = read_table_json(Path(prefix + "_rows.json"))
        assert rows and rows[0]["n"] == 30

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
        data = read_series_csv(out)
        assert len(data["step"]) == 26
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
        data = read_series_csv(out)
        assert all(p == 0.0 for p in data["probability"])
        assert all(v == 1.0 for v in data["overlap"])

    def test_missing_graph_file_exit_2(self, tmp_path):
        assert run_cli("graph-sim", "--graph", str(tmp_path / "nope.txt"), "--coin", "akr") == 2

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
        argv = [a.format(**files) for a in argv]
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


class TestRoundTrips:
    def test_series_csv_stable_under_rewrite(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(
            "simulate", "--n", "14", "--block", "2x2", "--coin", "grover",
            "--horizon", "30", "--output", str(out),
        )
        first = out.read_text()
        data = read_series_csv(out)
        # values survive a parse at 9 significant digits
        reread = read_series_csv(out)
        assert reread == data
        assert "." in first.splitlines()[2]  # plain decimal point, no locale

    @pytest.mark.parametrize("with_overlap", [True, False])
    def test_series_csv_matches_csv_writer(self, tmp_path, with_overlap):
        # several write chunks long, with values that need every .9g form
        rng = np.random.default_rng(3)
        prob = rng.random(2500) ** 9
        prob[:4] = [0.0, 1.0, 1e-300, 0.25]
        overlap = rng.normal(size=2500) if with_overlap else None
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
        c = read_series_csv(csv_out)
        j = read_series_json(json_out)
        assert c["probability"] == pytest.approx(j["probability"], rel=1e-8)
        assert c["overlap"] == pytest.approx(j["overlap"], rel=1e-8)
