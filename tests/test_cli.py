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
        ],
        ids=["table", "simulate", "graph-akr", "graph-grover"],
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
        # residual is never <= -1, so the verification must report failure
        assert run_cli("verify", "--n", "10", "--block", "1x2", "--tolerance", "-1") == 1

    def test_failed_condition_fails_verify(self, monkeypatch, capsys):
        monkeypatch.setattr("coinwalk.cli.check_conditions", lambda *a, **k: (True, False, True))
        assert run_cli("verify", "--n", "12", "--block", "2x2") == 1
        report = json.loads(capsys.readouterr().out)
        assert report["residual"] <= report["tolerance"]
        assert report["passed"] is False

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
        ],
    )
    def test_exit_2_without_traceback(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("COINWALK_OUTPUT_DIR", str(tmp_path))
        graph_file = tmp_path / "loop.txt"
        graph_file.write_text("0 1\n1 1\n")
        huge_file = tmp_path / "huge.txt"
        huge_file.write_text("0 1\n1 99999999999999999999\n")
        argv = [a.format(self_loop=graph_file, huge_id=huge_file) for a in argv]
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


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
