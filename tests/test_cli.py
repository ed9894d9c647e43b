"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv: str) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--dataset", "nope", "--dataflow", "SP1"])

    def test_commands_registered(self):
        p = build_parser()
        for cmd in ("run", "sweep", "search", "golden", "enumerate", "datasets"):
            assert p.parse_args([cmd] + (
                ["--dataset", "mutag", "--dataflow", "SP1"] if cmd == "run"
                else ["--dataset", "mutag"] if cmd == "search" else []
            )).command == cmd


class TestEnumerate:
    def test_text(self, capsys):
        out = run_cli(capsys, "enumerate")
        assert "6656" in out

    def test_json(self, capsys):
        out = run_cli(capsys, "enumerate", "--json")
        data = json.loads(out)
        assert data["total"] == 6656


class TestRun:
    def test_table_v_name(self, capsys):
        out = run_cli(capsys, "run", "--dataset", "mutag", "--dataflow", "SP2")
        assert "cycles" in out and "energy" in out

    def test_notation(self, capsys):
        out = run_cli(
            capsys, "run", "--dataset", "mutag",
            "--dataflow", "PP_AC(VtFsNt, VsGsFt)",
        )
        assert "granularity: row" in out

    def test_json_payload(self, capsys):
        out = run_cli(
            capsys, "run", "--dataset", "mutag", "--dataflow", "Seq1", "--json"
        )
        data = json.loads(out)
        assert data["cycles"] > 0
        assert set(data["gb_breakdown"]) == {"Adj", "Inp", "Int", "Wt", "Op", "Psum"}

    def test_hw_overrides(self, capsys):
        small = json.loads(
            run_cli(
                capsys, "run", "--dataset", "mutag", "--dataflow", "Seq1",
                "--json", "--pes", "64",
            )
        )
        big = json.loads(
            run_cli(
                capsys, "run", "--dataset", "mutag", "--dataflow", "Seq1",
                "--json", "--pes", "512",
            )
        )
        assert small["cycles"] > big["cycles"]

    def test_bandwidth_override(self, capsys):
        slow = json.loads(
            run_cli(
                capsys, "run", "--dataset", "mutag", "--dataflow", "Seq1",
                "--json", "--bandwidth", "32",
            )
        )
        fast = json.loads(
            run_cli(
                capsys, "run", "--dataset", "mutag", "--dataflow", "Seq1", "--json",
            )
        )
        assert slow["cycles"] >= fast["cycles"]


class TestSweep:
    def test_single_dataset_normalized(self, capsys):
        out = run_cli(capsys, "sweep", "--dataset", "mutag", "--normalize")
        assert "Seq1" in out and "1.00" in out

    def test_json(self, capsys):
        out = run_cli(capsys, "sweep", "--dataset", "mutag", "--json")
        data = json.loads(out)
        assert "mutag" in data and "SP2" in data["mutag"]

    def test_out_store_written_and_resumed(self, capsys, tmp_path):
        out_path = tmp_path / "t5.jsonl"
        run_cli(
            capsys, "sweep", "--dataset", "mutag", "--out", str(out_path)
        )
        from repro.analysis.export import read_records

        records = read_records(out_path)
        assert len(records) == 9
        assert {r["config"] for r in records} == {
            "Seq1", "Seq2", "SP1", "SP2", "SPhighV", "PP1", "PP2", "PP3", "PP4"
        }
        assert all(r["dataset"] == "mutag" for r in records)
        # resumed rerun appends nothing new
        run_cli(
            capsys, "sweep", "--dataset", "mutag", "--out", str(out_path)
        )
        assert len(read_records(out_path)) == 9


class TestGolden:
    def test_generate_then_check(self, capsys, tmp_path):
        out_path = tmp_path / "golden.jsonl"
        out = run_cli(
            capsys, "golden", "--out", str(out_path), "--datasets", "mutag"
        )
        assert "wrote 9 golden records" in out
        out = run_cli(
            capsys, "golden", "--check", "--out", str(out_path),
            "--datasets", "mutag",
        )
        assert "match" in out

    def test_check_detects_drift(self, capsys, tmp_path):
        out_path = tmp_path / "golden.jsonl"
        run_cli(capsys, "golden", "--out", str(out_path), "--datasets", "mutag")
        lines = out_path.read_text().splitlines()
        doctored = json.loads(lines[0])
        doctored["cycles"] += 1
        lines[0] = json.dumps(doctored, sort_keys=True)
        out_path.write_text("\n".join(lines) + "\n")
        assert main(
            ["golden", "--check", "--out", str(out_path), "--datasets", "mutag"]
        ) == 1

    def test_check_missing_file_fails(self, tmp_path):
        assert main(
            ["golden", "--check", "--out", str(tmp_path / "absent.jsonl")]
        ) == 1


class TestSearch:
    def test_search_runs(self, capsys):
        out = run_cli(
            capsys, "search", "--dataset", "mutag", "--budget", "30",
            "--pes", "64",
        )
        assert "best found" in out

    def test_search_json(self, capsys):
        out = run_cli(
            capsys, "search", "--dataset", "mutag", "--budget", "30",
            "--pes", "64", "--json",
        )
        data = json.loads(out)
        assert data["evaluated"] <= 30
        assert data["gain"] > 0


class TestDatasets:
    def test_lists_all(self, capsys):
        out = run_cli(capsys, "datasets")
        for name in ("mutag", "collab", "cora"):
            assert name in out

    def test_json(self, capsys):
        out = run_cli(capsys, "datasets", "--json")
        data = json.loads(out)
        assert data["citeseer"]["features"] == 3703


class TestStudy:
    def test_order_study(self, capsys):
        out = run_cli(capsys, "study", "order")
        assert "winner" in out and "CA" in out

    def test_study_json(self, capsys):
        out = run_cli(capsys, "study", "order", "--json")
        data = json.loads(out)
        assert all("x" in row for row in data)
