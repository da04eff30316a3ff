"""Tests for experiment-result export."""

import json

import pytest

from repro.analysis.export import export_result
from repro.cli import main, run_experiment
from repro.experiments.figure5_sizes import run_figure5


def test_export_dataclass_result(tmp_path):
    result = run_figure5(n_records=2000, seed=3)
    path = export_result("figure5", result, str(tmp_path))
    payload = json.loads(open(path).read())
    assert payload["experiment"] == "figure5"
    assert payload["result"]["n_records"] == 2000
    assert "image/gif" in payload["result"]["means"]
    # histograms are nested series and survive serialization
    assert isinstance(
        payload["result"]["histograms"]["image/gif"], list)


def test_cli_export_writes_structured_rows(tmp_path, capsys):
    """Table 1 and economics export their data, not their text."""
    for name in ("table1", "economics"):
        assert main(["run", name, "--quick",
                     "--export", str(tmp_path)]) == 0
    capsys.readouterr()
    table1 = json.loads((tmp_path / "table1.json").read_text())
    assert table1["experiment"] == "table1"
    assert [row[0] for row in table1["result"]["rows"]][:2] == [
        "Load balancing", "Application layer"]
    economics = json.loads((tmp_path / "economics.json").read_text())
    assert 0 < economics["result"]["measured_byte_hit_rate"] < 1
    assert economics["result"]["report"]["payback_months"] > 0


def test_export_handles_exotic_values(tmp_path):
    import dataclasses

    @dataclasses.dataclass
    class Weird:
        infinite: float
        nan: float
        raw: bytes
        obj: object

    weird = Weird(float("inf"), float("nan"), b"\x00" * 5, object())
    path = export_result("weird", weird, str(tmp_path))
    payload = json.loads(open(path).read())
    assert payload["result"]["infinite"] == "inf"
    assert payload["result"]["nan"] is None
    assert payload["result"]["raw"] == "<5 bytes>"
    assert "object" in payload["result"]["obj"]


def test_cli_export_flag(tmp_path, capsys):
    assert main(["run", "figure5", "--quick",
                 "--export", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "[exported" in out
    exported = json.loads((tmp_path / "figure5.json").read_text())
    assert exported["experiment"] == "figure5"


def test_run_experiment_without_export_unchanged():
    text = run_experiment("table1", seed=1, quick=True)
    assert "exported" not in text
    assert "Table 1" in text
