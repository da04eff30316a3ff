"""Tests for the trace CLI subcommand."""

import pytest

from repro.cli import main


def test_trace_generate_prints_stats(capsys):
    assert main(["trace", "--duration", "300", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "requests over" in out
    assert "image/gif" in out
    assert "buckets" in out


def test_trace_generate_to_file_and_analyze(tmp_path, capsys):
    path = str(tmp_path / "t.tsv")
    assert main(["trace", "--duration", "200", "--rate", "4",
                 "--out", path]) == 0
    first = capsys.readouterr().out
    assert f"wrote" in first
    assert main(["trace", "--analyze", path]) == 0
    second = capsys.readouterr().out
    assert path in second
    assert "image/gif" in second


def test_trace_roundtrip_preserves_statistics(tmp_path, capsys):
    path = str(tmp_path / "t.tsv")
    main(["trace", "--duration", "300", "--seed", "9", "--out", path])
    generated = capsys.readouterr().out
    main(["trace", "--analyze", path])
    analyzed = capsys.readouterr().out
    # the per-mime lines must be identical between generate and analyze
    def mime_lines(text):
        return [line for line in text.splitlines()
                if line.strip().startswith(("image/", "text/",
                                            "application/"))]
    assert mime_lines(generated) == mime_lines(analyzed)


def test_trace_analyze_refuses_a_hostile_file_naming_its_line(tmp_path,
                                                               capsys):
    path = tmp_path / "t.tsv"
    path.write_text("1.0\tc\thttp://x/a.gif\timage/gif\t10\n"
                    "nan\tc\thttp://x/b.gif\timage/gif\t10\n",
                    encoding="utf-8")
    assert main(["trace", "--analyze", str(path)]) == 2
    assert f"{path}:2: timestamp=nan must be finite" \
        in capsys.readouterr().err
