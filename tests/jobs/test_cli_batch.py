"""End-to-end CLI coverage: repro batch / repro cache / netlist sniffing."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def in_netlist_dir(netlist_dir, monkeypatch):
    monkeypatch.chdir(netlist_dir)
    return netlist_dir


def _manifest(netlist_dir, jobs):
    path = netlist_dir / "m.json"
    path.write_text(json.dumps({"jobs": jobs}))
    return str(path)


class TestBatchCommand:
    def test_end_to_end_with_cache_rerun(self, in_netlist_dir, capsys):
        manifest = _manifest(
            in_netlist_dir,
            [
                {
                    "id": "mont",
                    "type": "verify",
                    "spec": "mastrovito_4.v",
                    "impl": "montgomery_4.v",
                    "k": 4,
                },
                {"id": "abs", "type": "abstract", "netlist": "mastrovito_4.v", "k": 4},
            ],
        )
        rc = main(
            [
                "batch",
                manifest,
                "--jobs",
                "2",
                "--cache-dir",
                "cache",
                "--log",
                "run.jsonl",
                "--seed",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "mont" in out and "equivalent" in out
        assert "ok=2" in out
        assert (in_netlist_dir / "run.jsonl").exists()

        # Second run: every abstraction must come from the cache — via the
        # raw key, since the rerun submits the very same netlists.
        rc = main(["batch", manifest, "--jobs", "2", "--cache-dir", "cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "3 hit(s) [0 canonical-key, 3 raw-key], 0 miss(es)" in out

        # Two designs, each stored under its canonical and its raw key.
        rc = main(["cache", "stats", "--cache-dir", "cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "entries:   4" in out
        hits_line = next(l for l in out.splitlines() if l.startswith("hits:"))
        assert int(hits_line.split()[1]) >= 3

        rc = main(["cache", "clear", "--cache-dir", "cache"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cleared 4" in out

    def test_failing_job_sets_exit_code(self, in_netlist_dir, capsys):
        manifest = _manifest(
            in_netlist_dir,
            [{"id": "stuck", "type": "sleep", "seconds": 30, "timeout": 1}],
        )
        rc = main(["batch", manifest, "--no-cache"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "timeout" in out

    def test_bad_manifest_reports_cleanly(self, in_netlist_dir, capsys):
        bad = in_netlist_dir / "bad.json"
        bad.write_text(json.dumps({"jobs": [{"type": "wat"}]}))
        rc = main(["batch", str(bad)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err and "unknown type" in err


class TestNetlistSniffing:
    def test_verilog_content_with_odd_extension(self, in_netlist_dir, capsys):
        source = (in_netlist_dir / "mastrovito_4.v").read_text()
        (in_netlist_dir / "renamed.netlist").write_text(source)
        rc = main(["stats", "renamed.netlist"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "inputs:  8" in out

    def test_blif_content_with_odd_extension(self, in_netlist_dir, capsys):
        from repro.circuits import read_verilog, write_blif

        circuit = read_verilog(str(in_netlist_dir / "mastrovito_4.v"))
        write_blif(circuit, str(in_netlist_dir / "renamed.txt"))
        rc = main(["stats", "renamed.txt"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "inputs:  8" in out

    def test_unrecognizable_content_fails_clearly(self, in_netlist_dir, capsys):
        (in_netlist_dir / "junk.txt").write_text("this is not a netlist\n")
        rc = main(["stats", "junk.txt"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "cannot determine netlist format" in err

    def test_missing_file_fails_clearly(self, in_netlist_dir, capsys):
        rc = main(["stats", "absent.v"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "not found" in err
