"""Tests for the repro6 command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.datasets.hitlist import read_hitlist_ints, write_hitlist

from conftest import addr


@pytest.fixture()
def seed_file(tmp_path):
    path = tmp_path / "seeds.txt"
    seeds = [addr(f"2001:db8::{i:x}") for i in range(1, 9)]
    write_hitlist(path, seeds)
    return path


class TestParser:
    def test_subcommands_present(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("6gen", "entropy-ip", "scan", "dealias", "simulate", "experiment"):
            assert command in text

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestSixGenCommand:
    def test_generates_targets(self, seed_file, tmp_path, capsys):
        out = tmp_path / "targets.txt"
        code = main(["6gen", str(seed_file), str(out), "--budget", "16"])
        assert code == 0
        targets = read_hitlist_ints(out)
        # the 8 seeds unify into 2001:db8::? (16 addresses) and the run
        # stops — all seeds are in a single cluster
        assert len(targets) == 16
        assert {addr(f"2001:db8::{i:x}") for i in range(1, 9)} <= set(targets)
        captured = capsys.readouterr().out
        assert "seeds: 8" in captured

    def test_tight_mode(self, seed_file, tmp_path):
        out = tmp_path / "targets.txt"
        assert main(["6gen", str(seed_file), str(out), "--budget", "8", "--tight"]) == 0

    def test_show_clusters(self, seed_file, tmp_path, capsys):
        out = tmp_path / "targets.txt"
        main(["6gen", str(seed_file), str(out), "--budget", "16", "--show-clusters", "2"])
        assert "Cluster(" in capsys.readouterr().out

    def test_empty_input_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        out = tmp_path / "targets.txt"
        assert main(["6gen", str(empty), str(out)]) == 1


class TestEntropyIpCommand:
    def test_generates(self, tmp_path, capsys):
        seeds_path = tmp_path / "seeds.txt"
        seeds = [addr(f"2001:db8:{x:x}::{y:x}") for x in range(4) for y in range(1, 30)]
        write_hitlist(seeds_path, seeds)
        out = tmp_path / "targets.txt"
        assert main(["entropy-ip", str(seeds_path), str(out), "--budget", "100"]) == 0
        assert len(read_hitlist_ints(out)) == 100


class TestScanDealiasCommands:
    def test_scan_and_dealias_round_trip(self, tmp_path, capsys):
        seeds_out = tmp_path / "seeds.txt"
        assert main(["simulate", "--scale", "0.05", "--output", str(seeds_out)]) == 0
        hits_out = tmp_path / "hits.txt"
        assert main([
            "scan", str(seeds_out), "--scale", "0.05", "--output", str(hits_out)
        ]) == 0
        assert main(["dealias", str(hits_out), "--scale", "0.05"]) == 0
        captured = capsys.readouterr().out
        assert "hits:" in captured
        assert "clean hits:" in captured


class TestExperimentCommand:
    def test_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_unknown_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "nope"])


class TestWorldFileWorkflow:
    def test_save_and_reuse_world(self, tmp_path, capsys):
        world = tmp_path / "world.json"
        seeds_out = tmp_path / "seeds.txt"
        assert main([
            "simulate", "--scale", "0.05",
            "--output", str(seeds_out), "--save-world", str(world),
        ]) == 0
        assert world.exists()
        hits_out = tmp_path / "hits.txt"
        assert main([
            "scan", str(seeds_out), "--world", str(world),
            "--output", str(hits_out),
        ]) == 0
        # scanning the seeds against the *same* world finds live hosts
        assert len(read_hitlist_ints(hits_out)) > 0

    def test_ranges_output(self, seed_file, tmp_path, capsys):
        out = tmp_path / "targets.txt"
        ranges = tmp_path / "ranges.txt"
        assert main([
            "6gen", str(seed_file), str(out), "--budget", "16",
            "--ranges-output", str(ranges),
        ]) == 0
        from repro.datasets.rangelist import read_rangelist

        parsed = read_rangelist(ranges)
        assert parsed  # at least the unified cluster
        assert any(r.size() == 16 for r in parsed)


class TestAdaptiveCommand:
    def test_adaptive_scan(self, tmp_path, capsys):
        world = tmp_path / "world.json"
        seeds_out = tmp_path / "seeds.txt"
        main([
            "simulate", "--scale", "0.05",
            "--output", str(seeds_out), "--save-world", str(world),
        ])
        hits_out = tmp_path / "ahits.txt"
        assert main([
            "adaptive", str(seeds_out), "--world", str(world),
            "--budget", "1000", "--output", str(hits_out),
        ]) == 0
        captured = capsys.readouterr().out
        assert "probes used:" in captured
        assert "rounds run:" in captured

    def test_adaptive_empty_seeds_fails(self, tmp_path):
        empty = tmp_path / "empty.txt"
        empty.write_text("# none\n")
        assert main(["adaptive", str(empty), "--scale", "0.05"]) == 1


class TestValidateCommand:
    def test_valid_world(self, tmp_path, capsys):
        world = tmp_path / "world.json"
        main(["simulate", "--scale", "0.05", "--save-world", str(world)])
        capsys.readouterr()
        assert main(["validate", str(world)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_invalid_world(self, tmp_path, capsys):
        import json

        world = tmp_path / "bad.json"
        main(["simulate", "--scale", "0.05", "--save-world", str(world)])
        doc = json.loads(world.read_text())
        doc["specs"].append(dict(doc["specs"][0]))  # duplicate prefix
        world.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["validate", str(world)]) == 1
        assert "duplicate routed prefix" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate", "/nonexistent/world.json"]) == 1


class TestCompareCommand:
    def test_compare_runs_all_algorithms(self, tmp_path, capsys):
        world = tmp_path / "world.json"
        seeds_out = tmp_path / "seeds.txt"
        main([
            "simulate", "--scale", "0.05",
            "--output", str(seeds_out), "--save-world", str(world),
        ])
        capsys.readouterr()
        assert main([
            "compare", str(seeds_out), "--world", str(world),
            "--budget", "1000",
        ]) == 0
        out = capsys.readouterr().out
        for name in ("6Gen", "Entropy/IP", "Ullrich", "MRA", "random"):
            assert name in out


class TestExperimentRegistry:
    def test_all_names_are_parser_choices(self):
        from repro.cli import _EXPERIMENTS

        parser = build_parser()
        # parsing any registered experiment name must succeed
        for name in _EXPERIMENTS:
            args = parser.parse_args(["experiment", name])
            assert args.name == name

    def test_main_module_entrypoint(self):
        import subprocess
        import sys

        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "6gen" in result.stdout


class TestOutputModes:
    def test_6gen_json_single_line(self, seed_file, tmp_path, capsys):
        out = tmp_path / "targets.txt"
        assert main([
            "6gen", str(seed_file), str(out), "--budget", "16", "--json",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["command"] == "6gen"
        assert summary["seeds"] == 8
        assert summary["targets_written"] == 16
        assert summary["budget_used"] <= summary["budget_limit"]

    def test_6gen_quiet_silences_stdout(self, seed_file, tmp_path, capsys):
        out = tmp_path / "targets.txt"
        assert main([
            "6gen", str(seed_file), str(out), "--budget", "16", "--quiet",
        ]) == 0
        assert capsys.readouterr().out == ""

    def test_scan_and_dealias_json(self, tmp_path, capsys):
        seeds_out = tmp_path / "seeds.txt"
        world = tmp_path / "world.json"
        main([
            "simulate", "--scale", "0.05",
            "--output", str(seeds_out), "--save-world", str(world),
        ])
        hits_out = tmp_path / "hits.txt"
        capsys.readouterr()
        assert main([
            "scan", str(seeds_out), "--world", str(world),
            "--output", str(hits_out), "--json",
        ]) == 0
        scan_summary = json.loads(capsys.readouterr().out.strip())
        assert scan_summary["command"] == "scan"
        assert scan_summary["hits"] > 0
        assert scan_summary["probes_sent"] >= scan_summary["hits"]
        assert main([
            "dealias", str(hits_out), "--world", str(world), "--json",
        ]) == 0
        dealias_summary = json.loads(capsys.readouterr().out.strip())
        assert dealias_summary["command"] == "dealias"
        assert dealias_summary["hits_in"] == scan_summary["hits"]
        assert (
            dealias_summary["clean_hits"] + dealias_summary["aliased_hits"]
            == dealias_summary["hits_in"]
        )

    def test_errors_still_reported_in_quiet_mode(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing\n")
        out = tmp_path / "targets.txt"
        assert main(["6gen", str(empty), str(out), "--quiet"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no seeds" in captured.err


class TestTelemetryFlag:
    def test_6gen_writes_telemetry_jsonl(self, seed_file, tmp_path):
        from repro.telemetry import read_jsonl

        out = tmp_path / "targets.txt"
        run = tmp_path / "run.jsonl"
        assert main([
            "6gen", str(seed_file), str(out), "--budget", "16",
            "--telemetry", str(run), "--quiet",
        ]) == 0
        events = read_jsonl(run)
        assert events[0]["event"] == "manifest"
        assert events[0]["command"] == "6gen"
        assert events[-1]["event"] == "metrics"
        counters = events[-1]["snapshot"]["counters"]
        assert counters["sixgen.runs"] == 1
        assert any(e["event"] == "sixgen_summary" for e in events)

    def test_scan_telemetry_and_report(self, tmp_path, capsys):
        seeds_out = tmp_path / "seeds.txt"
        world = tmp_path / "world.json"
        main([
            "simulate", "--scale", "0.05",
            "--output", str(seeds_out), "--save-world", str(world),
        ])
        run = tmp_path / "scan_run.jsonl"
        assert main([
            "scan", str(seeds_out), "--world", str(world),
            "--telemetry", str(run), "--quiet",
        ]) == 0
        capsys.readouterr()
        # the acceptance flow: repro report renders the JSONL summary
        assert main(["report", str(run)]) == 0
        text = capsys.readouterr().out
        assert "run: scan" in text
        assert "scan.probes_sent" in text
        assert "span" in text

    def test_report_delta_between_runs(self, seed_file, tmp_path, capsys):
        runs = []
        for i, budget in enumerate(("16", "8")):
            out = tmp_path / f"targets{i}.txt"
            run = tmp_path / f"run{i}.jsonl"
            main([
                "6gen", str(seed_file), str(out), "--budget", budget,
                "--telemetry", str(run), "--quiet",
            ])
            runs.append(run)
        capsys.readouterr()
        assert main(["report", str(runs[1]), "--against", str(runs[0])]) == 0
        text = capsys.readouterr().out
        assert "delta:" in text
        assert "! config differs" in text
        assert "budget: 16 -> 8" in text

    def test_report_missing_jsonl_fails(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.jsonl")]) == 1
        assert "error" in capsys.readouterr().err


class TestScanRetryResumeFlags:
    def test_retries_flag_reported(self, tmp_path, capsys):
        seeds_out = tmp_path / "seeds.txt"
        assert main(["simulate", "--scale", "0.05", "--output", str(seeds_out)]) == 0
        assert main([
            "scan", str(seeds_out), "--scale", "0.05", "--retries", "2", "--json"
        ]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["retries"] == 2
        assert payload["resumed"] is False
        assert "retransmits" in payload

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        seeds_out = tmp_path / "seeds.txt"
        assert main(["simulate", "--scale", "0.05", "--output", str(seeds_out)]) == 0
        ckpt = tmp_path / "scan.ckpt"

        assert main([
            "scan", str(seeds_out), "--scale", "0.05",
            "--checkpoint", str(ckpt), "--json",
        ]) == 0
        first = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert first["checkpoint"] == str(ckpt)
        assert ckpt.exists()

        # Resuming a completed checkpoint replays the recorded result.
        assert main([
            "scan", str(seeds_out), "--scale", "0.05",
            "--resume", str(ckpt), "--json",
        ]) == 0
        second = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert second["resumed"] is True
        assert second["hits"] == first["hits"]
        assert second["probes_sent"] == first["probes_sent"]

    def test_resume_missing_file_errors(self, tmp_path, capsys):
        seeds_out = tmp_path / "seeds.txt"
        assert main(["simulate", "--scale", "0.05", "--output", str(seeds_out)]) == 0
        assert main([
            "scan", str(seeds_out), "--scale", "0.05",
            "--resume", str(tmp_path / "nope.ckpt"),
        ]) == 1


class TestServiceCommand:
    def test_runs_multi_tenant(self, capsys):
        assert main([
            "service", "--tenants", "2", "--budget", "300", "--scale", "0.05",
        ]) == 0
        out = capsys.readouterr().out
        assert "tenant-1" in out and "tenant-2" in out
        assert "finished" in out

    def test_json_mode(self, capsys):
        assert main([
            "service", "--tenants", "2", "--budget", "300",
            "--scale", "0.05", "--json",
        ]) == 0
        out = capsys.readouterr().out.strip()
        payload = json.loads(out.splitlines()[-1])
        assert payload["command"] == "service"
        assert payload["tenants"] == 2
        assert len(payload["jobs"]) == 2
        assert all(j["state"] == "finished" for j in payload["jobs"])
        # both tenants scanned the same world: identical results
        assert payload["jobs"][0]["hits"] == payload["jobs"][1]["hits"]
        # --json suppresses the human lines entirely
        assert len(out.splitlines()) == 1

    def test_quiet_mode(self, capsys):
        assert main([
            "service", "--tenants", "1", "--budget", "300",
            "--scale", "0.05", "--quiet",
        ]) == 0
        assert capsys.readouterr().out == ""

    def test_probe_budget_exhaustion(self, capsys):
        assert main([
            "service", "--tenants", "1", "--budget", "300",
            "--probe-budget", "64", "--scale", "0.05", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["jobs"][0]["state"] == "budget_exhausted"

    def test_invalid_tenant_count(self, capsys):
        assert main(["service", "--tenants", "0", "--scale", "0.05"]) == 1

    def test_telemetry_flag(self, tmp_path, capsys):
        run = tmp_path / "service.jsonl"
        assert main([
            "service", "--tenants", "1", "--budget", "300",
            "--scale", "0.05", "--quiet", "--telemetry", str(run),
        ]) == 0
        lines = [json.loads(l) for l in run.read_text().splitlines()]
        kinds = {e.get("event") for e in lines}
        assert "manifest" in kinds
        assert "scan_summary" in kinds


class TestLongitudinalScan:
    """scan --epochs/--hitlist and the hitlist subcommand."""

    @pytest.fixture()
    def sim_seeds(self, tmp_path):
        path = tmp_path / "sim-seeds.txt"
        assert main(["simulate", "--scale", "0.05", "--output", str(path)]) == 0
        return path

    def test_epochs_scan_feeds_hitlist_store(self, sim_seeds, tmp_path, capsys):
        store = tmp_path / "store.hitlist"
        assert main([
            "scan", str(sim_seeds), "--scale", "0.05",
            "--epochs", "3", "--hitlist", str(store), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["command"] == "scan"
        assert [row["epoch"] for row in payload["epochs"]] == [0, 1, 2]
        assert all(row["probes_sent"] > 0 for row in payload["epochs"])
        assert payload["epochs"][-1]["store_entries"] > 0
        assert store.exists()
        # The snapshot was compacted next to the log.
        assert store.with_name(store.name + ".snap.npz").exists()

    def test_second_invocation_continues_the_timeline(
        self, sim_seeds, tmp_path, capsys
    ):
        store = tmp_path / "store.hitlist"
        assert main([
            "scan", str(sim_seeds), "--scale", "0.05",
            "--epochs", "2", "--hitlist", str(store), "--quiet",
        ]) == 0
        assert main([
            "scan", str(sim_seeds), "--scale", "0.05",
            "--epochs", "2", "--hitlist", str(store), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        # Epochs 0-1 were consumed by the first run; this one resumes.
        assert [row["epoch"] for row in payload["epochs"]] == [2, 3]

    def test_epochs_rejects_checkpointing(self, sim_seeds, tmp_path, capsys):
        assert main([
            "scan", str(sim_seeds), "--scale", "0.05", "--epochs", "2",
            "--checkpoint", str(tmp_path / "ckpt.jsonl"),
        ]) == 1
        assert "epoch" in capsys.readouterr().err

    def test_hitlist_inspect_and_export(self, sim_seeds, tmp_path, capsys):
        store = tmp_path / "store.hitlist"
        assert main([
            "scan", str(sim_seeds), "--scale", "0.05",
            "--epochs", "2", "--hitlist", str(store), "--quiet",
        ]) == 0
        exported = tmp_path / "believed.txt"
        assert main([
            "hitlist", str(store), "--export", str(exported), "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["command"] == "hitlist"
        assert payload["entries"] > 0
        assert payload["epoch"] == 1
        assert payload["exported"] == len(read_hitlist_ints(exported))
        assert payload["exported"] > 0

    def test_hitlist_missing_store_fails(self, tmp_path, capsys):
        assert main(["hitlist", str(tmp_path / "nope.jsonl")]) == 1
        assert "no hitlist store" in capsys.readouterr().err

    def test_service_epochs(self, capsys):
        assert main([
            "service", "--tenants", "1", "--budget", "300",
            "--scale", "0.05", "--epochs", "2", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["epochs"] == 2
        assert [j["epoch"] for j in payload["jobs"]] == [0, 1]
        assert all(j["state"] == "finished" for j in payload["jobs"])
