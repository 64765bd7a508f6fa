"""Tests of the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.service import validate_service_bench


class TestDecodeCommand:
    def test_decode_micro_blossom(self, capsys):
        exit_code = main(
            [
                "decode",
                "--distance",
                "3",
                "--error-rate",
                "0.02",
                "--samples",
                "3",
                "--seed",
                "1",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "defects" in output
        assert len(output.splitlines()) >= 5

    def test_decode_union_find(self, capsys):
        exit_code = main(
            [
                "decode",
                "--distance",
                "3",
                "--samples",
                "2",
                "--decoder",
                "union-find",
            ]
        )
        assert exit_code == 0
        assert "correction_edges" in capsys.readouterr().out

    def test_decode_reports_optimal_weight(self, capsys):
        main(["decode", "--distance", "3", "--samples", "2", "--decoder", "parity-blossom"])
        output = capsys.readouterr().out
        assert "optimal" in output


class TestDecodersCommand:
    def test_lists_capabilities_not_bare_names(self, capsys):
        assert main(["decoders"]) == 0
        output = capsys.readouterr().out
        assert "streaming" in output and "timing_model" in output
        assert "native" in output  # micro-blossom streams natively
        assert "adapter" in output  # everything else streams via the adapter
        for name in ("micro-blossom", "parity-blossom", "union-find", "reference"):
            assert name in output


class TestStreamCommand:
    def test_stream_micro_blossom(self, capsys):
        exit_code = main(
            [
                "stream",
                "--distance",
                "3",
                "--error-rate",
                "0.02",
                "--samples",
                "48",
                "--shard-size",
                "16",
                "--seed",
                "1",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "reaction_us" in output
        assert "max_backlog_us" in output
        assert "streams=3" in output

    def test_stream_adapter_backend_with_window(self, capsys):
        exit_code = main(
            [
                "stream",
                "--distance",
                "3",
                "--error-rate",
                "0.03",
                "--samples",
                "24",
                "--decoder",
                "union-find",
                "--window",
                "2",
                "--rounds",
                "4",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "rounds=4" in output
        assert "reaction_us" in output

    def test_stream_rejects_decoder_without_model(self):
        with pytest.raises(SystemExit):
            main(["stream", "--decoder", "reference"])


class TestOtherCommands:
    def test_resources_command(self, capsys):
        assert main(["resources"]) == 0
        output = capsys.readouterr().out
        assert "luts" in output
        assert "13" in output

    def test_experiment_table4(self, capsys):
        assert main(["experiment", "table4"]) == 0
        assert "paper_luts" in capsys.readouterr().out

    def test_accuracy_command(self, capsys):
        exit_code = main(
            [
                "accuracy",
                "--distance",
                "3",
                "--error-rate",
                "0.03",
                "--samples",
                "50",
                "--decoder",
                "reference",
            ]
        )
        assert exit_code == 0
        assert "logical_error_rate" in capsys.readouterr().out

    def test_accuracy_with_early_stopping_and_workers(self, capsys):
        exit_code = main(
            [
                "accuracy",
                "--distance",
                "3",
                "--error-rate",
                "0.04",
                "--samples",
                "400",
                "--shard-size",
                "50",
                "--workers",
                "2",
                "--target-se",
                "0.05",
                "--decoder",
                "reference",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "logical_error_rate" in output
        # early stopping reports the shots actually consumed
        samples = int(output.split("samples=")[1].split()[0])
        assert samples <= 400 and samples % 50 == 0

    def test_latency_command(self, capsys):
        exit_code = main(
            [
                "latency",
                "--distance",
                "3",
                "--error-rate",
                "0.01",
                "--samples",
                "60",
                "--shard-size",
                "30",
                "--decoder",
                "parity-blossom",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "latency_us" in output
        assert "p99=" in output

    def test_accuracy_zero_failures_reports_rule_of_three_bound(self, capsys):
        exit_code = main(
            [
                "accuracy",
                "--distance",
                "3",
                "--error-rate",
                "0.0001",
                "--samples",
                "50",
                "--decoder",
                "reference",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "errors=0" in output
        assert "logical_error_rate<=" in output
        assert "rule of three" in output

    def test_latency_rejects_decoder_without_model(self):
        with pytest.raises(SystemExit):
            main(["latency", "--decoder", "reference"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "figure99"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestSweepCommand:
    RUN_ARGS = [
        "sweep",
        "run",
        "--distances",
        "3",
        "--error-rates",
        "0.04",
        "--decoders",
        "reference,union-find",
        "--shots",
        "48",
        "--shard-size",
        "16",
        "--seed",
        "9",
    ]

    def _store(self, tmp_path):
        return str(tmp_path / "store.jsonl")

    def test_run_then_resume_hits_the_cache(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(self.RUN_ARGS + ["--store", store]) == 0
        output = capsys.readouterr().out
        assert "2 run, 0 cached" in output
        assert main(["sweep", "resume", "--store", store]) == 0
        assert "0 run, 2 cached" in capsys.readouterr().out

    def test_resume_without_a_store_file_fails(self, tmp_path, capsys):
        assert main(["sweep", "resume", "--store", self._store(tmp_path)]) == 2
        assert "no sweep spec" in capsys.readouterr().err

    def test_report_tabulates_stored_points(self, tmp_path, capsys):
        store = self._store(tmp_path)
        main(self.RUN_ARGS + ["--store", store])
        capsys.readouterr()
        assert main(["sweep", "report", "--store", store]) == 0
        output = capsys.readouterr().out
        assert "logical_error_rate" in output
        assert "upper_bound" in output

    def test_report_on_empty_store_fails(self, tmp_path, capsys):
        assert main(["sweep", "report", "--store", self._store(tmp_path)]) == 2
        assert "no results" in capsys.readouterr().err

    def test_corrupt_store_reports_cleanly(self, tmp_path, capsys):
        store = tmp_path / "store.jsonl"
        store.write_text("garbage that is not json\n")
        assert main(["sweep", "report", "--store", str(store)]) == 2
        assert "corrupt" in capsys.readouterr().err

    def test_latency_sweep_report_shows_latency_column(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert (
            main(
                [
                    "sweep",
                    "run",
                    "--distances",
                    "3",
                    "--error-rates",
                    "0.04",
                    "--decoders",
                    "union-find",
                    "--shots",
                    "48",
                    "--latency",
                    "--store",
                    store,
                ]
            )
            == 0
        )
        assert "latency_p99_us" in capsys.readouterr().out

    def test_export_bench_writes_schema_valid_artifact(self, tmp_path, capsys):
        import json

        from repro.sweeps import validate_bench

        store = self._store(tmp_path)
        main(self.RUN_ARGS + ["--store", store])
        bench_path = tmp_path / "BENCH_sweep.json"
        assert main(
            ["sweep", "export-bench", "--store", store, "--output", str(bench_path)]
        ) == 0
        document = json.loads(bench_path.read_text())
        validate_bench(document)
        assert len(document["points"]) == 2

    def test_export_bench_without_spec_fails(self, tmp_path, capsys):
        assert (
            main(["sweep", "export-bench", "--store", self._store(tmp_path)]) == 2
        )

    def test_run_accepts_a_spec_file(self, tmp_path, capsys):
        import json

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "name": "from-file",
                    "distances": [3],
                    "physical_error_rates": [0.04],
                    "decoders": ["union-find"],
                    "shots": 32,
                    "seed": 4,
                    "shard_size": 16,
                }
            )
        )
        store = self._store(tmp_path)
        assert main(["sweep", "run", "--spec", str(spec_path), "--store", store]) == 0
        assert "'from-file'" in capsys.readouterr().out

    def test_streaming_flag_adds_the_axis(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert (
            main(
                [
                    "sweep",
                    "run",
                    "--distances",
                    "3",
                    "--error-rates",
                    "0.03",
                    "--decoders",
                    "union-find",
                    "--shots",
                    "32",
                    "--shard-size",
                    "16",
                    "--streaming",
                    "--store",
                    store,
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "2 run, 0 cached" in output  # batch + stream point per cell
        assert "stream" in output and "batch" in output  # the mode column

    def test_zero_failure_point_reported_as_bound(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert (
            main(
                [
                    "sweep",
                    "run",
                    "--distances",
                    "3",
                    "--error-rates",
                    "0.0001",
                    "--decoders",
                    "reference",
                    "--shots",
                    "40",
                    "--store",
                    store,
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "<=" in output  # rule-of-three upper bound, not 0 +/- 0


class TestServeBenchCommand:
    def test_serve_bench_emits_validated_document(self, tmp_path, capsys):
        output_path = tmp_path / "BENCH_service.json"
        exit_code = main(
            [
                "serve-bench",
                "--requests",
                "24",
                "--distances",
                "3",
                "--error-rates",
                "0.02",
                "--decoders",
                "union-find",
                "--workers",
                "2",
                "--seed",
                "3",
                "--output",
                str(output_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "24 requests (24 completed, 0 shed, 0 error)" in output
        assert "identity: 24 checked, 0 mismatches" in output
        document = json.loads(output_path.read_text())
        validate_service_bench(document)
        assert document["identity"]["mismatches"] == 0

    def test_serve_bench_smoke_uses_pinned_trace(self, tmp_path, capsys):
        output_path = tmp_path / "BENCH_service.json"
        exit_code = main(
            ["serve-bench", "--smoke", "--no-verify", "--output", str(output_path)]
        )
        assert exit_code == 0
        document = json.loads(output_path.read_text())
        assert document["trace"]["name"] == "ci-smoke"
        assert document["trace"]["requests"] == 96
        # --smoke replays the pinned trace twice (cache-off/on comparison).
        assert document["requests"] == 192
        assert document["outcome_cache"]["hits"] == 96
        assert document["cache_comparison"] is not None
        assert document["identity"]["checked"] == 0  # --no-verify

    def test_serve_bench_accepts_trace_file(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        trace_path.write_text(
            json.dumps(
                {
                    "name": "file-trace",
                    "scenarios": [
                        {
                            "distance": 3,
                            "physical_error_rate": 0.02,
                            "decoder": "union-find",
                        }
                    ],
                    "requests": 8,
                    "arrival": "closed",
                    "clients": 2,
                }
            )
        )
        output_path = tmp_path / "BENCH_service.json"
        exit_code = main(
            [
                "serve-bench",
                "--trace",
                str(trace_path),
                "--output",
                str(output_path),
            ]
        )
        assert exit_code == 0
        assert json.loads(output_path.read_text())["trace"]["name"] == "file-trace"

    def test_serve_bench_fault_plan_file(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({"name": "cli-plan", "seed": 11, "poison_rate": 0.3}))
        output_path = tmp_path / "BENCH_service.json"
        exit_code = main(
            [
                "serve-bench",
                "--requests",
                "16",
                "--distances",
                "3",
                "--error-rates",
                "0.02",
                "--decoders",
                "union-find",
                "--seed",
                "3",
                "--fault-plan",
                str(plan_path),
                "--output",
                str(output_path),
            ]
        )
        assert exit_code == 0
        document = json.loads(output_path.read_text())
        validate_service_bench(document)
        assert document["fault_plan"]["name"] == "cli-plan"
        assert document["error_responses"] > 0
        assert (
            document["completed"] + document["shed"] + document["error_responses"]
            == document["requests"]
        )
        assert "poisoned errored" in capsys.readouterr().out

    def test_serve_bench_hostile_smoke_records_isolated_mix(self, tmp_path, capsys):
        output_path = tmp_path / "BENCH_service.json"
        exit_code = main(
            [
                "serve-bench",
                "--requests",
                "8",
                "--distances",
                "3",
                "--error-rates",
                "0.02",
                "--decoders",
                "union-find",
                "--hostile-smoke",
                "--output",
                str(output_path),
            ]
        )
        assert exit_code == 0
        document = json.loads(output_path.read_text())
        validate_service_bench(document)
        mix = document["hostile_mix"]
        assert [entry["family"] for entry in mix] == [
            "flash-crowd",
            "pareto",
            "zipf",
            "slow-consumer",
        ]
        assert all(entry["isolated"] for entry in mix)
        assert all(entry["poisoned"] > 0 for entry in mix)
        assert "NOT ISOLATED" not in capsys.readouterr().out


class TestServiceGateExit:
    """A failing SERVICE_BENCH_GATES row on the written document exits 1."""

    def test_serve_bench_identity_mismatch_fails_its_row(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        from repro.evaluation import ServiceLoadEngine

        real_run = ServiceLoadEngine.run

        def run_with_mismatch(self, verify_identity=False):
            result = real_run(self, verify_identity=verify_identity)
            return dataclasses.replace(result, identity_mismatches=1)

        monkeypatch.setattr(ServiceLoadEngine, "run", run_with_mismatch)
        output_path = tmp_path / "BENCH_service.json"
        exit_code = main(
            [
                "serve-bench",
                "--requests",
                "8",
                "--distances",
                "3",
                "--error-rates",
                "0.02",
                "--decoders",
                "union-find",
                "--output",
                str(output_path),
            ]
        )
        assert exit_code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "identity.mismatches" in err[0], err
        # The gate ran on the validated, written document.
        assert json.loads(output_path.read_text())["identity"]["mismatches"] == 1

    def test_serve_net_smoke_below_the_wire_floor_fails_its_row(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.service.net import bench

        real_comparison = bench.wire_comparison

        def slow_comparison(*args, **kwargs):
            return {**real_comparison(*args, **kwargs), "speedup": 1.4}

        monkeypatch.setattr(bench, "wire_comparison", slow_comparison)
        output_path = tmp_path / "BENCH_service_net.json"
        exit_code = main(
            [
                "serve-net",
                "--smoke",
                "--processes",
                "1",
                "--client-ladder",
                "1,2",
                "--output",
                str(output_path),
            ]
        )
        assert exit_code == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "speedup below the 1.5x floor" in err[0], err
        # serve-net --smoke fills every block the network rows read.
        document = json.loads(output_path.read_text())
        assert document["saturation"]["scaling"]["series"]
        assert document["wire"]["stats"]["codec"] == 2
        assert document["wire"]["comparison"]["speedup"] == 1.4
