import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nskoszul
from nskoszul import cli, complexes, sweep
from nskoszul.cli import (
    EXIT_INCONCLUSIVE,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_USAGE,
    RingSpecParseError,
    main,
    parse_ring_spec,
    render_ring_spec,
)
from nskoszul.egm import DegreeRangeError
from nskoszul.gb import InhomogeneousInput
from nskoszul.koszul_check import NotMinimal
from nskoszul.ring import RingSpec
from nskoszul.sweep import rows_to_csv, run_sweep, sweep_exit_status


class TestParseRingSpec:
    def test_paper_ring(self):
        spec = parse_ring_spec("x=1,y=3")
        assert spec.weights == (1, 3)
        assert spec.names == ("x", "y")
        assert spec.char == 32003

    def test_one_variable(self):
        spec = parse_ring_spec("x=1")
        assert spec.weights == (1,)

    def test_characteristic_suffix(self):
        spec = parse_ring_spec("x1=1,x2=2,y=2@101")
        assert spec.weights == (1, 2, 2)
        assert spec.char == 101

    def test_duplicate_name(self):
        with pytest.raises(RingSpecParseError):
            parse_ring_spec("x=1,x=2")

    def test_zero_weight_reports_position(self):
        with pytest.raises(RingSpecParseError) as exc:
            parse_ring_spec("x=1,y=0")
        assert exc.value.position == 4

    def test_composite_characteristic(self):
        with pytest.raises(RingSpecParseError):
            parse_ring_spec("x=1@32004")

    def test_characteristic_beyond_kernel_range(self):
        with pytest.raises(RingSpecParseError, match="2\\*\\*31"):
            parse_ring_spec("x=1@4294967311")

    def test_round_trip(self):
        for text in ["x=1,y=3", "a=2,b=5@101", "x1=1,x2=2,y=2"]:
            spec = parse_ring_spec(text)
            assert parse_ring_spec(render_ring_spec(spec)) == spec

    def test_char_env_override(self, monkeypatch):
        monkeypatch.setenv("NSKOSZUL_CHAR", "101")
        assert parse_ring_spec("x=1").char == 101


class TestSubcommands:
    def test_gens(self, capsys):
        assert main(["gens", "--ring", "x=2,y=3", "--e", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        for text in ["x^4", "x^2*y", "x*y^2", "y^3"]:
            assert text in out

    def test_resolve_json(self, capsys):
        assert (
            main(["resolve", "--ring", "x=1,y=4", "--e", "5", "--format", "json"])
            == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["modules"] == [[5, 5, 8], [9, 9]]

    def test_koszul_verdict_exit_codes(self, capsys):
        assert main(["koszul", "--ring", "x=1,y=3", "--e", "5"]) == EXIT_OK
        capsys.readouterr()
        assert (
            main(["koszul", "--ring", "x=1,y=3", "--e", "5", "--bound", "3"])
            == EXIT_INCONCLUSIVE
        )

    def test_koszul_json_payload(self, capsys):
        main(["koszul", "--ring", "x=1,y=3", "--e", "5", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"] == {
            "lin_acyclic": "true",
            "gr_linear": "true",
            "construction_match": "true",
        }
        assert payload["betti"] == [
            {"i": 0, "j": 0, "rank": 3},
            {"i": 1, "j": 1, "rank": 2},
        ]

    def test_machine_output_is_byte_stable(self, capsys):
        main(["koszul", "--ring", "x=1,y=3", "--e", "5", "--format", "json"])
        first = capsys.readouterr().out
        main(["koszul", "--ring", "x=1,y=3", "--e", "5", "--format", "json"])
        second = capsys.readouterr().out
        assert first == second

    def test_gr_betti_and_hilbert(self, capsys):
        assert main(["gr-betti", "--ring", "x=1,y=3", "--e", "5", "--format", "json"]) == 0
        betti = json.loads(capsys.readouterr().out)["betti"]
        assert betti == [{"i": 0, "j": 0, "rank": 3}, {"i": 1, "j": 1, "rank": 2}]
        assert main(["gr-hilbert", "--ring", "x=1,y=3", "--e", "5", "--format", "json"]) == 0
        hilb = json.loads(capsys.readouterr().out)["hilbert"]
        assert hilb[:3] == [3, 4, 5]

    def test_construct_trace(self, capsys):
        assert (
            main(
                ["construct", "--ring", "x1=1,x2=2,y=2", "--e", "7", "--trace",
                 "--format", "json"]
            )
            == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["betti"][-1] == {"i": 2, "j": 2, "rank": 10}
        assert payload["trace"]["N"] == 4
        assert payload["trace"]["steps"][0]["after_horseshoe"] == [
            [0, 0, 3],
            [1, 1, 3],
            [2, 2, 1],
        ]

    def test_ses_check(self, capsys):
        assert main(["ses-check", "--ring", "x=1,y=3", "--e", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "layer 0: ok" in out and "layer 1: ok" in out

    def test_lin_check(self, capsys):
        assert main(["lin-check", "--ring", "x=1,y=4", "--e", "5"]) == EXIT_OK

    def test_parse_error_exit_code(self, capsys):
        assert main(["gens", "--ring", "x=0", "--e", "3"]) == 2

    def test_bad_bound_is_usage_error(self, capsys):
        assert main(["gr-betti", "--ring", "x=1,y=3", "--e", "5", "--bound", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: bound")

    @pytest.mark.parametrize("command", ["gens", "resolve", "construct"])
    def test_bound_rejected_where_unused(self, command, capsys):
        # these commands read no degree bound, so --bound is not an option
        with pytest.raises(SystemExit) as exc:
            main([command, "--ring", "x=1,y=3", "--e", "5", "--bound", "3"])
        assert exc.value.code == EXIT_USAGE
        assert "--bound" in capsys.readouterr().err

    def test_emit_cas(self, tmp_path, capsys):
        script = tmp_path / "check.m2"
        assert (
            main(
                ["koszul", "--ring", "x=1,y=3", "--e", "5", "--emit-cas", str(script)]
            )
            == EXIT_OK
        )
        text = script.read_text()
        assert "Degrees => {1,3}" in text
        assert "x^5, x^2*y, y^2" in text
        assert "res" in text


class TestSweep:
    def test_tiny_sweep_all_true(self):
        rows = run_sweep(2, 2, 3)
        assert sweep_exit_status(rows) == 0
        # weight multisets (1), (2), (1,1), (1,2), (2,2); e in 1..3
        assert len(rows) == 15

    def test_case_count(self):
        rows = run_sweep(2, 2, 2)
        # weight multisets: (1), (2), (1,1), (1,2), (2,2); e in {1, 2}
        assert len(rows) == 10

    def test_includes_paper_row(self):
        rows = run_sweep(2, 3, 5)
        hit = [r for r in rows if r.case.weights == (1, 3) and r.case.e == 5]
        assert len(hit) == 1
        assert hit[0].report.gr_table.entries == ((0, 0, 3), (1, 1, 2))

    def test_csv_format(self):
        rows = run_sweep(2, 2, 2)
        csv = rows_to_csv(rows, max_hom=2)
        lines = csv.strip().split("\n")
        assert lines[0] == (
            "vars,weights,e,bound,lin_acyclic,gr_linear,construction_match,"
            "beta_total_0,beta_total_1,beta_total_2"
        )
        assert len(lines) == 11
        assert all(",true,true,true," in line for line in lines[1:])

    def test_csv_deterministic(self):
        a = rows_to_csv(run_sweep(2, 2, 2), max_hom=2)
        b = rows_to_csv(run_sweep(2, 2, 2), max_hom=2)
        assert a == b

    def test_empty_range(self):
        rows = run_sweep(1, 1, 0)
        assert rows == []
        assert sweep_exit_status(rows) == 0

    def test_parallel_matches_serial(self):
        serial = rows_to_csv(run_sweep(2, 2, 2, jobs=1), max_hom=2)
        parallel = rows_to_csv(run_sweep(2, 2, 2, jobs=2), max_hom=2)
        assert serial == parallel

    def test_cli_sweep_rejects_jobs_below_one(self, capsys):
        for bad in ("0", "-3"):
            argv = ["sweep", "--max-vars", "1", "--max-e", "1", "--jobs", bad]
            assert main(argv) == EXIT_USAGE
            assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--max-vars", "--max-weight", "--max-e"])
    def test_cli_sweep_rejects_empty_grid(self, flag, capsys):
        # a grid with no cases would report a vacuous "all true"
        for bad in ("0", "-1"):
            argv = ["sweep", "--max-vars", "1", "--max-weight", "1", "--max-e", "1", flag, bad]
            assert main(argv) == EXIT_USAGE
            assert flag in capsys.readouterr().err

    def test_workers_capped_by_cases_and_cpus(self, monkeypatch):
        # a stand-in pool records the size asked for and maps in this process
        requested = []

        class RecordingPool:
            def __init__(self, size):
                requested.append(size)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(sweep, "Pool", RecordingPool)
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: 3)
        serial = rows_to_csv(run_sweep(1, 2, 1, jobs=1), max_hom=1)
        assert requested == []
        assert rows_to_csv(run_sweep(1, 2, 1, jobs=64), max_hom=1) == serial
        assert requested == [2]  # two cases
        run_sweep(2, 2, 2, jobs=64)
        assert requested == [2, 3]  # ten cases, three CPUs
        run_sweep(2, 2, 2, jobs=2)
        assert requested == [2, 3, 2]
        monkeypatch.setattr(sweep.os, "cpu_count", lambda: None)
        run_sweep(2, 2, 2, jobs=4)
        assert requested == [2, 3, 2]  # CPU count unknown: serial

    def test_cli_sweep_rejects_bad_characteristic(self, capsys):
        # --char 0 used to fall back to the default characteristic silently
        for bad in ("0", "9", "4294967311"):
            argv = ["sweep", "--max-vars", "1", "--max-e", "1", "--char", bad]
            assert main(argv) == 2
            assert "characteristic" in capsys.readouterr().err

    def test_cli_sweep_csv(self, capsys):
        assert (
            main(
                ["sweep", "--max-vars", "1", "--max-weight", "2", "--max-e", "2",
                 "--format", "csv"]
            )
            == EXIT_OK
        )
        out = capsys.readouterr().out
        assert out.startswith("vars,weights,e,bound,")


class TestInternalErrors:
    # failures of the program, not of its input: exit 4, never the usage code 2

    @pytest.mark.parametrize(
        "attr, exc, argv",
        [
            ("linear_part", NotMinimal("unit entry in d_2 at (0, 0)"), ["lin-check"]),
            ("gr_betti", DegreeRangeError("degree 9 beyond stored bound 8"), ["gr-betti"]),
            ("resolve_module", InhomogeneousInput(0, {2, 3}), ["resolve"]),
        ],
    )
    def test_exit_code(self, monkeypatch, capsys, attr, exc, argv):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, attr, fail)
        assert main(argv + ["--ring", "x=1,y=3", "--e", "5"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == f"internal error ({type(exc).__name__}): {exc}\n"

    def test_resolution_level_cap(self, monkeypatch, capsys):
        # syzygies that never run out drive resolve_module into its level cap
        monkeypatch.setattr(complexes, "syzygies", lambda gens: (list(gens), None))
        assert main(["resolve", "--ring", "x=1,y=1", "--e", "2"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("internal error (RuntimeError): resolution did not terminate")


def test_module_entry_point_runs_cleanly():
    src = Path(nskoszul.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "nskoszul.cli", "gens", "--ring", "x=1,y=2", "--e", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0
    assert done.stderr == ""


def test_exit_code_mapping_with_synthetic_reports():
    # a false verdict must map to the failure exit code, distinct from
    # the inconclusive one
    from nskoszul.koszul_check import koszul_verdict
    from nskoszul.ring import RingSpec
    import dataclasses

    report = koszul_verdict(RingSpec((1, 3)), 5)
    falsified = dataclasses.replace(report, gr_linear=__import__("nskoszul").Verdict.FALSE)
    rows_ok = []

    class Row:
        def __init__(self, rep):
            self.report = rep

    assert sweep_exit_status([Row(report)]) == 0
    assert sweep_exit_status([Row(falsified)]) == 1
    inconclusive = dataclasses.replace(
        report, gr_linear=__import__("nskoszul").Verdict.INCONCLUSIVE
    )
    assert sweep_exit_status([Row(inconclusive)]) == 3
