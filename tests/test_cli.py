import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import nskoszul
import oracles
from nskoszul import cli, gb, koszul_check, sweep
from nskoszul.cli import (
    EXIT_INTERNAL,
    EXIT_USAGE,
    RingSpecParseError,
    main,
    parse_ring_spec,
    render_ring_spec,
)
from nskoszul.complexes import GradedFreeComplex, resolve_module
from nskoszul.egm import DegreeRangeError
from nskoszul.gb import NotMonomial, monomial_elements
from nskoszul.koszul_check import (
    EXIT_FALSE,
    EXIT_OK,
    NotMinimal,
    Verdict,
    koszul_verdict,
    linear_part,
)
from nskoszul.ring import DEFAULT_CHAR, FreeModuleSpec, RingSpec
from nskoszul.sweep import rows_to_csv, run_sweep, sweep_cases, sweep_exit_status
from nskoszul.truncation import trunc_gens


def x2_y2_linear_part(F=None, spec=None):
    """lin of the resolution of (x^2, y^2): H_1 = S(-1), one grid cell.  Takes
    and ignores linear_part's arguments, so it can stand in for it."""
    R = RingSpec((1, 1), ("x", "y"))
    return linear_part(resolve_module(monomial_elements(R, [(2, 0), (0, 2)])), R)


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

    @pytest.mark.parametrize(
        "text,position",
        # int() would read weight 10, characteristic 31 and weight 1
        [("x=1_0", 0), ("x=1,y=2@3_1", 8), ("x=\uff11", 0)],
    )
    def test_only_ascii_digits(self, text, position, capsys):
        with pytest.raises(RingSpecParseError) as exc:
            parse_ring_spec(text)
        assert exc.value.position == position
        assert main(["gens", "--ring", text, "--e", "3"]) == EXIT_USAGE
        assert f"(at position {position})" in capsys.readouterr().err
        # spaces around a number are still allowed
        assert parse_ring_spec(" x = 2 , y=3 @ 101 ") == RingSpec((2, 3), ("x", "y"), 101)

    def test_round_trip(self):
        for text in ["x=1,y=3", "a=2,b=5@101", "x1=1,x2=2,y=2"]:
            spec = parse_ring_spec(text)
            assert parse_ring_spec(render_ring_spec(spec)) == spec

    def test_one_default_characteristic(self, monkeypatch):
        # every default characteristic is DEFAULT_CHAR, whatever the environment
        monkeypatch.setenv("NSKOSZUL_CHAR", "101")
        assert parse_ring_spec("x=1").char == DEFAULT_CHAR
        assert sweep_cases(1, 1, 1)[0].char == DEFAULT_CHAR
        assert RingSpec((1, 3)).char == DEFAULT_CHAR


class TestSubcommands:
    def test_gens(self, capsys):
        assert main(["gens", "--ring", "x=2,y=3", "--e", "7"]) == EXIT_OK
        out = capsys.readouterr().out
        for text in ["x^4", "x^2*y", "x*y^2", "y^3"]:
            assert text in out

    def test_raw_is_gone(self, capsys):
        # resolve computes only the minimal resolution
        with pytest.raises(SystemExit) as exc:
            main(["resolve", "--ring", "x=1,y=3", "--e", "5", "--raw"])
        assert exc.value.code == EXIT_USAGE
        assert "--raw" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ring,e,digest",
        [
            ("x=1,y=3", 5, "e1e069ab907144d69ca476cab5582cda3526c3e10b609049a78be4f150dae381"),
            ("x=1,y=1,z=2@2", 4, "3f45802e7375be4afc73361343406fc41088800039e2b117b40c3540abbfbf2b"),
            ("x=1,y=1,z=2,w=3", 3, "ad8b57f723a2b3cfecc693e8691a32c22a13a4d7fb5494ca9a7a5c3a1614439b"),
        ],
    )
    def test_resolve_differentials_bytes(self, ring, e, digest, capsys):
        # the differentials show which syzygies each level kept, so a
        # change of basis or of sort order changes these bytes
        argv = ["resolve", "--ring", ring, "--e", str(e), "--format", "json"]
        assert main(argv + ["--show-differentials"]) == EXIT_OK
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "ring,e,syz_digest,lin_digest",
        [
            (
                "x=1,y=3",
                5,
                "e17dacc0487c4b99730e7ba9b2000519acd72b8acbb4e5eb7fe391201cb36d1d",
                "e7666eda351b9c2b9dedd8aac9b06afc6a42cf07d2ac5d38a843c82831698a74",
            ),
            (
                "x=1,y=1,z=2@2",
                4,
                "b31ab30185cd570ec1204a505b23d1289df0af13ff558644a67188f52bac6554",
                "d622215318e875c9d80ff7ac6ff5578d0f78161a83bdd011d6bc75973161bfc7",
            ),
            (
                "x=1,y=1,z=2,w=3",
                3,
                "b0268b048d9d10ab5b2faac7d991485cab4f340173cc7382c8dc6bb08f3a5328",
                "618c102fba80e06bd0d21d8dc2c2ebb7a450891799aac3fda509177701266b60",
            ),
            # the rings above resolve the same when the chain criterion
            # ignores lcm(mk, mj); these two do not
            (
                "x=1,y=1,z=1@2",
                3,
                "f173206f2ca7ffe57cf5ea010a8e18a439fbbbf1dba637db6deaa8098e6d1014",
                "c4b1aeadc1971122a756ee0b4e60e6cd89da98e53d355c9072ba32f49cb01e9c",
            ),
            (
                "x=1,y=2,z=2",
                5,
                "9321338162ee86a9b0317ab58c1cf84cf9e8f1ac644eb48151e6ccd1031ce9a8",
                "bffd8a376d5c44e556fa7a1f7ab34e16063258c4af1060fdd9f7618742246229",
            ),
        ],
    )
    def test_resolve_syzygies_and_linear_part_bytes(
        self, ring, e, syz_digest, lin_digest, monkeypatch
    ):
        # every syzygy set the engine finds, before the selection, and
        # every entry of the linear part: a change in the pairs the chain
        # criterion drops or in the reduction order shows up here directly
        runs = oracles.record_engine_runs(monkeypatch)
        spec = parse_ring_spec(ring)
        L = linear_part(resolve_module(monomial_elements(spec, trunc_gens(spec, e))), spec)
        syz_hash = hashlib.sha256()
        for _, out, source in runs:
            syz_hash.update(f"{source.twists}: {out!r}\n".encode())
        lin_hash = hashlib.sha256(repr([m.twists for m in L.modules]).encode())
        for mat in cli.differential_strings(L):
            for row in mat:
                lin_hash.update(" ".join(row).encode() + b"\n")
        assert (syz_hash.hexdigest(), lin_hash.hexdigest()) == (syz_digest, lin_digest)

    def test_resolve_json(self, capsys):
        assert (
            main(["resolve", "--ring", "x=1,y=4", "--e", "5", "--format", "json"])
            == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["modules"] == [[5, 5, 8], [9, 9]]

    def test_koszul_verdict_exit_codes(self, monkeypatch, capsys):
        assert main(["koszul", "--ring", "x=1,y=3", "--e", "5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("ring x=1,y=3@32003, e = 5\n")
        assert out.split().count("true") == 3
        # a linear part with homology makes the lin verdict false: exit 1
        monkeypatch.setattr(koszul_check, "linear_part", x2_y2_linear_part)
        assert main(["koszul", "--ring", "x=1,y=3", "--e", "5"]) == EXIT_FALSE
        assert "lin_acyclic:        false" in capsys.readouterr().out

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
        payload = json.loads(capsys.readouterr().out)
        assert payload["betti"] == [{"i": 0, "j": 0, "rank": 3}, {"i": 1, "j": 1, "rank": 2}]
        assert "bound" not in payload  # the whole table
        assert main(["gr-hilbert", "--ring", "x=1,y=3", "--e", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["hilbert"][:3] == [3, 4, 5]
        assert payload["bound"] == 13 == len(payload["hilbert"]) - 1

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

    @pytest.mark.parametrize("ring", ["x=1,y=2", "x=2", "x=1,y=1,z=3"])
    def test_ses_check_without_layers(self, ring, capsys):
        # for e <= 0 the truncation is the whole ring, with no layers
        argv = ["ses-check", "--ring", ring, "--e", "0"]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out == "no layers at e = 0\n"
        assert main(argv[:-1] + ["-2", "--bound", "3", "--format", "json"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["layers"] == []
        assert main(argv + ["--layer", "0"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: no layers at e = 0")

    def test_lin_check(self, capsys):
        assert main(["lin-check", "--ring", "x=1,y=4", "--e", "5"]) == EXIT_OK

    def test_lin_check_with_bound_zero(self, capsys):
        # lin-check lists every witness cell, so it has no bound to set
        with pytest.raises(SystemExit) as exc:
            main(["lin-check", "--ring", "x=1,y=4", "--e", "5", "--bound", "0"])
        assert exc.value.code == EXIT_USAGE
        capsys.readouterr()
        assert main(["lin-check", "--ring", "x=1,y=4", "--e", "5"]) == EXIT_OK
        assert capsys.readouterr().out == "lin acyclic: true\n"

    def test_lin_check_lists_witness_cells(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "linear_part", x2_y2_linear_part)
        argv = ["lin-check", "--ring", "x=1,y=3", "--e", "5", "--format", "json"]
        assert main(argv) == EXIT_FALSE
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdicts"] == {"lin_acyclic": "false"}
        assert payload["nonzero_homology"] == [{"i": 1, "j": 1, "dim": 1}]
        assert "bound" not in payload

    def test_parse_error_exit_code(self, capsys):
        assert main(["gens", "--ring", "x=0", "--e", "3"]) == 2

    def test_bad_bound_is_usage_error(self, capsys):
        assert main(["gr-hilbert", "--ring", "x=1,y=3", "--e", "5", "--bound", "-1"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: bound")

    @pytest.mark.parametrize(
        "command", ["gens", "resolve", "construct", "koszul", "lin-check", "gr-betti"]
    )
    def test_bound_rejected_where_unused(self, command, capsys):
        # these commands have finite outputs and read no degree bound, so
        # --bound is not an option
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


# The stdout of every subcommand in each of its formats, as sha256, and the
# exit status 0.  koszul and sweep print timings in their text, which are
# cut to "ms" before hashing; a --emit-cas script is hashed after the stdout.
OUTPUT_PINS = [
    ("gens --ring x=1,y=3 --e 5",
     "7ca5427a4fe9de71855e47a518f6c0de671327529cabc06c222b45b5b62ceb57"),
    ("gens --ring x=1,y=3 --e 5 --format json",
     "f5026db752f3d438380df5e8d78941ca3ffa3aa26fa6d1d015d88d4909a07001"),
    ("gens --ring x=1,y=1,z=2@101 --e 4",
     "7d17a5537c008affcb88fa66ad57a2ca4f2b97f1b21f6ecd6296e4f9d971fccf"),
    ("gens --ring x=1,y=1,z=2@101 --e 4 --format json",
     "e287777ddad032f4363ab35544a783a513fa4f8d51b7a6ce5fbd66415506259f"),
    ("gens --ring x=2,y=3 --e 0",
     "6ed11ef3e47c584607a1f920a6c0938dd9afc15b9ae34a233fb807a3d05f8448"),
    ("gens --ring x=2,y=3 --e 0 --format json",
     "77238dc5abad59bba9e2ce210fdd504084957729cffea1a9a1e78194fa0bf075"),
    ("resolve --ring x=1,y=3 --e 5",
     "f60c9ba2e7ecdbeff1cd09bdf9450dd6457b855f401ba45ecc9555873f9cba26"),
    ("resolve --ring x=1,y=3 --e 5 --format json",
     "1a7df0aafb1860c051388935437149f8c16f8c1af04fedbc476e8fe1223098bb"),
    ("resolve --ring x=1,y=3 --e 5 --show-differentials",
     "02271489c12e73bbe7fe845be591adca5ab843727dda165acb2c5fef05c67d0c"),
    ("resolve --ring x=1,y=1,z=2@101 --e 4",
     "914d280c7352ded8edc3df38c7d2e9de787ee5e4bab813a95c389632625d9731"),
    ("resolve --ring x=1,y=1,z=2@101 --e 4 --format json",
     "4c9af51febfaaa35a47d7d31abc61ee89ea2129e36df2ae4b4c20cc853f63515"),
    ("resolve --ring x=1,y=1,z=2@101 --e 4 --show-differentials",
     "e95561d52abd16ea0b168a86d9e11ffd8a3bfc5ce88c417f0217240467f0c84c"),
    ("resolve --ring x=1,y=2 --e -1",
     "3617b6ee593920af0cce6810693eb6678d1a2b14f979b1c1aebff2f691baee97"),
    ("resolve --ring x=1,y=2 --e -1 --format json",
     "7f5ea19d71df5f3fbfcfb983340b192a8cee885e4788d316d33aefa27af60ada"),
    ("gr-betti --ring x=1,y=3 --e 5",
     "ceeb57cfb882e4ca16401221b51a93c4b58e98bd714b67fc7f9034ef78e898ba"),
    ("gr-betti --ring x=1,y=3 --e 5 --format json",
     "24e308aa383c2d597c33a2583a9adf43ed90a661e278775cad0d39f8b6411216"),
    ("gr-betti --ring x=1,y=1,z=2@101 --e 4",
     "9ec05323cd47098bb91ccae96a8813855044323e358d9cbdb6104bb86c7521ad"),
    ("gr-betti --ring x=1,y=1,z=2@101 --e 4 --format json",
     "2651e1d32c24d59ce99db93103642b15be2176cda6642cb954deee1df2b051b2"),
    ("gr-betti --ring x=1,y=2 --e 0",
     "0fac00b1f79a7dc671420f78a20368e1ae47edf1d5e138bdf8db6a545b60f52f"),
    ("gr-betti --ring x=1,y=2 --e 0 --format json",
     "d9452c048dd8a03b3f27199d3fe19ff7b18992065a247452cf401d56991f08b2"),
    ("gr-hilbert --ring x=1,y=3 --e 5",
     "d9b9f8619c1434a4f4cf3591bfc571e5018c49914a79882dc9f1fcd4b14c6eee"),
    ("gr-hilbert --ring x=1,y=3 --e 5 --format json",
     "a1c707d83e7b5db0945adaef30a2c0830741c0d996c9c70646f15e555820d326"),
    ("gr-hilbert --ring x=1,y=1,z=2@101 --e 4 --bound 6",
     "4c176946f5ab7b14dbd30130beb6a641376f14bb5dab7ac593c339049527b634"),
    ("gr-hilbert --ring x=1,y=1,z=2@101 --e 4 --bound 6 --format json",
     "1ea73846588d5be5613f86900541684325e27771a801f5106be779b0ea07f160"),
    ("gr-hilbert --ring x=2 --e -1 --bound 3",
     "58a98fefb360601a54b212d23725370d9e44768ae470bd4470fbb64db85995bb"),
    ("gr-hilbert --ring x=2 --e -1 --bound 3 --format json",
     "3694f705dc33c33636e9c05103e46a292177b8849d3176eed4aad9b1b435515c"),
    ("lin-check --ring x=1,y=3 --e 5",
     "2419505fba742200d8daec7009f7bb06b79d414b9cf6f953aeb5c79a14c614d8"),
    ("lin-check --ring x=1,y=3 --e 5 --format json",
     "7db0673f2234e61ddcb1925a995ea86c2f7fc9dc2b78577a443badd8215c3ca3"),
    ("lin-check --ring x=1,y=1,z=2@101 --e 4",
     "2419505fba742200d8daec7009f7bb06b79d414b9cf6f953aeb5c79a14c614d8"),
    ("lin-check --ring x=1,y=1,z=2@101 --e 4 --format json",
     "6baf8043fc1e8ffac47416c5330ab395998d4eeeeb1c9b7246763b8581e95d05"),
    ("lin-check --ring x=1,y=2 --e 0",
     "2419505fba742200d8daec7009f7bb06b79d414b9cf6f953aeb5c79a14c614d8"),
    ("lin-check --ring x=1,y=2 --e 0 --format json",
     "7857ae1d9951752bffc02d33d91fb7651e4b9c4c6d1a29cf4aaa4d7249849025"),
    ("construct --ring x1=1,x2=2,y=2 --e 7 --trace",
     "270f0d2184ce065897bb523b9f13b5304dc039b86e5340c0f7f6c87aaa814914"),
    ("construct --ring x1=1,x2=2,y=2 --e 7 --trace --format json",
     "c0febafbc6da6667d0c595e2e80b6ae5c3fdb9045a6d7691fa50229916717bb9"),
    ("construct --ring x=1,y=3 --e 5",
     "3ebb4d15b025608c37791c2cd111d0acfc22f8e314137d72094e825e99267277"),
    ("construct --ring x=1,y=3 --e 5 --format json",
     "24e308aa383c2d597c33a2583a9adf43ed90a661e278775cad0d39f8b6411216"),
    ("construct --ring x=1,y=1,z=2@101 --e 0 --trace",
     "27d0eaef43ad14f7e7c6af5d53b77d5727eb205a3ee87f3dd7276758ac499e93"),
    ("construct --ring x=1,y=1,z=2@101 --e 0 --trace --format json",
     "676983238b95001cc48580c631b58dc4cff54e4063e44e5de191d02c74f5607f"),
    ("koszul --ring x=1,y=3 --e 5",
     "011be0ec9bc15c83dded3c94640d66d0b752518654ec1438438e5b74c15ff9a4"),
    ("koszul --ring x=1,y=3 --e 5 --format json",
     "80e814844d010975d44dd1e1b5432b24a6476a060fd2a409a617fa129ee8d3d1"),
    ("koszul --ring x=1,y=1,z=2@101 --e 4",
     "dd959d0905e057d0177d6d0e005dab48ddcddea9a6e69d957e0874ba6ffd4e51"),
    ("koszul --ring x=1,y=1,z=2@101 --e 4 --format json",
     "230e4048e8015ed5a4d31ae79d9b56061f8dcc4db56ab08a354837e3338dcc67"),
    ("koszul --ring x=1,y=2 --e 0",
     "41ca43c3a275519ffadaa36a1353585f21b842a285fe507c8e2e1265590de01a"),
    ("koszul --ring x=1,y=2 --e 0 --format json",
     "ddb8e8bec8ca5d7c3160b2a4409cbe01e80ab326baaa8d24d0db8e6dd1a982d3"),
    ("koszul --ring x=1,y=3 --e 5 --emit-cas check.m2",
     "2138cc9c906ec383d1a034cefc0e52be7037d9f593d4542e94c0cd1e96c99f5e"),
    ("ses-check --ring x=1,y=3 --e 5",
     "694dd6f30fd8a329a3d4ad4b0a2966d0a34d8201ff177d62acb25f0aefed42af"),
    ("ses-check --ring x=1,y=3 --e 5 --format json",
     "9d3d219626566290407d60d6246c6db6a2b1a9996b663dafd4114058000bde31"),
    ("ses-check --ring x=1,y=3 --e 5 --layer 1",
     "019bb2ffe306a2b42b972134becd17ed188d80c3f2b25e54c856d72e87fcd685"),
    ("ses-check --ring x=1,y=3 --e 5 --layer 1 --format json",
     "416dcc08c12f33e68276ea5dd86e2c7a2055544add309fa04d0cbb373c4d57fe"),
    ("ses-check --ring x=1,y=1,z=2@101 --e 4 --bound 5",
     "694dd6f30fd8a329a3d4ad4b0a2966d0a34d8201ff177d62acb25f0aefed42af"),
    ("ses-check --ring x=1,y=1,z=2@101 --e 4 --bound 5 --format json",
     "384f55361dbc3e00a5228a56be65a2aca769d17cb17611e3fa12f0a5c05a2e22"),
    ("ses-check --ring x=1,y=2 --e 0",
     "80c06f11ab79239ad78d377f77f8d006ebc22c7c4cb0a2fecd17fda3d00fc21c"),
    ("ses-check --ring x=1,y=2 --e 0 --format json",
     "0f63ebe6957eda1b3ff922520a2d26196654238715a8f9866dfb09710457acaf"),
    ("sweep --max-vars 2 --max-weight 2 --max-e 3 --format text",
     "9a274c2b64c0009bf96fe4af7335712a045364cda64e4297cd850a3633a56088"),
    ("sweep --max-vars 2 --max-weight 2 --max-e 3 --format json",
     "05e77c58dc3e38361f694eef35fcc5774a5596c4e810c599cbd590cf8acfe20c"),
    ("sweep --max-vars 2 --max-weight 2 --max-e 3 --format csv",
     "9bb3cd056b71709086e02255554a7c410c9ebbff4f1028dd0d07f6ec97a047a5"),
    ("sweep --max-vars 2 --max-weight 2 --max-e 2 --char 101 --format csv",
     "49e62ea23420bfc5811b96e1693019884f2334d1e75286e0d890a8aa8662d353"),
    ("sweep --max-vars 2 --max-weight 2 --max-e 2 --char 101 --format json",
     "2d434f580551c53f08ca3a7d344dada03af4443148e6d483932f0584a1cc5595"),
]


@pytest.mark.parametrize("command,digest", OUTPUT_PINS, ids=[c for c, _ in OUTPUT_PINS])
def test_output_bytes(command, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = command.split()
    assert main(argv) == EXIT_OK
    out = re.sub(r"[0-9.]+ ms", "ms", capsys.readouterr().out)
    if "--emit-cas" in argv:
        out += (tmp_path / argv[argv.index("--emit-cas") + 1]).read_text()
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOutputPaths:
    # a file that cannot be written is a usage error (2), never "false" (1)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["gens", "--ring", "x=1,y=2", "--e", "3"], "--out"),
            (["koszul", "--ring", "x=1,y=3", "--e", "5"], "--emit-cas"),
            (["sweep", "--max-vars", "1", "--max-weight", "1", "--max-e", "1"], "--out"),
        ],
    )
    def test_missing_directory_is_refused_before_any_work(
        self, argv, flag, tmp_path, monkeypatch, capsys
    ):
        def never(*args, **kwargs):
            raise AssertionError("computed before checking the output path")

        for attr in ("trunc_gens", "koszul_verdict", "run_sweep"):
            monkeypatch.setattr(cli, attr, never)
        target = tmp_path / "missing" / "f"
        assert main(argv + [flag, str(target)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write") and "missing" in err
        assert not target.parent.exists()

    @pytest.mark.parametrize("same", ["f", "./f", "link"])
    def test_out_and_emit_cas_on_one_file_are_refused_before_any_work(
        self, same, tmp_path, monkeypatch, capsys
    ):
        # the report would overwrite the script that the output says it wrote
        def never(*args, **kwargs):
            raise AssertionError("computed before checking the output paths")

        monkeypatch.setattr(cli, "koszul_verdict", never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "link").symlink_to(tmp_path / "f")
        argv = ["koszul", "--ring", "x=1,y=3", "--e", "5", "--out", "f", "--emit-cas", same]
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: --out and --emit-cas both name f\n"
        assert not (tmp_path / "f").exists()
        # distinct files get both outputs
        monkeypatch.undo()
        monkeypatch.chdir(tmp_path)
        assert main(argv[:-1] + ["g"]) == EXIT_OK
        assert "res" in (tmp_path / "g").read_text()
        assert "wrote cross-validation script to g" in (tmp_path / "f").read_text()

    def test_directory_as_output_file(self, tmp_path, capsys):
        assert main(["gens", "--ring", "x=1,y=2", "--e", "3", "--out", str(tmp_path)]) == EXIT_USAGE
        assert "is a directory" in capsys.readouterr().err

    def test_failed_write_is_usage_error(self, tmp_path, monkeypatch, capsys):
        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli, "open", denied, raising=False)
        target = tmp_path / "f"
        assert main(["gens", "--ring", "x=1,y=2", "--e", "3", "--out", str(target)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"error: cannot write {target}: Permission denied\n"


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

    def test_case_order(self):
        # run_sweep keeps this order, serial or pooled, with no sort of its own
        cases = [(c.weights, c.e) for c in sweep_cases(2, 3, 2)]
        assert cases == [
            ((1,), 1), ((1,), 2), ((2,), 1), ((2,), 2), ((3,), 1), ((3,), 2),
            ((1, 1), 1), ((1, 1), 2), ((1, 2), 1), ((1, 2), 2), ((1, 3), 1), ((1, 3), 2),
            ((2, 2), 1), ((2, 2), 2), ((2, 3), 1), ((2, 3), 2), ((3, 3), 1), ((3, 3), 2),
        ]
        assert [(r.case.weights, r.case.e) for r in run_sweep(2, 3, 2)] == cases

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
            ("resolve_module", NotMonomial(0, 2), ["resolve"]),
            # not a ValueError: never exit 1, which means a false verdict
            ("gr_betti", KeyError((0, (1, 2))), ["gr-betti"]),
            ("gr_betti", IndexError("list index out of range"), ["gr-betti"]),
        ],
    )
    def test_exit_code(self, monkeypatch, capsys, attr, exc, argv):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, attr, fail)
        assert main(argv + ["--ring", "x=1,y=3", "--e", "5"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err == f"internal error ({type(exc).__name__}): {exc}\n"

    @pytest.mark.parametrize("command", ["lin-check", "koszul"])
    def test_multi_term_linear_part(self, monkeypatch, capsys, command):
        # d_1 = (x + y) does not split into multidegree blocks, so lin
        # acyclicity has no finite decision; it is never a bounded guess
        R = RingSpec((1, 1), ("x", "y"))
        d1 = (({(0, (1, 0)): 1, (0, (0, 1)): 1},),)
        L = GradedFreeComplex(R, (FreeModuleSpec((0,)), FreeModuleSpec((1,))), d1)
        for module in (cli, koszul_check):
            monkeypatch.setattr(module, "linear_part", lambda F, spec=None: L)
        assert main([command, "--ring", "x=1,y=3", "--e", "5"]) == EXIT_INTERNAL
        assert capsys.readouterr().err.startswith("internal error (NoFiniteDecision): ")

    def test_fields_too_narrow_for_the_lcm(self, monkeypatch, capsys):
        # two bits narrower, the fields no longer hold x^5, the lcm's
        # exponent of x: the first level's check refuses the kept x^5
        class Narrow(gb._Layout):
            def __init__(self, n, width):
                super().__init__(n, width - 2)

        monkeypatch.setattr(gb, "_Layout", Narrow)
        assert main(["resolve", "--ring", "x=1,y=3", "--e", "5"]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert err.startswith("internal error (RuntimeError): a multidegree reached a guard bit")

    def test_resolution_level_cap(self, monkeypatch, capsys):
        # syzygies that never run out drive resolve_module into its level cap:
        # each generator of every level is found as its own syzygy
        class Endless(gb._Engine):
            def run(self):
                shift = self.layout.shift
                self.syzygies = [({j << shift: 1}, d) for j, d in enumerate(self.source.twists)]

        monkeypatch.setattr(gb, "_Engine", Endless)
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
    # a false verdict maps to the failure exit code, whichever verdict it is
    import dataclasses

    report = koszul_verdict(RingSpec((1, 3)), 5)

    class Row:
        def __init__(self, rep):
            self.report = rep

    assert sweep_exit_status([Row(report)]) == EXIT_OK
    for name in report.verdicts():
        falsified = dataclasses.replace(report, **{name: Verdict.FALSE})
        assert sweep_exit_status([Row(falsified)]) == EXIT_FALSE
        assert sweep_exit_status([Row(report), Row(falsified)]) == EXIT_FALSE
