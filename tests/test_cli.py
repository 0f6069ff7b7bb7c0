"""Exit codes, report shapes, and byte stability of the command line."""

import ast
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from openstring.cli import main


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_no_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_fraction_flag(self, capsys):
        code, _, err = run(capsys, ["ddf-state", "--d", "4", "--b", "one"])
        assert code == 2
        assert "not a rational" in err

    def test_bad_word_syntax(self, capsys):
        code, _, err = run(capsys, ["ddf-state", "--d", "4", "--word", "11"])
        assert code == 2
        assert "bad word entry" in err

    def test_bad_dimension_list(self, capsys):
        code, out, err = run(capsys, ["noghost", "--d-list", "4,x"])
        assert code == 2
        assert out == ""
        assert err.startswith("config error: --d-list")

    def test_help_shows_each_default(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["testfn", "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for shown in ("--d D spacetime dimension (default 26)",
                      "(default 1:1)", "support radius, rational (default 1)",
                      "(default 1024)", "(default 0.001)"):
            assert shown in text

    def test_word_direction_out_of_range(self, capsys):
        # direction 5 does not exist among the transverse labels at d = 4
        code, _, _ = run(capsys, ["ddf-state", "--d", "4", "--word", "5:1"])
        assert code == 2


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 4, "max_level": 1}))
        code, out, _ = run(capsys, ["virasoro", "--config", str(cfg)])
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == 4
        assert payload["max_level"] == 1

    def test_explicit_flag_beats_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": 4, "max_level": 2}))
        code, out, _ = run(
            capsys, ["virasoro", "--config", str(cfg), "--max-level", "0"])
        assert code == 0
        assert json.loads(out)["max_level"] == 0

    def test_malformed_json(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("{broken")
        code, _, err = run(capsys, ["virasoro", "--config", str(cfg)])
        assert code == 2
        assert "not valid JSON" in err

    def test_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"levels": 3}))
        code, _, err = run(capsys, ["virasoro", "--config", str(cfg)])
        assert code == 2
        assert "unknown config key" in err

    def test_wrong_value_type(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": "four"}))
        code, _, err = run(capsys, ["virasoro", "--config", str(cfg)])
        assert code == 2
        assert "should be int" in err

    def test_bool_is_not_an_int(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"d": True}))
        code, _, _ = run(capsys, ["virasoro", "--config", str(cfg)])
        assert code == 2

    def test_missing_config_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["virasoro", "--config", str(tmp_path / "absent.json")])
        assert code == 2
        assert "cannot read config" in err


@pytest.mark.parametrize("argv", [
    ["virasoro", "--d", "4"],
    ["noghost", "--d-list", "4"],
    ["basis"],
    ["virasoro", "--d", "26"],
    ["noghost", "--d-list", "26", "--format", "json"],
    ["basis", "--d", "4", "--format", "json"],
], ids=["virasoro", "noghost", "basis", "virasoro-uncapped", "noghost-json",
        "basis-json"])
def test_negative_level_is_a_config_error(capsys, argv):
    code, out, err = run(capsys, argv + ["--max-level", "-1"])
    assert code == 2
    assert out == ""
    assert "--max-level" in err


@pytest.mark.parametrize("argv,flag", [
    (["testfn", "--grid", "0"], "--grid"),
    (["testfn", "--tol", "-1"], "--tol"),
    (["locality", "--tol", "0"], "--tol"),
    (["observable", "--tol", "inf"], "--tol"),
    (["locality", "--grid", "0"], "--grid"),
    (["observable", "--grid", "-8"], "--grid"),
    (["testfn", "--tol", "nan"], "--tol"),
    (["locality", "--tol=-inf"], "--tol"),
    (["locality", "--sweep", "0,4,0", "--tol", "0"], "--tol"),
    (["locality", "--grid", "6"], "--grid"),
    (["locality", "--grid", "7"], "--grid"),
    (["observable", "--grid", "6"], "--grid"),
    (["observable", "--grid", "9"], "--grid"),
], ids=["testfn-grid", "testfn-tol", "locality-tol", "observable-tol",
        "locality-grid", "observable-grid", "testfn-tol-nan",
        "locality-tol-minus-inf", "locality-sweep-tol", "locality-grid-6",
        "locality-grid-odd", "observable-grid-6", "observable-grid-odd"])
def test_unusable_grid_or_tol_is_a_config_error(capsys, argv, flag):
    code, out, err = run(capsys, argv + ["--d", "4"])
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("argv,config,flag", [
    (["virasoro", "--d", "1"], None, "--d"),
    (["basis", "--d", "0"], None, "--d"),
    (["virasoro"], {"d": 1}, "--d"),
    (["virasoro", "--d", "4"], {"max_level": -1}, "--max-level"),
    (["basis"], {"max_level": -2}, "--max-level"),
    (["testfn", "--d", "4"], {"grid": 0}, "--grid"),
    (["observable", "--d", "4"], {"grid": -4}, "--grid"),
    (["testfn", "--d", "4"], {"tol": 0}, "--tol"),
    (["locality", "--d", "4"], {"tol": -1e-6}, "--tol"),
    (["ddf", "--d", "4"], {"kappa_set": ["1", "0"]}, "--kappa-set"),
    (["ddf", "--d", "4"], {"kappa_set": []}, "--kappa-set"),
    (["ddf-state", "--d", "4"], {"momentum": "1,0,0,-1"}, "--momentum"),
    (["noghost", "--d-list", "4"], {"format": "xml"}, "format"),
    (["noghost", "--d-list", "1,4"], None, "--d-list"),
    (["noghost"], {"d_list": "4,1"}, "--d-list"),
], ids=["d-flag", "d-flag-basis", "d", "max_level", "max_level-basis", "grid",
        "grid-observable", "tol", "tol-locality", "kappa_set", "kappa_set-empty",
        "momentum", "format", "d_list-flag", "d_list"])
def test_range_check_on_either_route(capsys, tmp_path, argv, config, flag):
    # one check per flag, whether the value comes from the command line or
    # from the config file
    if config is not None:
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == ""
    assert flag in err


@pytest.mark.parametrize("argv", [
    ["noghost", "--seed", "1"],
    ["ddf-state", "--seed", "1"],
    ["testfn", "--seed", "1"],
    ["locality", "--seed", "1"],
    ["observable", "--seed", "1"],
    ["basis", "--seed", "1"],
    ["noghost", "--d", "4"],
    ["basis", "--b", "1"],
], ids=lambda argv: "".join(argv[:2]))
def test_flag_a_command_does_not_read_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) \
        in capsys.readouterr().err


class TestBasis:
    # dimensions of prod_n (1 - q^n)^(-d), cross-computed by explicit
    # polynomial multiplication of the truncated Euler factors and, for
    # d = 4 up to level 4, by enumerating the monomial basis directly
    DIMS = {
        4: [1, 4, 14, 40, 105, 252, 574],
        10: [1, 10, 65, 330, 1430, 5512, 19415],
        26: [1, 26, 377, 3978, 33930, 247312, 1593891],
    }

    @pytest.mark.parametrize("d", sorted(DIMS))
    def test_csv_table(self, capsys, d):
        code, out, _ = run(
            capsys, ["basis", "--d", str(d), "--max-level", "6"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "level,dimension,enumerated"
        dims = [int(line.split(",")[1]) for line in lines[1:]]
        assert dims == self.DIMS[d]

    def test_enumerated_column_audits_series(self, capsys):
        code, out, _ = run(capsys, ["basis", "--d", "4", "--max-level", "4"])
        assert code == 0
        for line in out.strip().split("\n")[1:]:
            level, dim, counted = line.split(",")
            if counted:
                assert counted == dim

    def test_disagreeing_series_is_an_internal_error(self, capsys,
                                                     monkeypatch):
        from openstring import cli

        real = cli.basis_dimension
        monkeypatch.setattr(cli, "basis_dimension",
                            lambda d, level: real(d, level) + 1)
        code, out, err = run(capsys, ["basis", "--d", "4", "--max-level", "2"])
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: series/enumeration mismatch")

    @pytest.mark.parametrize("exc", [KeyError("d"), ZeroDivisionError(
        "division by zero"), TypeError("bad operand")])
    def test_unexpected_exception_is_an_internal_error(self, capsys,
                                                       monkeypatch, exc):
        # exit 1 means a check ran and failed; a stray exception is not that
        from openstring import cli

        def broken(args):
            raise exc

        monkeypatch.setitem(cli.COMMANDS, "basis",
                            (broken, *cli.COMMANDS["basis"][1:]))
        code, out, err = run(capsys, ["basis", "--d", "4"])
        assert code == 4
        assert out == ""
        assert err == f"internal error: {type(exc).__name__}: {exc}\n"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, ["basis", "--d", "10", "--max-level", "3",
                     "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["dimensions"] == {"0": 1, "1": 10, "2": 65, "3": 330}

    def test_config_sourced_bad_format(self, capsys, tmp_path):
        # argparse guards the flag route; the config route reaches the
        # command's own format check
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        code, _, err = run(capsys, ["basis", "--d", "4", "--config", str(cfg)])
        assert code == 2
        assert "unsupported format" in err


class TestVirasoro:
    def test_grid_passes_and_counts(self, capsys):
        code, out, _ = run(
            capsys, ["virasoro", "--d", "4", "--max-level", "2"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["nonzero_residuals"] == 0
        assert payload["mode_pairs"] == 28      # unordered pairs in -3..3
        # 28 pairs x 2 momenta x (1 + 4 + 14) basis states
        assert payload["states_checked"] == 1064

    def test_nonzero_residuals_counts_states(self, capsys, monkeypatch):
        # one state whose residual has two terms is one failing state
        from fractions import Fraction

        from openstring import cli
        from openstring.fock import FockVector

        calls = []

        def one_bad_state(m, n, level, p, params):
            calls.append((m, n, level))
            if len(calls) > 1:
                return [((), FockVector())]
            return [((), FockVector({(): Fraction(1), ((1, 0),): Fraction(2)}))]

        monkeypatch.setattr(cli, "virasoro_bracket_scan", one_bad_state)
        code, out, _ = run(
            capsys, ["virasoro", "--d", "4", "--max-level", "0"])
        payload = json.loads(out)
        assert code == 1
        assert payload["nonzero_residuals"] == 1
        assert payload["pass"] is False
        assert payload["states_checked"] == len(calls) == 56

    def test_expensive_grid_refused(self, capsys):
        # the level-3 grid at d = 26 runs uncapped, so the old switch
        # that lifted the cap is an unknown argument
        with pytest.raises(SystemExit) as exc:
            main(["virasoro", "--d", "26", "--max-level", "3",
                  "--allow-expensive"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --allow-expensive" in \
            capsys.readouterr().err

    def test_reports_are_byte_stable(self, capsys, tmp_path):
        argv = ["virasoro", "--d", "4", "--max-level", "1", "--seed", "9"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(argv + ["--out", str(first)]) == 0
        assert main(argv + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_the_probe(self, capsys):
        _, out_a, _ = run(capsys, ["virasoro", "--d", "4", "--max-level", "0",
                                   "--seed", "1"])
        _, out_b, _ = run(capsys, ["virasoro", "--d", "4", "--max-level", "0",
                                   "--seed", "2"])
        momenta_a = json.loads(out_a)["momenta"]
        momenta_b = json.loads(out_b)["momenta"]
        assert momenta_a[0] == momenta_b[0]     # the fixed probe
        assert momenta_a[1] != momenta_b[1]     # the seeded one


class TestDdf:
    def test_calibration_and_residual_table(self, capsys):
        code, out, _ = run(capsys, ["ddf", "--d", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["kappa"] == "1"
        assert payload["max_nonzero_residual"] == "0"
        assert len(payload["probes"]) == 2
        assert all(p["constraint_residual_terms"] == 0
                   for p in payload["probes"])

    def test_all_candidates_fail_exits_three(self, capsys):
        code, _, err = run(
            capsys, ["ddf", "--d", "4", "--kappa-set", "3", "5"])
        assert code == 3
        assert "calibration failed" in err
        assert "kappa = 3" in err and "kappa = 5" in err

    def test_zero_candidate_is_refused(self, capsys):
        code, _, err = run(capsys, ["ddf", "--d", "4", "--kappa-set", "0"])
        assert code == 2
        assert "candidate 0" in err
        assert "lightcone" not in err


class TestNoGhost:
    def test_csv_header_and_critical_row(self, capsys):
        code, out, _ = run(
            capsys, ["noghost", "--d-list", "26", "--max-level", "1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("d,b,level,r,dim_total,dim_physical,"
                            "dim_spurious,n_plus,n_minus,n_zero,elapsed_ms")
        assert lines[2] == "26,1,1,0,26,25,1,24,0,1,"

    def test_json_rows(self, capsys):
        code, out, _ = run(
            capsys, ["noghost", "--d-list", "4,10", "--max-level", "1",
                     "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["d"] for r in rows] == [4, 4, 10, 10]
        assert rows[3]["signature"] == [8, 0, 1]

    def test_disagreeing_rank_audit_is_an_internal_error(self, capsys,
                                                         monkeypatch):
        from openstring import spectrum

        monkeypatch.setattr(spectrum, "rank_fraction_free",
                            lambda matrix: len(matrix) + 1)
        code, out, err = run(
            capsys, ["noghost", "--d-list", "4", "--max-level", "1"])
        assert code == 4
        assert out == ""
        assert err.startswith("internal error: elimination routes disagree")

    def test_inconsistent_report_is_an_internal_error(self, capsys,
                                                      monkeypatch):
        # a signature one off no longer sums to the physical dimension;
        # the scan audits every report before anything is printed
        from openstring import spectrum

        original = spectrum.hermitian_signature

        def one_off(gram):
            n_plus, n_minus, n_null = original(gram)
            return n_plus + 1, n_minus, n_null

        monkeypatch.setattr(spectrum, "hermitian_signature", one_off)
        code, out, err = run(
            capsys, ["noghost", "--d-list", "4", "--max-level", "1"])
        assert code == 4
        assert out == ""
        assert err == ("internal error: d=4, level=0: signature does not "
                       "sum to the physical dimension\n")


class TestDdfState:
    def test_default_word_on_shell(self, capsys):
        code, out, _ = run(capsys, ["ddf-state", "--d", "4"])
        assert code == 0
        payload = json.loads(out)
        assert payload["level"] == 1
        assert payload["constraint_residual_terms"] == 0
        assert payload["terms"]            # nonempty state

    def test_degenerate_fiber_is_refused(self, capsys):
        # p^0 + p^{d-1} = 0: every transverse operator is zero there, so
        # the state would be zero and its constraints vacuously satisfied
        code, out, err = run(
            capsys, ["ddf-state", "--d", "4", "--word", "1:1",
                     "--momentum", "1,0,0,-1"])
        assert code == 2
        assert out == ""
        assert "p^0 + p^{d-1} = 0" in err

    def test_explicit_momentum(self, capsys):
        code, out, _ = run(
            capsys, ["ddf-state", "--d", "4", "--word", "1:1,2:1",
                     "--momentum", "2,1,0,1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["level"] == 2
        assert payload["momentum"] == ["2", "1", "0", "1"]


class TestTestfn:
    def test_full_verification(self, capsys):
        code, out, _ = run(
            capsys, ["testfn", "--d", "4", "--word", "1:1", "--radius", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["constraints"]["residual_terms"] == 0
        assert float(payload["support"]["worst_fraction"]) < 1e-3

    def test_coarse_grid_is_a_resolution_error(self, capsys):
        code, out, err = run(
            capsys, ["testfn", "--d", "4", "--radius", "1/100",
                     "--grid", "64"])
        assert code == 2
        assert out == ""
        assert err.startswith("resolution error:")
        assert "raise --grid" in err

    def test_small_radius(self, capsys):
        code, out, _ = run(
            capsys, ["testfn", "--d", "4", "--word", "1:1",
                     "--radius", "1/10"])
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("word,b,shell", [
        pytest.param(word, b, shell, id=f"r={shell}") for word, b, shell in [
            ([], "3", -6), ([], "1/2", -1), ([(1, 1)], "1", 0),
            ([(1, 1)], "1/2", 1), ([(1, 1)], "0", 2), ([(1, 2)], "0", 4)]
    ])
    def test_body_samples_are_rational_shell_momenta(self, monkeypatch,
                                                     word, b, shell):
        # the witness and the points t - x = 1/2 and 3 on every shell, the
        # r <= -9/4 shells included
        from fractions import Fraction

        from openstring import cli
        from openstring.fock import ModelParams
        from openstring.testfn import BumpProfile, make_testfunction, realify

        monkeypatch.setattr(cli, "verify_support", lambda *a, **k: None)
        params = ModelParams(4, Fraction(b))
        tf = realify(make_testfunction(word, BumpProfile(1, 4), params))
        assert tf.shell == shell
        constraints, _ = cli._verify_body(tf)
        assert constraints.passed
        assert len(constraints.samples) == 3
        for p in constraints.samples:
            assert all(type(c) is Fraction for c in p.components)
            assert p.minkowski_sq() + shell == 0


class TestLocality:
    def test_default_separation_passes(self, capsys):
        code, out, _ = run(
            capsys, ["locality", "--d", "4", "--word", "1:1",
                     "--grid", "128"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert abs(payload["kernel_im"]) < 1e-6
        assert payload["control_abs"] > 1e-5

    def test_too_close_is_a_geometry_error(self, capsys):
        code, _, err = run(
            capsys, ["locality", "--d", "4", "--separation", "0,2,0"])
        assert code == 2
        assert "does not clear" in err

    def test_sweep_csv(self, capsys):
        code, out, _ = run(
            capsys, ["locality", "--d", "4", "--grid", "64",
                     "--sweep", "0,4,0;0,1,0"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "a0,a_space,spacelike,kernel_abs,pass"
        assert len(lines) == 3
        assert lines[2].startswith("0,1;0,False")

    @pytest.mark.parametrize("flags,row,message", [
        pytest.param([], "0", "sweep row 2 (0): separation vector too short",
                     id="too-short"),
        pytest.param(["--dq", "2"], "0,1,0,1",
                     "sweep row 2 (0,1,0,1): separation must lie in the "
                     "reduced spacetime", id="outside-reduced-spacetime"),
    ])
    def test_sweep_refuses_what_separation_refuses(self, capsys, flags, row,
                                                   message):
        # too short, and outside the --dq 2 reduced spacetime: the sweep
        # names the row and runs none, as --separation refuses it
        argv = ["locality", "--d", "4", "--grid", "8", *flags]
        assert run(capsys, [*argv, "--separation", row])[0] == 2
        code, out, err = run(capsys, [*argv, "--sweep", f"0,4,0;{row}"])
        assert code == 2
        assert out == ""
        assert message in err

    def test_sweep_failing_row_exits_one(self, capsys):
        # both rows are spacelike and fail the (unreachable) tolerance; the
        # CSV still lists them, and the exit status reports the failure
        code, out, _ = run(
            capsys, ["locality", "--d", "4", "--grid", "16", "--tol", "1e-30",
                     "--sweep", "1/2,4,0;0,4,0"])
        assert code == 1
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [(r[2], r[4]) for r in rows] == [("True", "False")] * 2

    @pytest.mark.parametrize("extent", ["nan", "inf"])
    def test_non_finite_extent_is_a_config_error(self, capsys, extent):
        code, out, err = run(
            capsys, ["locality", "--d", "4", "--grid", "8",
                     "--extent", extent])
        assert code == 2
        assert out == ""
        assert "extent must be finite" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["locality", "--d", "4", "--grid", "64",
                     "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["grid"] == 64


class TestObservable:
    def test_pipeline_at_d4(self, capsys):
        code, out, _ = run(capsys, ["observable", "--d", "4", "--grid", "128"])
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["constraints_pass"] is True
        assert payload["support_pass"] is True
        assert payload["locality"]["pass"] is True

    @pytest.mark.parametrize("command", ["observable", "locality"])
    def test_word_invisible_to_the_slice_is_refused(self, capsys, command):
        # the level-one body along direction 3 lives on p^3 and p^{d-1},
        # both zero on the --dq 2 slice
        code, out, err = run(
            capsys, [command, "--d", "6", "--word", "3:1", "--grid", "64"])
        assert code == 2
        assert out == ""
        assert "direction 3" in err and "--dq 2" in err

    def test_slice_wider_than_space_is_a_config_error(self, capsys):
        # d = 4 has three spatial directions, so --dq 4 cannot be sliced
        code, out, err = run(
            capsys, ["observable", "--d", "4", "--radius", "1", "--dq", "4",
                     "--grid", "8"])
        assert code == 2
        assert out == ""
        assert "spatial directions" in err

    def test_level_two_word_off_the_slice_still_runs(self, capsys):
        # a level-two body along direction 3 keeps terms in p^0 alone, so
        # the slice sees it and the check runs
        code, out, _ = run(
            capsys, ["locality", "--d", "6", "--word", "3:2", "--grid", "64"])
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("argv,shell", [
        (["locality", "--word", "1:2,1:2"], "6"),
        (["observable", "--d", "4", "--b", "1/2", "--word", "1:1"], "1"),
    ])
    def test_body_off_the_quadrature_tower_is_refused(self, capsys, argv,
                                                      shell):
        # r = 2(level - b) is 6 and 1 here, and the tower is 0, 2, 4
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == ""
        assert f"shell r = 2(level - b) = {shell} " in err
        assert "tower 0, 2, 4" in err


class TestExactCommandsLoadNoNumpy:
    """The exact commands never import numpy; only the numeric functions of
    ``testfn`` and ``field`` do, when they run."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def probe(self, code: str, *path) -> tuple:
        """Run ``code``, which sets ``value``, in a fresh interpreter that
        has imported ``cli`` and ``testfn``: (value, numpy loaded)."""
        script = "\n".join([
            "import contextlib, io, json, sys",
            "import openstring.cli as cli, openstring.testfn as testfn",
            "with contextlib.redirect_stdout(io.StringIO()):",
            textwrap.indent(code, "    "),
            "print(json.dumps([value, 'numpy' in sys.modules]))",
        ])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            str(p) for p in (self.SRC, *path)))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return tuple(json.loads(proc.stdout))

    @pytest.mark.parametrize("argv", [
        ["ddf", "--d", "4"],
        ["virasoro", "--d", "4", "--max-level", "1"],
        ["noghost", "--d-list", "10", "--max-level", "1"],
        ["basis", "--max-level", "2"],
        ["ddf-state", "--d", "4"],
    ])
    def test_exact_command(self, argv):
        assert self.probe(f"value = cli.main({argv!r})") == (0, False)

    def test_numeric_call_loads_numpy(self):
        # the control: the probe does see numpy once a numeric layer runs
        assert self.probe(
            "value = len(testfn.BumpProfile(1, 4).radial_fourier([0.0]))"
        ) == (1, True)

    def test_layer_tracer_installs_without_numpy(self):
        # the benchmark's tracer wraps field's functions on every
        # workload, so field must be loaded, and load no numpy, with cli
        code = "\n".join([
            "from layers import TARGETS",
            "from spans import Tracer",
            "tracer = Tracer()",
            "tracer.install(TARGETS)",
            "tracer.uninstall()",
            "value = 'openstring.field' in sys.modules",
        ])
        assert self.probe(code, self.SRC.parent / "perfbench") == (True, False)

    def test_separation_error_has_one_class(self):
        from openstring import field, testfn
        assert field.SeparationError is testfn.SeparationError


def test_benchmark_workloads_reach_every_expected_layer():
    # what a traced benchmark run requires, on one seed-1 operation of each
    # workload: every layer that perfbench/layers.py EXPECTs records a call
    root = Path(__file__).resolve().parents[1]
    script = "\n".join([
        "import json",
        "from layers import EXPECTED, TARGETS",
        "from spans import Tracer",
        "from workloads import WORKLOADS",
        "dead = {}",
        "for name, wl in WORKLOADS.items():",
        "    inputs, tracer = wl.build(1), Tracer()",
        "    tracer.install(TARGETS)",
        "    try:",
        "        wl.run(inputs)",
        "    finally:",
        "        tracer.uninstall()",
        "    dead[name] = [layer for layer in EXPECTED[name]",
        "                  if layer not in tracer.names",
        "                  and not tracer.count(layer)]",
        "print(json.dumps(dead))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(root / part) for part in ("src", "perfbench")))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    dead = json.loads(proc.stdout)
    assert sorted(dead) == ["ddf", "noghost", "observable", "virasoro"]
    missing = [f"{name}: {layer}" for name, layers in dead.items()
               for layer in layers]
    assert not missing, "no call on " + ", ".join(missing)


def _function_level_package_imports(src: Path) -> list:
    """``module.py:line`` of every import of the package itself, relative
    or absolute, made inside a function of a module under ``src``."""
    sites = set()
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] if not node.level else None
                elif isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                else:
                    continue
                if names is None or any(name.split(".")[0] == "openstring"
                                        for name in names):
                    sites.add(f"{path.relative_to(src)}:{node.lineno}")
    return sorted(sites)


def test_package_imports_sit_at_module_top():
    """No function imports a package module, so each module's header
    names all it depends on and no import hides a cycle; numpy, which
    the exact commands must not load, is the one import kept inside
    functions."""
    src = Path(__file__).resolve().parents[1] / "src" / "openstring"
    assert _function_level_package_imports(src) == []


def _load_cli_cases():
    """``scripts/cli_cases.py``, the case list ``cli_reports.py`` digests,
    loaded by path (it imports nothing)."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "cli_cases.py"
    spec = importlib.util.spec_from_file_location("cli_cases", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_exact_reports_match_pins(tmp_path, monkeypatch):
    """Every exact command of the shared case list prints the pinned bytes
    and exits the pinned way, run in one process through ``cli.main``."""
    cases = _load_cli_cases()
    pins = Path(__file__).with_name("cli_exact_pins.jsonl")
    want = [json.loads(line) for line in pins.read_text().splitlines()]
    exact = [(argv, config) for argv, config in cases.CASES
             if cases.is_exact(argv, config)]
    assert [(p["argv"], p["config"]) for p in want] == exact
    monkeypatch.chdir(tmp_path)
    for pin in want:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(pin["argv"]))
            except SystemExit as exc:
                code = exc.code
        got = {"exit": code, **{
            f"{name}_sha256": hashlib.sha256(
                stream.getvalue().encode()).hexdigest()
            for name, stream in (("stdout", out), ("stderr", err))}}
        assert got == {key: pin[key] for key in got}, pin["argv"]
