"""Exit codes, report shapes, and byte stability of the command line."""

import json

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
], ids=["virasoro", "noghost", "basis"])
def test_negative_level_is_a_config_error(capsys, argv):
    code, out, err = run(capsys, argv + ["--max-level", "-1"])
    assert code == 2
    assert out == ""
    assert "--max-level" in err


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

    def test_expensive_grid_refused(self, capsys):
        code, _, err = run(
            capsys, ["virasoro", "--d", "26", "--max-level", "3"])
        assert code == 2
        assert "--allow-expensive" in err

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

    def test_level_two_word_off_the_slice_still_runs(self, capsys):
        # a level-two body along direction 3 keeps terms in p^0 alone, so
        # the slice sees it and the check runs
        code, out, _ = run(
            capsys, ["locality", "--d", "6", "--word", "3:2", "--grid", "64"])
        assert code == 0
        assert json.loads(out)["pass"] is True
