import json
import math
import os
import re
import subprocess
import sys
import warnings
from importlib import import_module
from pathlib import Path

import numpy as np
import pytest

import focklab
from focklab import ConfigError
from focklab.cli import main, parse_grid, write_csv


# k = 1: Q0 = |z|^2 + Re(0.6 z^2), whose pure term is harmonic, so R0 = 1 exactly
TWIST = {"kind": "hermitian", "c": 0.0, "k": 1,
         "hermitian_coeffs": [[1, 1, 1.0, 0.0], [2, 0, 0.3, 0.0], [0, 2, 0.3, 0.0]]}
# k = 2: Q0 = |z|^4 + 0.6 Re(z^3 conj(z)), whose mixed term makes it non-radial
MIXED = {"kind": "hermitian", "c": 0.5, "hermitian_coeffs": [[2, 2, 1.0, 0.0], [3, 1, 0.3, 0.0]]}


def run(args):
    return main([str(a) for a in args])


def read_table(path):
    """A CLI-written CSV as its header and rows of floats; blank cells become NaN."""
    header, *lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    return header.split(","), [[math.nan if cell == "" else float(cell) for cell in line.split(",")] for line in lines]


class TestParseGrid:
    def test_linear(self):
        np.testing.assert_allclose(parse_grid("0:2:5"), [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_log(self):
        np.testing.assert_allclose(parse_grid("1:100:3:log"), [1.0, 10.0, 100.0])

    @pytest.mark.parametrize(
        "spec",
        ["1:2", "1:2:3:4:5", "a:2:3", "1:2:1", "2:1:5", "0:2:5:log", "1:2:5:geo", "0:inf:5", "1:inf:3:log", "-1:1:3"],
    )
    def test_rejects(self, spec):
        with pytest.raises(ConfigError):
            parse_grid(spec)

    @pytest.mark.parametrize("spec", ["0:2:5:log", "1:0:3:log", "2:0:5:log", "1:-0:3:log", "1:-1:3:log"])
    def test_log_grid_needs_positive_ends(self, spec):
        # np.geomspace raises a bare ValueError at a zero end and gives NaN across a change of sign
        with pytest.raises(ConfigError, match="log-spaced grid needs rmin > 0 and rmax > 0"):
            parse_grid(spec)
        assert run(["r0", "--grid", spec]) == 2

    @pytest.mark.parametrize("spec", ["-1:1:3", "2:1:5", "1:1:3", "-1e308:1e308:3", "1e308:-1e308:3", "2:1:3:log"])
    def test_order_and_sign_are_the_grid_rule(self, spec):
        # a grid is checked as every radial grid is, with no warning where rmax - rmin passes the largest double
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="grid must be one axis of at least 2 finite radii >= 0"):
                parse_grid(spec)


class TestCsvRoundTrip:
    def test_exact_value_and_blank_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [[1.0 / 3.0, None, 2.0], [math.pi, 1e-300, math.nan]]
        write_csv(path, ["a", "b", "c"], rows)
        header, got = read_table(path)
        assert header == ["a", "b", "c"]
        assert got[0][0] == 1.0 / 3.0 and got[1][0] == math.pi and got[1][1] == 1e-300
        assert math.isnan(got[0][1]) and math.isnan(got[1][2])
        # rewriting the parsed table reproduces the file byte for byte
        write_csv(tmp_path / "t2.csv", header, got)
        assert (tmp_path / "t2.csv").read_bytes() == path.read_bytes()

    def test_header_is_mandatory(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["x"], [[1.0]])
        assert path.read_text().splitlines()[0] == "x"


class TestR0Command:
    def test_flat_table(self, tmp_path):
        out = tmp_path / "r0.csv"
        assert run(["r0", "--grid", "0:2:5", "--out", out]) == 0
        header, rows = read_table(out)
        assert header == ["r", "R0", "deltaQ0", "rel_err"]
        assert len(rows) == 5
        for r, v, dq, rel in rows:
            assert v == pytest.approx(1.0, abs=1e-12)
            assert dq == 1.0

    def test_negative_charge_origin_rejected(self, tmp_path, capsys):
        out = tmp_path / "r0.csv"
        assert run(["r0", "--c", "-0.5", "--grid", "0:1:3", "--out", out]) == 0
        assert "rejected" in capsys.readouterr().err
        _, rows = read_table(out)
        assert math.isnan(rows[0][1]) and not math.isnan(rows[1][1])

    def test_mixed_weight_refused(self, tmp_path, capsys):
        # the closed form needs a radial Q0; a mixed term goes to gram's kernel
        cfgp = tmp_path / "q.json"
        cfgp.write_text(json.dumps(MIXED))
        assert run(["r0", "--coeffs-file", cfgp, "--out", tmp_path / "r0.csv"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "r0 requires a radial weight" in err and "gram" in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["q.json"]

    def test_inline_and_file_flags_conflict(self, tmp_path):
        cfgp = tmp_path / "q.json"
        cfgp.write_text(json.dumps({"kind": "radial", "radial_coeffs": [[1, 1.0]]}))
        assert run(["r0", "--coeffs-file", cfgp, "--k", "2"]) == 2


class TestVerifyThm1:
    def test_in_band(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["verify-thm1", "--k", "1", "--c", "1", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "in band" and doc["exit_status"] == 0
        assert -1.05 <= doc["slope"] <= -0.95
        assert doc["fit_ok"] and not doc["identically_zero"]
        assert len(doc["u"]) == 25

    def test_identically_zero(self, tmp_path):
        out = tmp_path / "rep.json"
        assert run(["verify-thm1", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["identically_zero"] and doc["verdict"] == "identically zero error"

    def test_out_of_band_short_window(self, tmp_path):
        # below u ~ 4 the power prefactor bends the fit out of the band
        out = tmp_path / "rep.json"
        assert run(["verify-thm1", "--k", "2", "--grid", "0.841:1.414:15", "--out", out]) == 1
        doc = json.loads(out.read_text())
        assert doc["verdict"] == "out of band" and doc["exit_status"] == 1

    def test_degenerate_fit(self, tmp_path, capsys):
        # all grid points sit below the rounding floor except too few
        assert run(["verify-thm1", "--k", "1", "--c", "1", "--grid", "5.385:6.083:5"]) == 4
        assert "fit failure" in capsys.readouterr().err

    def test_bad_grid(self):
        assert run(["verify-thm1", "--grid", "nope"]) == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["verify-thm1", "--bogus"])
        assert exc.value.code == 2


class TestRescale:
    def test_homogeneous_identity(self, tmp_path):
        prefix = tmp_path / "resc"
        assert run(["rescale", "--n-list", "4,8", "--grid", "0.1:1.5:8", "--out", prefix]) == 0
        doc = json.loads((prefix.parent / "resc.json").read_text())
        assert doc["series_identity"] == {"4": True, "8": True}
        assert doc["sup_err"]["8"] < doc["sup_err"]["4"]
        assert doc["rejected_points"] == []
        header, rows = read_table(f"{prefix}.csv")
        assert header == ["z", "R0", "Rn_4", "Rn_8"]
        assert len(rows) == 8

    def test_origin_rejected_for_negative_charge(self, tmp_path, capsys):
        prefix = tmp_path / "resc"
        code = run(["rescale", "--c", "-0.5", "--n-list", "4",
                    "--grid", "0:1:5", "--out", prefix])
        assert code == 0
        assert "rejected" in capsys.readouterr().err
        doc = json.loads(f"{prefix}.json" and (prefix.parent / "resc.json").read_text())
        assert doc["rejected_points"] == [0.0]
        _, rows = read_table(f"{prefix}.csv")
        assert len(rows) == 4


class TestEquilibrium:
    def test_stdout_report(self, capsys):
        assert run(["equilibrium", "--n-list", "100"]) == 0
        out = capsys.readouterr().out
        assert "R_Q = 1" in out and "tau0 = 1" in out
        assert "rn = 0.1" in out

    def test_default_n_list(self, capsys):
        assert run(["equilibrium", "--k", "1"]) == 0
        (line,) = [line for line in capsys.readouterr().out.splitlines() if line.startswith("n = ")]
        assert line.startswith("n = 100: rn = 0.1")

    @pytest.mark.parametrize("cmd", ["rescale", "equilibrium"])
    @pytest.mark.parametrize("n_list", ["4,x", "0"])
    def test_bad_n_list_refused(self, cmd, n_list, capsys):
        assert run([cmd, "--n-list", n_list]) == 2
        assert capsys.readouterr().err.startswith("focklab: config error: ")

    def test_artifacts(self, tmp_path):
        prefix = tmp_path / "eq"
        assert run(["equilibrium", "--c", "1", "--n-list", "100,400", "--out", prefix]) == 0
        doc = json.loads((prefix.parent / "eq.json").read_text())
        assert doc["droplet_radius"] == pytest.approx(1.0, rel=1e-12)
        assert doc["bound_ok"] is True
        _, rows = read_table(f"{prefix}.csv")
        assert rows[0][1] == pytest.approx(math.sqrt(2.0 / 100.0), rel=1e-10)

    def test_refuses_spectators(self, tmp_path, capsys):
        # the package has no spectator charges: a config with a charge 2 at 0.5 would otherwise be read
        # without it and print the report of the Ginibre weight (R_Q = 1, tau0 = 1)
        config = tmp_path / "q.json"
        config.write_text(json.dumps({"kind": "radial", "c": 0.0, "radial_coeffs": [[1, 1.0]],
                                      "spectators": [[0.5, 0.0, 2.0]]}))
        assert run(["equilibrium", "--coeffs-file", config, "--out", tmp_path / "eq"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "unknown potential config keys ['spectators']" in err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["q.json"]


@pytest.mark.filterwarnings("ignore:acceptance rate:RuntimeWarning")
class TestSample:
    def test_artifacts_and_determinism(self, tmp_path):
        args = ["sample", "--n", "2", "--sweeps", "40", "--burn-in", "10",
                "--seed", "9", "--bins", "8"]
        p1, p2 = tmp_path / "a", tmp_path / "b"
        assert run(args + ["--out", p1]) == 0
        assert run(args + ["--out", p2]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        header, rows = read_table(tmp_path / "a.csv")
        assert header == ["bin_lo", "bin_hi", "count", "intensity", "stderr"]
        assert len(rows) == 8
        doc = json.loads((tmp_path / "a.json").read_text())
        assert doc["recorded"] == 40
        assert doc["config"]["seed"] == 9
        assert 0.0 < doc["mass_in_range"] <= 2.0

    def test_requires_n(self):
        assert run(["sample", "--sweeps", "10"]) == 2

    def test_single_recorded_sweep_refused(self, capsys):
        assert run(["sample", "--n", "4", "--sweeps", "1", "--burn-in", "50", "--seed", "1"]) == 2
        assert capsys.readouterr().err == "focklab: config error: --sweeps must be an integer >= 2, got 1\n"

    @pytest.mark.parametrize("rmax", ["inf", "nan"])
    def test_non_finite_rmax_refused(self, rmax, tmp_path, capsys):
        args = ["sample", "--n", "4", "--rmax", rmax, "--sweeps", "2", "--burn-in", "0", "--out", tmp_path / "s"]
        assert run(args) == 2
        assert "finite" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("rmax", ["0", "-1"])
    def test_rmax_not_above_0_refused(self, rmax, tmp_path, capsys):
        args = ["sample", "--n", "4", "--rmax", rmax, "--sweeps", "2", "--burn-in", "0", "--out", tmp_path / "s"]
        assert run(args) == 2
        assert capsys.readouterr().err == f"focklab: config error: --rmax must be finite and > 0, got {float(rmax)}\n"
        assert not list(tmp_path.iterdir())

    def test_negative_seed_refused(self, tmp_path, capsys):
        # numpy's generator would end in a traceback; the configuration refuses it first
        args = ["sample", "--n", "4", "--c", "1", "--sweeps", "4", "--burn-in", "0", "--seed", "-1",
                "--out", tmp_path / "s"]
        assert run(args) == 2
        assert capsys.readouterr().err == "focklab: config error: --seed must be an integer >= 0, got -1\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("bins", ["-3", "0"])
    def test_no_bins_refused(self, bins, tmp_path, capsys):
        args = ["sample", "--n", "4", "--bins", bins, "--sweeps", "2", "--burn-in", "0", "--out", tmp_path / "s"]
        assert run(args) == 2
        assert capsys.readouterr().err.startswith("focklab: config error: ")
        assert not list(tmp_path.iterdir())


class TestFig1:
    def test_table_and_svg(self, tmp_path):
        prefix = tmp_path / "fig1"
        assert run(["fig1", "--out", prefix]) == 0
        header, rows = read_table(f"{prefix}.csv")
        assert header[0] == "r" and len(header) == 4
        assert len(rows) == 241
        # the singular-at-0 curve is blanked below its minimum radius
        blanked = [row for row in rows if math.isnan(row[2])]
        assert len(blanked) == 4 and all(row[0] < 0.05 for row in blanked)
        assert not math.isnan(rows[0][1]) and not math.isnan(rows[0][3])
        svg = (tmp_path / "fig1.svg").read_text()
        assert svg.count("<polyline") == 3

    def test_curve_values_match_library(self, tmp_path):
        from focklab import bergman_function_r0

        prefix = tmp_path / "fig1"
        run(["fig1", "--out", prefix])
        _, rows = read_table(f"{prefix}.csv")
        row = rows[80]  # r = 1.0
        assert row[0] == pytest.approx(1.0)
        assert row[1] == pytest.approx(bergman_function_r0(1, 1.0, 2.0, 1.0), rel=1e-15)
        assert row[2] == pytest.approx(bergman_function_r0(1, -0.5, 0.5, 1.0), rel=1e-15)
        assert row[3] == pytest.approx(bergman_function_r0(2, 0.0, 0.5, 1.0), rel=1e-15)


class TestGram:
    def test_radial_flat(self, tmp_path):
        prefix = tmp_path / "g"
        assert run(["gram", "--n", "16", "--grid", "0:1.5:4", "--out", prefix]) == 0
        header, rows = read_table(f"{prefix}.csv")
        assert header == ["r", "theta", "x", "y", "R0N", "deltaQ0", "rel_err", "trunc_est"]
        assert len(rows) == 1 + 3 * 16
        for row in rows:
            assert row[4] == pytest.approx(1.0, abs=1e-6)
        doc = json.loads((prefix.parent / "g.json").read_text())
        assert doc["N"] == 16 and doc["kappa"] == [0.0, 0.0]

    def test_hermitian_path(self, tmp_path):
        cfgp = tmp_path / "q.json"
        cfgp.write_text(json.dumps(MIXED))
        tables = {}
        for n in (24, 48):
            prefix = tmp_path / f"g_{n}"
            assert run(["gram", "--coeffs-file", cfgp, "--n", n, "--grid", "0:1:3", "--out", prefix]) == 0
            header, rows = read_table(f"{prefix}.csv")
            assert header == ["r", "theta", "x", "y", "R0N", "deltaQ0", "rel_err", "trunc_est"]
            tables[n] = np.array(rows)
        r, th, _, _, val, dq, rel, _ = tables[24].T
        assert len(r) == 1 + 2 * 16  # one row at r = 0, 16 angles elsewhere
        np.testing.assert_allclose(dq, r**2 * (4.0 + 1.8 * np.cos(2 * th)), rtol=1e-14)
        np.testing.assert_allclose(rel[1:], val[1:] / dq[1:] - 1.0, rtol=1e-15)
        assert val[0] == 0.0  # |z|^{2c} vanishes at 0 for c > 0
        # Q0 is even and has real coefficients: the density is the same at z, -z and conj(z)
        rings = val[1:].reshape(2, 16)
        np.testing.assert_allclose(rings, np.roll(rings, 8, axis=1), rtol=1e-10)
        np.testing.assert_allclose(rings[:, 1:], rings[:, :0:-1], rtol=1e-10)
        # the truncated density grows with N; on |z| = 1 by 8e-9 and more from N = 24 to 48
        assert np.all(rings[1] > 0) and np.all(rings[1] < tables[48][17:, 4])

    def test_truncation_estimate_bounds_the_next_orders(self, tmp_path):
        # the mixed weight on the default grid 0:2:21: trunc_est, the share (R^N - R^{N-8}) / R^N of the
        # last 8 orthonormal rows, bounds the relative change from N to N + 6 wherever it exceeds rounding
        cfgp = tmp_path / "q.json"
        cfgp.write_text(json.dumps(MIXED))
        tables, docs = {}, {}
        for n in (24, 30, 36, 42, 48, 54):
            prefix = tmp_path / f"g_{n}"
            assert run(["gram", "--coeffs-file", cfgp, "--n", n, "--out", prefix]) == 0
            tables[n] = np.array(read_table(f"{prefix}.csv")[1])
            docs[n] = json.loads((tmp_path / f"g_{n}.json").read_text())
        for n in (24, 36, 48):
            est, low, high = tables[n][:, 7], tables[n][:, 4], tables[n + 6][:, 4]
            change = np.divide(np.abs(high - low), high, out=np.zeros_like(high), where=high > 0.0)
            seen = change > 1e-14
            assert np.count_nonzero(seen) > 100
            assert np.all(est[seen] >= change[seen])
            assert est[0] == 0.0  # z = 0 with c > 0: every order vanishes there
            assert docs[n]["trunc_est_max"] == est.max()
            assert docs[n]["trunc_est_above_1e-6"] == np.count_nonzero(est > 1e-6)
        assert docs[48]["trunc_est_max"] > 0.5  # |z| = 2 is far outside what N = 48 resolves

    def test_truncation_estimate_edges(self, tmp_path):
        cfgp = tmp_path / "q.json"
        cfgp.write_text(json.dumps(MIXED))
        # e^{-|z|^4} underflows at |z| = 20 and 40, so R^N is 0 there and nothing of it is trusted
        assert run(["gram", "--coeffs-file", cfgp, "--n", "24", "--grid", "0:40:3", "--out", tmp_path / "far"]) == 0
        r, val, est = np.array(read_table(tmp_path / "far.csv")[1])[:, [0, 4, 7]].T
        assert np.all(val == 0.0) and est[0] == 0.0 and np.all(est[r > 0] == 1.0)
        # at N <= 8 the last 8 rows are all of them
        assert run(["gram", "--coeffs-file", cfgp, "--n", "8", "--grid", "0.5:1:2", "--out", tmp_path / "low"]) == 0
        np.testing.assert_array_equal(np.array(read_table(tmp_path / "low.csv")[1])[:, 7], 1.0)

    def test_twisted_too_large_order_fails_numerically(self, tmp_path, capsys):
        # the scaled condition is 6.4e11 at N = 54, 1.9e12 at N = 56 and 1.6e13 at N = 60
        cfgp = tmp_path / "q.json"
        cfgp.write_text(json.dumps(MIXED))
        assert run(["gram", "--coeffs-file", cfgp, "--n", "60"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_order_past_the_float_range_fails_numerically(self, tmp_path, capsys):
        # the twist's Q0 is |z|^2, whose moments j! pass the largest double at j = 171
        cfgp = tmp_path / "twist.json"
        cfgp.write_text(json.dumps(TWIST))
        out = tmp_path / "out"
        out.mkdir()
        assert run(["gram", "--coeffs-file", cfgp, "--n", "200", "--grid", "0:1:3", "--out", out / "g"]) == 3
        assert "overflow double precision at N=200" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_delta_q0_past_the_largest_double_refused(self, tmp_path, capsys):
        # Delta Q0 = 4|z|^2 + 1.8 Re z^2 is +inf at z = 1e200 i, where the density is 0; refused under its own name
        cfgp = tmp_path / "q.json"
        cfgp.write_text(json.dumps(MIXED))
        out = tmp_path / "out"
        out.mkdir()
        assert run(["gram", "--coeffs-file", cfgp, "--grid", "0:1e200:3", "--out", out / "g"]) == 3
        assert "deltaQ0 passes the largest double" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("cmd", ["r0", "gram"])
    def test_negative_radius_refused(self, cmd, tmp_path, capsys):
        cfgp = tmp_path / "q.json"
        cfgp.write_text(json.dumps(
            {"kind": "hermitian", "c": 0.0, "hermitian_coeffs": [[1, 1, 1.0, 0.0], [2, 0, 0.3, 0.0], [0, 2, 0.3, 0.0]]}
        ))
        out = tmp_path / "out"
        out.mkdir()
        assert run([cmd, "--coeffs-file", cfgp, "--grid=-1:1:3", "--out", out / "t"]) == 2
        assert "grid must be one axis of at least 2 finite radii >= 0" in capsys.readouterr().err
        assert not list(out.iterdir())

    @pytest.mark.parametrize("cmd", ["r0", "rescale", "gram"])
    def test_origin_dropped_with_one_note(self, cmd, tmp_path, capsys):
        # every grid command drops r = 0 at c < 0 with the same note, and keeps the other points
        cfgp = tmp_path / "q.json"
        radial = {"kind": "radial", "radial_coeffs": [[1, 1.0]]}
        cfgp.write_text(json.dumps({**(MIXED if cmd == "gram" else radial), "c": -0.5}))
        argv = [cmd, "--coeffs-file", cfgp, "--grid", "0:1:3", "--out", tmp_path / "t"]
        assert run(argv + (["--n-list", "4"] if cmd == "rescale" else [])) == 0
        err = capsys.readouterr().err
        assert err.count("note:") == 1
        assert "note: grid point r=0 rejected: density diverges at z = 0 for c < 0\n" in err
        _, rows = read_table(tmp_path / ("t" if cmd == "r0" else "t.csv"))
        kept = {"r0": [0.0, 0.5, 1.0], "rescale": [0.5, 1.0], "gram": [0.5] * 16 + [1.0] * 16}  # r0 keeps a blank row
        assert [row[0] for row in rows] == kept[cmd]

    def test_missing_config(self, tmp_path):
        assert run(["gram", "--coeffs-file", tmp_path / "absent.json"]) == 2

    def test_inhomogeneous_config_rejected(self, tmp_path):
        cfgp = tmp_path / "q.json"
        cfgp.write_text(json.dumps({"kind": "radial", "radial_coeffs": [[1, 1.0], [2, 1.0]]}))
        assert run(["gram", "--coeffs-file", cfgp]) == 2


class TestMain:
    @pytest.mark.parametrize("argv", [["r0", "--n", "24"], ["sample", "--n", "4", "--thin", "2"],
                                      ["sample", "--n", "4", "--delta0", "0.5"]], ids=lambda argv: argv[-2])
    def test_removed_flag_exits_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [["r0", "--grid", "0:1:3", "--out", "absent/r0.csv"],
                                      ["fig1", "--out", "absent/fig1"],
                                      ["sample", "--n", "4", "--sweeps", "2", "--burn-in", "0", "--out", "absent/s"]],
                             ids=lambda argv: argv[0])
    def test_unwritable_out_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("focklab: file error: ") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_out_naming_a_directory_exits_2(self, tmp_path, capsys):
        # the folder is writable, so the write itself fails
        taken = tmp_path / "taken"
        taken.mkdir()
        assert run(["r0", "--grid", "0:1:3", "--out", taken]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("focklab: file error: ") and err.count("\n") == 1
        assert not list(taken.iterdir())

    def test_unwritable_out_refused_before_the_run(self, tmp_path, monkeypatch, capsys):
        def never(cfg):
            raise AssertionError("run_mcmc called")

        monkeypatch.setattr("focklab.coulomb_mc.run_mcmc", never)
        monkeypatch.chdir(tmp_path)
        assert run(["sample", "--n", "16", "--c", "1", "--out", "absent/s"]) == 2
        assert capsys.readouterr().err.startswith("focklab: file error: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, written", [
        (["r0", "--out", "q.json"], "q.json"),
        (["rescale", "--n-list", "4", "--out", "q"], "q.json"),
        (["sample", "--n", "4", "--sweeps", "2", "--burn-in", "0", "--out", "q"], "q.json"),
        (["sample", "--n", "4", "--sweeps", "2", "--burn-in", "0"], "mc_run.json"),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
    def test_out_that_is_the_coeffs_file_refused(self, argv, written, tmp_path, monkeypatch, capsys):
        # the config is named by its absolute path, the output by a relative one
        monkeypatch.chdir(tmp_path)
        config = tmp_path / written
        config.write_text('{"kind": "radial", "c": 1.0, "radial_coeffs": [[1, 1.0]]}')
        assert run(argv + ["--coeffs-file", config]) == 2
        assert capsys.readouterr() == ("", f"focklab: file error: cannot write {written!r}: it is the --coeffs-file\n")
        assert [f.name for f in tmp_path.iterdir()] == [written]
        assert json.loads(config.read_text())["radial_coeffs"] == [[1, 1.0]]


class TestWeightReader:
    """Every command reads its weight one way: a config file and the inline flags it spells give the same run."""

    QUARTIC = {"kind": "radial", "c": 0.5, "radial_coeffs": [[2, 1.3]]}
    INLINE = ["--k", "2", "--c", "0.5", "--amplitude", "1.3"]
    COMMANDS = {
        "r0": ["r0", "--grid", "0:2:5", "--out", "out.csv"],
        "verify-thm1": ["verify-thm1", "--out", "rep.json"],
        "rescale": ["rescale", "--n-list", "4,8", "--grid", "0:1.5:8", "--out", "out"],
        "equilibrium": ["equilibrium", "--n-list", "100,1000", "--out", "out"],
        "sample": ["sample", "--n", "4", "--sweeps", "40", "--burn-in", "10", "--seed", "3", "--bins", "8",
                   "--out", "out"],
        "gram": ["gram", "--n", "12", "--grid", "0:1:3", "--out", "out"],
    }

    @staticmethod
    def _run(argv, cwd, monkeypatch, capsys):
        """Exit code, stdout, stderr, warnings and the files written, of one in-process run in cwd."""
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        out, err = capsys.readouterr()
        files = {f.name: f.read_bytes() for f in sorted(cwd.iterdir())}
        return code, out, err, [str(w.message) for w in caught], files

    @pytest.mark.parametrize("cmd", list(COMMANDS))
    def test_file_and_inline_flags_agree(self, cmd, tmp_path, monkeypatch, capsys):
        (tmp_path / "q.json").write_text(json.dumps(self.QUARTIC))
        argv = self.COMMANDS[cmd]
        config = ["--coeffs-file", str(tmp_path / "q.json")]
        from_file = self._run(argv + config, tmp_path / "file", monkeypatch, capsys)
        inline = self._run(argv + self.INLINE, tmp_path / "inline", monkeypatch, capsys)
        assert from_file == inline
        assert from_file[4], "the command wrote no file"
        if cmd == "verify-thm1":
            doc = json.loads(from_file[4]["rep.json"])
            assert (doc["k"], doc["c"], doc["amplitude"]) == (2, 0.5, 1.3)

    @pytest.mark.parametrize("k", ["0", "-1"])
    @pytest.mark.parametrize("cmd", list(COMMANDS))
    def test_k_below_1_refused_by_its_flag(self, cmd, k, tmp_path, monkeypatch, capsys):
        code, out, err, _, files = self._run(self.COMMANDS[cmd] + ["--k", k], tmp_path / "run", monkeypatch, capsys)
        assert (code, out, err, files) == (2, "", f"focklab: config error: --k must be an integer >= 1, got {k}\n", {})

    @pytest.mark.parametrize("cmd", list(COMMANDS))
    def test_c_refused_by_its_flag(self, cmd, tmp_path, monkeypatch, capsys):
        code, out, err, _, files = self._run(self.COMMANDS[cmd] + ["--c", "-1"], tmp_path / "run", monkeypatch, capsys)
        assert (code, out, err, files) == (2, "", "focklab: config error: --c must be finite and > -1, got -1.0\n", {})

    @pytest.mark.parametrize("amplitude", ["0", "-1", "inf", "nan"])
    @pytest.mark.parametrize("cmd", list(COMMANDS))
    def test_amplitude_refused_by_its_flag(self, cmd, amplitude, tmp_path, monkeypatch, capsys):
        argv = self.COMMANDS[cmd] + ["--amplitude", amplitude]
        code, out, err, _, files = self._run(argv, tmp_path / "run", monkeypatch, capsys)
        assert (code, out, err, files) == (
            2, "", f"focklab: config error: --amplitude must be finite and > 0, got {float(amplitude)}\n", {})

    @pytest.mark.parametrize("cmd, flag, value, least", [
        ("sample", "--n", "0", 1), ("sample", "--sweeps", "1", 2), ("sample", "--burn-in", "-1", 0),
        ("sample", "--seed", "-1", 0), ("gram", "--n", "0", 1), ("rescale", "--n-list", "4,0", 1),
        ("equilibrium", "--n-list", "0", 1),
    ])
    def test_integer_refused_by_its_flag(self, cmd, flag, value, least, tmp_path, monkeypatch, capsys):
        code, out, err, _, files = self._run(self.COMMANDS[cmd] + [flag, value], tmp_path / "run", monkeypatch, capsys)
        got = value.split(",")[-1]
        assert (code, out, err, files) == (2, "", f"focklab: config error: {flag} must be an integer >= {least}, "
                                                  f"got {got}\n", {})

    @pytest.mark.parametrize("cmd", ["equilibrium", "rescale", "sample"])
    def test_diagonal_hermitian_config_is_radial(self, cmd, tmp_path, monkeypatch, capsys):
        # rows a_ii |z|^{2i} alone spell a radial weight, which the radial commands take in either spelling
        spellings = {"radial": {"kind": "radial", "c": 1.0, "radial_coeffs": [[1, 1.0]]},
                     "hermitian": {"kind": "hermitian", "c": 1.0, "hermitian_coeffs": [[1, 1, 1.0, 0.0]]}}
        runs = []
        for name, doc in spellings.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            argv = self.COMMANDS[cmd] + ["--coeffs-file", str(tmp_path / f"{name}.json")]
            runs.append(self._run(argv, tmp_path / name, monkeypatch, capsys))
        assert runs[0][0] == 0 and runs[0][4]
        assert runs[1] == runs[0]

    def test_verify_thm1_refuses_a_twisted_weight(self, tmp_path, capsys):
        (config,) = _readme_blocks("json")
        (tmp_path / "mixed.json").write_text(config)
        assert run(["verify-thm1", "--coeffs-file", tmp_path / "mixed.json"]) == 2
        assert "requires a radial weight" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["rescale", "equilibrium", "sample"])
    def test_radial_commands_refuse_a_twisted_weight(self, cmd, tmp_path, monkeypatch, capsys):
        (config,) = _readme_blocks("json")
        (tmp_path / "mixed.json").write_text(config)
        monkeypatch.chdir(tmp_path)
        assert run(self.COMMANDS[cmd] + ["--coeffs-file", "mixed.json"]) == 2
        assert capsys.readouterr().err == "focklab: config error: this subcommand requires a radial potential\n"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["mixed.json"]

    @pytest.mark.parametrize("change", [
        {"c": "x"}, {"c": None}, {"radial_coeffs": [[1.5, 1.0]]}, {"radial_coeffs": [["a", 1.0]]},
        {"radial_coeffs": 5}, {"k": "two"}, {"spectators": [["a", 0, 0.5]]}, {"radial_coef": [[2, 1.0]]},
        {"kind": "hermitian", "hermitian_coeffs": [[1, 1, "x", 0.0]]},
    ], ids=repr)
    def test_malformed_config_is_a_config_error(self, change, tmp_path, capsys):
        doc = {"kind": "radial", "radial_coeffs": [[1, 1.0]], **change}
        if doc["kind"] == "hermitian":
            del doc["radial_coeffs"]
        (tmp_path / "q.json").write_text(json.dumps(doc))
        assert run(["equilibrium", "--coeffs-file", tmp_path / "q.json"]) == 2
        assert capsys.readouterr().err.startswith("focklab: config error: ")

    @pytest.mark.parametrize("doc", [
        {"kind": "radial", "radial_coeffs": [[1, 1.0]], "hermitian_coeffs": [[2, 0, 5.0, 0.0]]},
        {"kind": "hermitian", "hermitian_coeffs": [[1, 1, 1.0, 0.0]], "radial_coeffs": [[2, 1.0]]},
    ], ids=lambda doc: doc["kind"])
    def test_other_spelling_is_a_config_error(self, doc, tmp_path, capsys):
        (tmp_path / "q.json").write_text(json.dumps(doc))
        assert run(["equilibrium", "--coeffs-file", tmp_path / "q.json"]) == 2
        assert capsys.readouterr().err.startswith(f"focklab: config error: a {doc['kind']} config ")

    @pytest.mark.parametrize("argv", [["r0", "--c", "inf"], ["sample", "--n", "4", "--c", "inf"],
                                      ["gram", "--coeffs-file", "nan.json"]], ids=lambda argv: argv[0])
    def test_non_finite_numbers_are_refused(self, argv, tmp_path, monkeypatch, capsys):
        # abs(NaN) > 0 is False, so an unchecked NaN term would drop out and leave the |z|^4 weight
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nan.json").write_text('{"kind": "radial", "radial_coeffs": [[1, NaN], [2, 1]]}')
        assert run(argv + ["--out", "out"]) == 2
        assert re.search("must be finite|is not a finite number", capsys.readouterr().err)
        assert sorted(f.name for f in tmp_path.iterdir()) == ["nan.json"]


class TestCanonicalSplit:
    """The commands take Q0 of the split Q = Q0 + Re H: f -> f e^{h/2} maps A^2(e^{-Q0}) isometrically
    onto A^2(e^{-Q0 - Re h}), so the harmonic Re H leaves R0 unchanged."""

    def test_twist_is_the_ginibre_density(self, tmp_path, capsys):
        cfgp = tmp_path / "twist.json"
        cfgp.write_text(json.dumps(TWIST))
        assert run(["r0", "--coeffs-file", cfgp, "--out", tmp_path / "r0.csv"]) == 0
        header, rows = read_table(tmp_path / "r0.csv")
        assert header == ["r", "R0", "deltaQ0", "rel_err"] and len(rows) == 241
        np.testing.assert_allclose(np.array(rows)[:, 1], 1.0, rtol=1e-15)
        assert run(["gram", "--coeffs-file", cfgp, "--out", tmp_path / "g"]) == 0
        _, rows = read_table(tmp_path / "g.csv")
        np.testing.assert_allclose(np.array(rows)[:, 4], 1.0, rtol=1e-12)
        doc = json.loads((tmp_path / "g.json").read_text())
        assert doc["N"] == 48 and doc["k"] == 1 and doc["kappa"] == [0.3, 0.0]
        assert run(["verify-thm1", "--coeffs-file", cfgp, "--out", tmp_path / "rep.json"]) == 0
        assert json.loads((tmp_path / "rep.json").read_text())["verdict"] == "identically zero error"
        assert capsys.readouterr().err == ""

    def test_harmonic_term_leaves_r0_unchanged(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "q.json").write_text(json.dumps(
            {"kind": "hermitian", "c": 0.0, "hermitian_coeffs": [[2, 2, 1.0, 0.0], [2, 0, 0.4, 0.0]]}))
        argv = ["r0", "--grid", "0:3:31", "--out", "out.csv"]
        run_in = TestWeightReader._run
        from_file = run_in(argv + ["--coeffs-file", str(tmp_path / "q.json")], tmp_path / "file", monkeypatch, capsys)
        assert from_file == run_in(argv + ["--k", "2"], tmp_path / "inline", monkeypatch, capsys)

    @pytest.mark.parametrize("cmd", ["r0", "gram", "verify-thm1"])
    def test_nonzero_q1_refused(self, cmd, tmp_path, capsys):
        # Q = |z|^2 + |z|^4: k = 1, and |z|^4 is a Q1 term that the microscopic model does not see
        cfgp = tmp_path / "q.json"
        cfgp.write_text(json.dumps({"kind": "hermitian", "hermitian_coeffs": [[1, 1, 1.0, 0.0], [2, 2, 1.0, 0.0]]}))
        assert run([cmd, "--coeffs-file", cfgp, "--out", tmp_path / "out"]) == 2
        assert "must be Q0 + Re H" in capsys.readouterr().err
        assert sorted(f.name for f in tmp_path.iterdir()) == ["q.json"]


README = Path(__file__).parents[1] / "README.md"


def _readme_blocks(lang):
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(encoding="utf-8"), flags=re.S)


class TestReadmeExamples:
    """Every `focklab ...` line of the README runs with the CLI defaults and writes what --out names."""

    LINES = [line.split() for block in _readme_blocks("sh") for line in block.splitlines()
             if line.startswith("focklab ")]

    def test_every_subcommand_has_an_example(self):
        assert sorted(line[1] for line in self.LINES) == [
            "equilibrium", "fig1", "gram", "r0", "rescale", "sample", "verify-thm1"]

    @pytest.mark.parametrize("line", LINES, ids=lambda line: line[1])
    def test_command_line(self, line, tmp_path, monkeypatch, capsys):
        (config,) = _readme_blocks("json")
        (tmp_path / "mixed.json").write_text(config, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(line[1:]) == 0, capsys.readouterr().err
        if "--out" in line:
            out = Path(line[line.index("--out") + 1])
            assert out.is_file() if out.suffix else Path(f"{out}.csv").is_file()


def _child_stdout(code, cwd=None):
    """Stdout of a fresh interpreter running code against the same focklab as this process."""
    # the child imports the same focklab as this process, whether installed or on a pytest pythonpath
    src = str(Path(focklab.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          env=env, cwd=cwd).stdout


class TestImport:
    def test_import_leaves_scipy_submodules_unloaded(self):
        code = "import sys, focklab; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        assert _child_stdout(code).strip() == "[]"

    def test_no_command_or_r0_call_imports_scipy(self, tmp_path):
        # numpy is the only runtime dependency: in a child whose import system refuses scipy, every
        # README command line and every radial R0 entry point still runs
        (config,) = _readme_blocks("json")
        (tmp_path / "mixed.json").write_text(config, encoding="utf-8")
        code = (
            "import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(f'focklab imported {name}')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "import numpy as np\n"
            "from focklab import bergman_function_r0, decay_report, disk_mass, moments, truncated_series_r0\n"
            "from focklab.cli import main\n"
            f"for line in {[line[1:] for line in TestReadmeExamples.LINES]!r}:\n"
            "    assert main(line) == 0, line\n"
            "bergman_function_r0(2, 0.5, 1.3, 0.7)\n"
            "bergman_function_r0(3, -0.5, 1.0, np.linspace(0.05, 5.0, 50))\n"
            "disk_mass(2, 0.5, 1.0, 1.2)\n"
            "moments(2, 0.5, 1.0, 8)\n"
            "decay_report(1, 0.5, 1.0, np.linspace(2.0, 4.0, 25))\n"
            "truncated_series_r0(2, 0.5, 0.75, 16, np.linspace(0.1, 2.0, 20))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert _child_stdout(code, cwd=tmp_path).splitlines()[-1] == "[]"

    # the layers each README command loads besides focklab.cli, focklab.errors and focklab.potentials
    LAYERS = {
        "r0": ["radial_bergman"],
        "verify-thm1": ["radial_bergman"],
        "rescale": ["equilibrium", "finite_kernel", "radial_bergman"],
        "equilibrium": ["equilibrium"],
        "sample": ["coulomb_mc", "equilibrium"],
        "fig1": ["radial_bergman", "svgplot"],
        "gram": ["general_bergman"],
    }

    def test_import_loads_the_base_layer_and_names_load_on_first_use(self):
        code = (
            "import sys, focklab\n"
            "print(sorted(m for m in sys.modules if m.startswith('focklab.')))\n"
            "for name in set(focklab.__all__) - {'__version__'}:\n"
            "    obj = getattr(focklab, name)\n"
            "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
            "    assert obj.__module__.startswith('focklab.'), name\n"
            "star = {}\n"
            "exec('from focklab import *', star)\n"
            "assert all(star[name] is getattr(focklab, name) for name in focklab.__all__)\n"
            "assert set(focklab.__all__) <= set(dir(focklab))\n"
            "# 1e200 is a double, but its square is not: the far path runs with no entry\n"
            "assert focklab.MacroscopicPotential('radial', radial_coeffs={1: 1.0}).q_of_r([1e100]) == 1e200\n"
            "print('dataclasses' in sys.modules, 'decimal' in sys.modules)  # after every lazy module loaded\n"
            "try:\n"
            "    focklab.nonexistent\n"
            "except AttributeError as exc:\n"
            "    print(exc)\n"
        )
        assert _child_stdout(code).splitlines() == ["['focklab.errors', 'focklab.potentials']", "False False",
                                                    "module 'focklab' has no attribute 'nonexistent'"]

    def test_each_lazy_module_exports_the_names_the_lazy_map_gives_it(self):
        # a name in a layer's __all__ that the map misses is no attribute of focklab
        for module in set(focklab._LAZY.values()):
            names = {name for name, home in focklab._LAZY.items() if home == module}
            assert set(import_module(f"focklab.{module}").__all__) == names, module

    @pytest.mark.parametrize("line", TestReadmeExamples.LINES, ids=lambda line: line[1])
    def test_each_command_loads_only_its_layers(self, line, tmp_path):
        (config,) = _readme_blocks("json")
        (tmp_path / "mixed.json").write_text(config, encoding="utf-8")
        code = (
            "import sys\n"
            "from focklab.cli import main\n"
            f"assert main({line[1:]!r}) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith('focklab.')))\n"
            "print('dataclasses' in sys.modules, 'decimal' in sys.modules)\n"
        )
        loaded = ["cli", "errors", "potentials", *self.LAYERS[line[1]]]
        assert _child_stdout(code, cwd=tmp_path).splitlines()[-2:] == [
            str(sorted(f"focklab.{m}" for m in loaded)), "False False"]
