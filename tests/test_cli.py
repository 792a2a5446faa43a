"""Tests for the command line interface and the geometry file format."""

import json
from importlib import resources

import numpy as np
import pytest
from numpy.testing import assert_allclose

from c2patch import assembly, cli
from c2patch.fields import FieldError, parse_expression, resolve_field
from c2patch.builtin import reference_fitted_geometry
from c2patch.bspline import make_knot_vector, uniform_inner_knots
from c2patch.geometry import (GeometryError, Patch, TwoPatchGeometry,
                              geometry_from_dict, geometry_to_dict,
                              load_geometry, refine_geometry,
                              represent_geometry, save_geometry)
from tests.conftest import count_eval_basis, load_asset, scaled


def run_cli(*argv):
    return cli.main(list(argv))


def blind_interface_gap(geo):
    """``geo`` refined to k = 31, where the trace space has 99 functions,
    with the interface row of patch R moved by 1e-3 diameters along a
    trace spline that vanishes at 64 equispaced points."""
    fine = refine_geometry(geo, make_knot_vector(5, 2, 31,
                                                 uniform_inner_knots(31)))
    B = fine.space.basis_matrix(np.linspace(0.0, 1.0, 64))[0]
    bump = np.linalg.svd(B)[2][-1]
    cp = fine.patch_R.control_points.copy()
    cp[0, :, 0] += 1e-3 * fine.diameter * bump / np.abs(bump).max()
    return TwoPatchGeometry(fine.patch_L, Patch(fine.space, cp))


class TestGeometryFormat:
    def test_patches_on_different_knots_rejected(self, fitted_a):
        # equal dimensions, different spaces: inner knot 0.5 for L, 0.3 for R
        L, R = (refine_geometry(fitted_a[0], make_knot_vector(5, 2, 1, (t,)))
                for t in (0.5, 0.3))
        assert L.space.dim == R.space.dim
        with pytest.raises(GeometryError, match="one spline space"):
            TwoPatchGeometry(L.patch_L, R.patch_R)

    def test_interface_gap_between_samples_rejected(self, fitted_a):
        geo = blind_interface_gap(fitted_a[0])
        vs = np.linspace(0.0, 1.0, 64)
        d = geo.patch_L.eval(0.0, vs) - geo.patch_R.eval(0.0, vs)
        assert np.abs(d).max() < 1e-12 * geo.diameter
        vs = np.linspace(0.0, 1.0, 1001)
        d = geo.patch_L.eval(0.0, vs) - geo.patch_R.eval(0.0, vs)
        assert np.abs(d).max() > 1e-4 * geo.diameter
        with pytest.raises(GeometryError, match="interfaces disagree"):
            geo.validate()

    def test_validate_rejects_non_finite_in_memory(self):
        # a NaN on the interface row must not slip through the sampled
        # interface and Jacobian checks
        geo, _ = load_asset("bilinear_a")
        cp = geo.patch_L.control_points.copy()
        cp[0, 0, 0] = np.nan
        bad = TwoPatchGeometry(Patch(geo.patch_L.space, cp), geo.patch_R)
        with pytest.raises(GeometryError, match="non-finite"):
            bad.validate()

    def test_round_trip_bit_for_bit(self, tmp_path, fitted_a):
        geo, gluing = fitted_a
        path = tmp_path / "geo.json"
        save_geometry(path, geo, gluing=gluing, regularity=2)
        geo2, gluing_raw = load_geometry(path)
        for side in "LR":
            a = geo.patch(side).control_points
            b = geo2.patch(side).control_points
            assert (a == b).all()          # exact, not approximate
        path2 = tmp_path / "geo2.json"
        save_geometry(path2, geo2, gluing=gluing, regularity=2)
        assert path.read_text() == path2.read_text()

    def test_schema_fields(self, fitted_b):
        geo, gluing = fitted_b
        record = geometry_to_dict(geo, gluing, regularity=2)
        assert record["degree"] == 5
        assert record["regularity"] == 2
        assert record["knots_interior"] == []
        assert set(record["patches"]) == {"L", "R"}
        assert len(record["patches"]["L"]["control_points"]) == 36
        assert set(record["gluing"]) == {"alpha_L", "alpha_R",
                                         "beta_L", "beta_R"}

    def test_malformed_record_rejected(self):
        from c2patch.geometry import GeometryError
        with pytest.raises(GeometryError):
            geometry_from_dict({"degree": 5})
        with pytest.raises(GeometryError):
            geometry_from_dict({"degree": 5, "regularity": 2,
                                "knots_interior": [],
                                "patches": {"L": {"control_points": [[0, 0]]}}})

    def test_represent_rejects_a_small_unrepresentable_patch(self, fitted_a):
        # a patch outside the k = 0 space stays outside it when shrunk
        fine = refine_geometry(fitted_a[0], make_knot_vector(5, 2, 1, (0.5,)))
        cp = fine.patch_R.control_points.copy()
        cp[4, 4] += 0.3
        moved = TwoPatchGeometry(fine.patch_L, Patch(fine.patch_R.space, cp))
        for s in (1.0, 1e-6, 1e-9):
            with pytest.raises(GeometryError, match="not representable"):
                represent_geometry(scaled(moved, s), make_knot_vector(5, 2, 0))

    def test_represent_rejects_a_piecewise_bilinear_patch(self):
        # degree 1 with an interior knot: one bilinear map until a control
        # point leaves the bilinear interpolant of the corners
        geo, _ = load_asset("bilinear_a")
        fine = refine_geometry(geo, make_knot_vector(1, 0, 1, (0.5,)))
        kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        want = represent_geometry(geo, kv)
        got = represent_geometry(fine, kv)
        for side in geo.sides:
            assert_allclose(got.patch(side).control_points,
                            want.patch(side).control_points,
                            rtol=0, atol=1e-14 * geo.diameter)
        cp = fine.patch_R.control_points.copy()
        cp[1, 1] += 1e-6 * fine.diameter
        moved = TwoPatchGeometry(fine.patch_L, Patch(fine.space, cp))
        with pytest.raises(GeometryError, match="not representable"):
            represent_geometry(moved, kv)

    def test_represent_evaluates_the_basis_once(self, monkeypatch):
        calls = count_eval_basis(monkeypatch)
        geo, _ = load_asset("bilinear_b")
        for k in (0, 31):
            calls.clear()
            represent_geometry(geo, make_knot_vector(5, 2, k,
                                                     uniform_inner_knots(k)))
            assert len(calls) <= 1

    def test_represent_is_exact_at_high_degree(self):
        # the coefficients of a bilinear map are its Greville values; an
        # interpolation at p = 20 and 30 was off by 1e-2 and 1e7 diameters
        geo, _ = load_asset("bilinear_a")
        us = np.linspace(0.0, 1.0, 9)
        for p in (20, 30, 40):
            F = represent_geometry(geo, make_knot_vector(p, 2, 3,
                                                         uniform_inner_knots(3)))
            for side in geo.sides:
                d = F.patch(side).eval(us, us) - geo.patch(side).eval(us, us)
                assert np.abs(d).max() < 1e-13 * geo.diameter

    @pytest.mark.parametrize("s", [1e-8, 1e-4, 1.0, 1e4, 1e8])
    def test_represent_bilinear_at_any_scale(self, s):
        kv = make_knot_vector(5, 2, 3, uniform_inner_knots(3))
        for name in ("bilinear_a", "bilinear_b"):
            represent_geometry(scaled(load_asset(name)[0], s), kv)


class TestExpressions:
    def test_registry_default(self):
        f = resolve_field("cos2sin2")
        assert f(0.3, 0.4) == pytest.approx(2 * np.cos(0.6) * np.sin(0.8))

    def test_expression(self):
        f = resolve_field("2*cos(2*x1)*sin(2*x2)")
        assert f(0.3, 0.4) == pytest.approx(2 * np.cos(0.6) * np.sin(0.8))
        g = resolve_field("x1 + x2/2 - exp(-x1)")
        assert g(1.0, 2.0) == pytest.approx(1 + 1 - np.exp(-1))
        h = resolve_field("pow(x1, 2)")
        assert h(3.0, 0.0) == pytest.approx(9.0)

    def test_rejects_bad_expressions(self):
        for expr in ("__import__('os')", "x3 + 1", "open('x')", "x1 @ x2"):
            with pytest.raises(FieldError):
                parse_expression(expr)


class TestCommands:
    def test_dim_fitted_a(self, capsys):
        assert run_cli("dim", "--geometry", "builtin:fitted_a") == 0
        out = capsys.readouterr().out
        assert "dim_V1 = 36" in out
        assert "dim_V2 = 15" in out
        assert "dim_W2 = 15" in out

    def test_dim_with_k_override(self, capsys):
        assert run_cli("dim", "--geometry", "builtin:fitted_b", "--k", "1") == 0
        out = capsys.readouterr().out
        assert "dim_V2 = 25" in out

    def test_gluing_report(self, capsys):
        assert run_cli("gluing", "--geometry", "builtin:bilinear_b") == 0
        out = capsys.readouterr().out
        assert "sign condition: OK" in out

    def test_verify_with_oracle(self, capsys):
        assert run_cli("verify", "--geometry", "builtin:fitted_b",
                       "--oracle") == 0
        out = capsys.readouterr().out
        assert "oracle=18 formula=18 OK" in out

    def test_verify_w2_oracle_names_v2(self, capsys):
        # the oracle's nullity is dim V2, which contains the W2 basis checked
        assert run_cli("verify", "--geometry", "builtin:bilinear_a", "--p", "5",
                       "--k", "1", "--space", "w2", "--oracle") == 0
        assert "oracle dim_V2=19 >= dim_W2=18 OK" in capsys.readouterr().out

    def test_verify_finds_a_defect_between_50_samples(self, tmp_path, fitted_a,
                                                      capsys):
        # at k = 20 the trace space has 66 functions, so one of them vanishes
        # at 50 equispaced points; added to the x coordinates of u-row 2 of
        # patch R, it breaks the second-order matching only between them
        geo, g = fitted_a
        fine = refine_geometry(geo, make_knot_vector(5, 2, 20,
                                                     uniform_inner_knots(20)))
        space = fine.patch_R.space
        B = space.basis_matrix(np.linspace(0.0, 1.0, 50))[0]
        bump = np.linalg.svd(B)[2][-1]
        cp = fine.patch_R.control_points.copy()
        cp[2, :, 0] += 1e-3 * bump / np.abs(bump).max()
        path = tmp_path / "defect.json"
        save_geometry(path, TwoPatchGeometry(fine.patch_L, Patch(space, cp)),
                      gluing=g, regularity=2)
        run_cli("verify", "--geometry", str(path))
        line, = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("interface residuals:")]
        assert line.endswith("FAIL"), line

    def test_verify_passes_at_degree_20(self, capsys):
        # an interpolated reference left the check at grad 3.3e-7 and
        # hess 1.4e-6 here
        assert run_cli("verify", "--geometry", "builtin:bilinear_a",
                       "--p", "20", "--k", "0") == 0
        out = capsys.readouterr().out
        assert "60 basis functions (v2)" in out and "FAIL" not in out

    def test_basis_export(self, tmp_path):
        out = tmp_path / "basis.jsonl"
        assert run_cli("basis", "--geometry", "builtin:fitted_a",
                       "--out", str(out)) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 15
        families = {r["family"] for r in records}
        assert families == {"Gamma0_regular", "Gamma1_regular", "Gamma2"}
        for r in records:
            assert np.asarray(r["rows_L"]).shape == (3, 6)
            assert np.asarray(r["rows_R"]).shape == (3, 6)

    def test_bilinear_asset_lifted_to_space_degree(self, tmp_path, capsys):
        # the basis needs only the gluing data and the knots, so the bilinear
        # reference gives the same records as the fitted geometry
        lifted = tmp_path / "lifted.jsonl"
        fitted = tmp_path / "fitted.jsonl"
        assert run_cli("basis", "--geometry", "builtin:bilinear_a",
                       "--p", "5", "--r", "2", "--out", str(lifted)) == 0
        assert run_cli("basis", "--geometry", "builtin:fitted_a",
                       "--out", str(fitted)) == 0
        assert lifted.read_text() == fitted.read_text()
        capsys.readouterr()
        assert run_cli("verify", "--geometry", "builtin:bilinear_a", "--p", "5",
                       "--r", "2", "--k", "3", "--oracle") == 0
        out = capsys.readouterr().out
        assert "27 basis functions (v2)" in out and "PASS" in out
        assert "oracle=27 formula=27 OK" in out

    @pytest.mark.parametrize("command", [
        ("basis",), ("dim",), ("verify", "--k", "3", "--oracle"),
    ], ids=lambda command: command[0])
    def test_lifted_geometry_defaults_to_r2(self, command, capsys):
        # the bilinear asset stores its patches' own continuity, r = 0
        args = (*command, "--geometry", "builtin:bilinear_a", "--p", "5")
        assert run_cli(*args) == 0
        default = capsys.readouterr().out
        assert run_cli(*args, "--r", "2") == 0
        assert default and default == capsys.readouterr().out

    def test_fit_and_verify_output(self, tmp_path, capsys):
        out = tmp_path / "fitted.json"
        assert run_cli("fit", "--initial", "builtin:initial_b",
                       "--out", str(out)) == 0
        captured = capsys.readouterr().out
        assert "discrete relative error" in captured
        assert run_cli("verify", "--geometry", str(out)) == 0

    def test_bilinear_command(self, tmp_path):
        out = tmp_path / "bilinear.json"
        assert run_cli("bilinear", "--initial", "builtin:initial_a",
                       "--out", str(out)) == 0
        geo, gluing_raw = load_geometry(out)
        assert geo.space.degree == 1
        assert gluing_raw is not None

    def test_table2_levels_zero(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli("table2", "--geometry", "builtin:fitted_a",
                       "--levels", "0", "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "0" and row[4] == "" and row[6] == ""

    def test_table2_custom_function(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_cli("table2", "--geometry", "builtin:fitted_b",
                       "--levels", "0", "--function", "x1 + x2",
                       "--out", str(out)) == 0
        err = float(out.read_text().strip().splitlines()[1].split(",")[3])
        assert err < 1e-11    # linear field is reproduced exactly

    def test_table2_partial_flush_on_failure(self, tmp_path, monkeypatch):
        import c2patch.assembly as asm_mod
        out = tmp_path / "t.csv"
        calls = {"n": 0}
        orig = asm_mod.SPDFactor.condition_number

        def failing(self):
            calls["n"] += 1
            if calls["n"] > 1:
                raise ValueError("synthetic eigensolver failure")
            return orig(self)

        monkeypatch.setattr(asm_mod.SPDFactor, "condition_number", failing)
        assert run_cli("table2", "--geometry", "builtin:fitted_b",
                       "--levels", "2", "--out", str(out)) == 1
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("L,dim_V1")
        assert lines[1].startswith("0,")          # level 0 flushed
        assert lines[-1].startswith("# error")    # trailing error row


class TestExitCodes:
    def test_malformed_json_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert run_cli("dim", "--geometry", str(bad)) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_one(self):
        assert run_cli("dim", "--geometry", "/nonexistent/geo.json") == 1

    def test_unknown_builtin_exits_one(self):
        assert run_cli("dim", "--geometry", "builtin:nope") == 1

    @staticmethod
    def _assert_one_error_line(capsys, match):
        """Checks stderr and returns stdout."""
        captured = capsys.readouterr()
        lines = [line for line in captured.err.splitlines()
                 if line.startswith("error:")]
        assert len(lines) == 1 and match in lines[0]
        assert "Traceback" not in captured.err
        return captured.out

    def test_sign_condition_violation_exits_one(self, tmp_path, capsys):
        # both patches on the same side of the interface
        from tests.test_gluing import bilinear
        geo = bilinear(
            {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (-1, 0), (1, 1): (-1, 1)},
            {(0, 0): (0, 0), (0, 1): (0, 1), (1, 0): (-1, 0.5),
             (1, 1): (-1, 1.5)})
        path = tmp_path / "bad_geo.json"
        save_geometry(path, geo, regularity=0)
        for command in ("fit", "bilinear"):
            assert run_cli(command, "--initial", str(path)) == 1
            self._assert_one_error_line(capsys, "sign condition")

    @pytest.mark.parametrize("alpha_L", [[0.0, 0.0], [1.0, -2.0]],
                             ids=["zero", "root-inside"])
    def test_gluing_violating_sign_condition_exits_one(self, alpha_L, tmp_path,
                                                       capsys):
        # no space is built from gluing data that no regular geometry has
        ref = resources.files("c2patch") / "assets" / "bilinear_a.json"
        data = json.loads(ref.read_text())
        data["gluing"]["alpha_L"] = alpha_L
        path = tmp_path / "bad_sign.json"
        path.write_text(json.dumps(data))
        for command in (["dim"], ["basis", "--out", str(tmp_path / "b.jsonl")]):
            assert run_cli(*command, "--geometry", str(path), "--p", "5",
                           "--k", "2") == 1
            self._assert_one_error_line(capsys, "sign condition")

    def test_malformed_gluing_record_one_error_line(self, tmp_path, capsys):
        ref = resources.files("c2patch") / "assets" / "fitted_a.json"
        data = json.loads(ref.read_text())
        del data["gluing"]["beta_R"]
        path = tmp_path / "bad_gluing.json"
        path.write_text(json.dumps(data))
        assert run_cli("dim", "--geometry", str(path)) == 1
        self._assert_one_error_line(capsys, "malformed gluing record")

    def test_indeterminate_rank_exits_two(self, monkeypatch, capsys):
        from c2patch.smooth import IndeterminateRankError

        def fake_oracle(*args, **kwargs):
            raise IndeterminateRankError("gap too small")

        monkeypatch.setattr(cli.smooth, "constraint_nullspace_dim", fake_oracle)
        assert run_cli("verify", "--geometry", "builtin:fitted_a",
                       "--oracle") == 2
        assert "INDETERMINATE" in capsys.readouterr().out

    def test_degree_mismatch_exits_one(self):
        assert run_cli("basis", "--geometry", "builtin:fitted_a",
                       "--p", "6") == 1

    @pytest.mark.parametrize("command", ["basis", "verify"])
    def test_low_degree_geometry_without_p_exits_one(self, command, capsys):
        assert run_cli(command, "--geometry", "builtin:bilinear_a") == 1
        err = capsys.readouterr().err
        assert "the geometry has degree 1" in err and "--p 5 or higher" in err

    def test_non_finite_input_exits_one(self, tmp_path, capsys):
        ref = resources.files("c2patch") / "assets" / "bilinear_a.json"
        for key, value in (("control_points", [float("nan"), 0.0]),
                           ("alpha_L", float("inf"))):
            data = json.loads(ref.read_text())
            if key == "control_points":
                data["patches"]["L"]["control_points"][0] = value
            else:
                data["gluing"][key][0] = value
            path = tmp_path / "nonfinite.json"
            path.write_text(json.dumps(data))
            assert run_cli("gluing", "--geometry", str(path)) == 1
            assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("expr", ["sin()", "pow(x1)", "sin(x1, x2)"])
    def test_wrong_function_arity_exits_one(self, expr, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli("table2", "--geometry", "builtin:fitted_a",
                       "--levels", "0", "--function", expr,
                       "--out", str(out)) == 1
        name = expr.split("(")[0]
        assert f"error: {name}() takes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("patch", [
        [1, 2],
        {"control_points": [["abc", 0.0]]},
        {"control_points": [[0.0, 0.0], [0.0]]},
    ], ids=["list", "strings", "ragged"])
    def test_malformed_control_points_exit_one(self, patch, tmp_path, capsys):
        ref = resources.files("c2patch") / "assets" / "fitted_a.json"
        data = json.loads(ref.read_text())
        data["patches"]["L"] = patch
        path = tmp_path / "bad_points.json"
        path.write_text(json.dumps(data))
        assert run_cli("dim", "--geometry", str(path)) == 1
        assert "patch 'L': malformed control points" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "1", "2",
                                     "1e30"])
    def test_tol_that_checks_nothing_exits_one(self, tol, capsys):
        # a tolerance of 1 or more passes the bilinear-like check, whose
        # residuals are at most 1, whatever the input (a C2 residual is at
        # most 2), and nan, 0 or -1 fail every check
        assert run_cli("verify", "--geometry", "builtin:fitted_a", "--k", "1",
                       "--tol", tol) == 1
        out = self._assert_one_error_line(
            capsys, "--tol must be finite and positive and below 1, the "
                    "largest bilinear-like residual, got")
        assert out == ""

    def test_unrepresentable_trace_exits_one(self, capsys):
        # at p = 40 a trace combination is not representable to the
        # collocation check's tolerance
        assert run_cli("verify", "--geometry", "builtin:bilinear_a",
                       "--p", "40", "--k", "0") == 1
        self._assert_one_error_line(capsys, "not representable in the patch "
                                            "space")

    def test_negative_k_exits_one(self, capsys):
        assert run_cli("dim", "--geometry", "builtin:fitted_a", "--k", "-1") == 1
        assert "--k must be at least 0, got -1" in capsys.readouterr().err

    def test_table2_low_degree_geometry_names_the_degree(self, capsys):
        assert run_cli("table2", "--geometry", "builtin:bilinear_a") == 1
        self._assert_one_error_line(
            capsys, "degree 1, below the least space degree 5")

    def test_table2_program_error_is_not_bad_input(self, monkeypatch, capsys):
        # only the study's documented failures, all ValueError, exit 1
        def broken(*args, **kwargs):
            raise TypeError("synthetic program error")

        monkeypatch.setattr(assembly, "convergence_study", broken)
        with pytest.raises(TypeError, match="synthetic program error"):
            run_cli("table2", "--geometry", "builtin:fitted_a",
                    "--levels", "0")
        assert "error:" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["basis", "--geometry", "builtin:fitted_a"],
        ["fit", "--initial", "builtin:initial_a"],
        ["bilinear", "--initial", "builtin:initial_a"],
        ["table2", "--geometry", "builtin:fitted_a", "--levels", "0"],
    ], ids=lambda command: command[0])
    def test_unwritable_out_exits_one(self, command, tmp_path, monkeypatch,
                                      capsys):
        # the path fails before any fit or study starts
        def never(*args, **kwargs):
            raise AssertionError("work started before --out was opened")

        for name in ("fit_bilinear_like", "convergence_study"):
            monkeypatch.setattr(assembly, name, never)
        out = tmp_path / "missing" / "out"
        assert run_cli(*command, "--out", str(out)) == 1
        assert self._assert_one_error_line(capsys, str(out)) == ""

    @pytest.mark.parametrize("beta_L", [[-1 / 6, 5 / 18, 5.0], []],
                             ids=["three", "none"])
    def test_gluing_record_coefficient_count_exits_one(self, beta_L, tmp_path,
                                                       capsys):
        # gluing functions are linear: a third coefficient is not dropped,
        # and no coefficient is not the zero function
        ref = resources.files("c2patch") / "assets" / "fitted_a.json"
        data = json.loads(ref.read_text())
        data["gluing"]["beta_L"] = beta_L
        path = tmp_path / "gluing.json"
        path.write_text(json.dumps(data))
        assert run_cli("gluing", "--geometry", str(path)) == 1
        self._assert_one_error_line(capsys, "malformed gluing record")

    @pytest.mark.parametrize("key, value", [("degree", 5.9),
                                            ("regularity", 2.7)])
    def test_non_integral_degree_or_regularity_exits_one(self, key, value,
                                                         tmp_path, capsys):
        ref = resources.files("c2patch") / "assets" / "fitted_a.json"
        data = json.loads(ref.read_text())
        path = tmp_path / "geo.json"
        path.write_text(json.dumps(dict(data, degree=5.0, regularity=2.0)))
        assert run_cli("dim", "--geometry", str(path)) == 0
        assert capsys.readouterr().out.startswith("p=5 r=2 k=0\n")
        path.write_text(json.dumps(dict(data, **{key: value})))
        assert run_cli("dim", "--geometry", str(path)) == 1
        self._assert_one_error_line(capsys, f"{key} {value} is not an integer")

    def test_interface_gap_between_samples_exits_one(self, tmp_path, fitted_a,
                                                     capsys):
        geo, gluing = fitted_a
        path = tmp_path / "gap.json"
        save_geometry(path, blind_interface_gap(geo), gluing=gluing,
                      regularity=2)
        assert run_cli("dim", "--geometry", str(path)) == 1
        self._assert_one_error_line(capsys, "patch interfaces disagree")

    def test_table2_geometry_with_interior_knots_exits_one(self, tmp_path,
                                                           fitted_a, capsys):
        # the study refines a geometry without interior knots
        geo, gluing = fitted_a
        path = tmp_path / "k3.json"
        save_geometry(path, refine_geometry(geo, make_knot_vector(
            5, 2, 3, uniform_inner_knots(3))), gluing=gluing, regularity=2)
        assert run_cli("table2", "--geometry", str(path), "--levels", "1") == 1
        # rejected before level 0: no CSV header and no error row
        assert self._assert_one_error_line(
            capsys, "no interior knots, got 3: [0.25, 0.5, 0.75]") == ""

    def test_table2_negative_levels_exits_one(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run_cli("table2", "--geometry", "builtin:fitted_a",
                       "--levels", "-1", "--out", str(out)) == 1
        assert "--levels" in capsys.readouterr().err
        assert not out.exists()


def test_bundled_assets_consistent(fitted_a, fitted_b):
    for (geo, gluing), name in ((fitted_a, "a"), (fitted_b, "b")):
        geo.validate()
        bil, raw = load_asset(f"bilinear_{name}")
        assert raw is not None
        init, _ = load_asset(f"initial_{name}")
        assert init.space.degree == 3


@pytest.mark.parametrize("name", ["a", "b"])
def test_fitted_assets_regenerate_within_tolerance(name):
    # byte-for-byte equality depends on the BLAS build; the tolerance does not
    committed, _ = load_asset(f"fitted_{name}")
    regenerated = reference_fitted_geometry(name)
    for side in "LR":
        diff = np.abs(regenerated.patch(side).control_points
                      - committed.patch(side).control_points).max()
        assert diff <= 1e-9 * committed.diameter
