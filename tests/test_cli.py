import csv
import io
import logging
import math
import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import pqvar
from pqvar import cli, duality, solver
from pqvar.cli import (ConfigError, _fmt, load_polynomial, main, parse_config,
                       parse_integrand)
from pqvar.integrands import AxisPower, PowerNorm, Scaled, Sum

MODEL_CFG = textwrap.dedent("""\
    # anisotropic quartic model
    n = 2
    N = 1
    p = 2
    q = 4
    mu = 0
    L = 8
    integrand = power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4)
    cells = 12
    epsilons = 0.5,0.25
    boundary = sine
    amplitudes = 1.0
    estimates = hd,sup
    seed = 42
""")

# |z|^2 + (z_1^2 + 4 z_2^2)^2, one monomial per line
QUARTIC_POLY = "1 1 1\n1 2 2\n1 1 1 1 1\n8 1 1 2 2\n16 2 2 2 2\n"
POLY_CFG = "n = 2\nN = 1\np = 2\nq = 4\nL = 16\nintegrand = {integrand}\n"


# config values that a run would reject or drop, each rejected by the parser;
# `old` and `new` may hold several replacements separated by ';'
PARSE_TIME_REJECTIONS = [
    ("diagnose", "seed = 42", "seed = 42\nsobolev_exp = 1"),
    ("diagnose", "estimates = hd,sup", "estimates = hd,rh\nt_grid = 1.5,2.5"),
    ("solve", "amplitudes = 1.0", "amplitudes ="),
    ("diagnose", "amplitudes = 1.0", "amplitudes = ,"),
    ("diagnose", "n = 2;estimates = hd,sup", "n = 3;estimates = hd,rh"),
    ("diagnose", "N = 1;estimates = hd,sup", "N = 2;estimates = hd,cacc"),
    ("solve", "epsilons = 0.5,0.25", "epsilons = 0.5,nan"),
    ("diagnose", "seed = 42", "seed = 42\nsobolev_exp = nan"),
    ("diagnose", "seed = 42", "seed = 42\nsobolev_exp = inf"),
    ("solve", "seed = 42", "seed = 42\nworkers = 0"),
    ("diagnose", "amplitudes = 1.0", "amplitudes = nan"),
    ("solve", "amplitudes = 1.0", "amplitudes = 1.0,inf"),
    ("diagnose", "L = 8", "L = inf"),
]


def _edited(text, old, new):
    for o, n in zip(old.split(";"), new.split(";")):
        text = text.replace(o, n)
    return text


@pytest.fixture
def model_cfg(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text(MODEL_CFG)
    return str(path)


class TestIntegrandLanguage:
    def test_model_expression(self):
        F = parse_integrand("power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4)", (1, 2))
        assert isinstance(F, Sum) and len(F.parts) == 3
        assert isinstance(F.parts[0], PowerNorm)
        assert isinstance(F.parts[1], AxisPower) and F.parts[1].i == 1

    def test_single_atom(self):
        F = parse_integrand("power(mu=1,p=2)", (1, 2))
        assert isinstance(F, PowerNorm) and F.mu == 1.0

    def test_coefficient_term(self):
        F = parse_integrand("0.25 * power(mu=0,p=4)", (1, 2))
        assert isinstance(F, Scaled) and F.coeff == 0.25

    def test_whitespace_insensitive(self):
        a = parse_integrand("power(mu=0,p=2)+axis(i=1,q=4)", (1, 2))
        b = parse_integrand("  power( mu = 0 , p = 2 )  +  axis( i = 1 , q = 4 )", (1, 2))
        z = np.random.default_rng(0).normal(size=(4, 1, 2))
        assert np.allclose(a.value(z), b.value(z))

    def test_axis_out_of_range(self):
        with pytest.raises(ConfigError) as exc:
            parse_integrand("axis(i=3,q=4)", (1, 2), line_no=7)
        assert exc.value.line == 7

    def test_syntax_error_has_position(self):
        with pytest.raises(ConfigError) as exc:
            parse_integrand("power(mu=0,p=2) % axis(i=1,q=4)", (1, 2), line_no=3)
        assert exc.value.line == 3 and exc.value.col is not None

    def test_unknown_atom(self):
        with pytest.raises(ConfigError):
            parse_integrand("exp(q=4)", (1, 2))

    @pytest.mark.parametrize("expr, col, match", [
        ("power(mu=2,p=2)", 1, "mu must lie in"),
        ("power(mu=0,p=2) + -1 * power(mu=0,p=2)", 19, "scaling coefficient"),
        ("axis(i=1,q=1)", 1, "axis exponent"),
        ("axis(i=1.5,q=4)", 6, "integer i"),
        ("power(mu=0,p=2,mu=0)", 16, "each once"),
        ("power(mu=0)", 7, "each once"),
        ("power(mu=0,p=two)", 12, "each once"),
        ("power(mu=0,p=2) +", 17, "unexpected"),
        ("power(mu=0,p=2) axis(i=1,q=4)", 17, "unexpected"),
    ])
    def test_bad_term_names_line_and_column(self, expr, col, match):
        # line 7 is `integrand = <expr>`; `col` counts within <expr>, and the
        # error gives the column within the line
        key = "integrand = "
        text = "n = 2\nN = 1\np = 2\nq = 4\nmu = 0\nL = 8\n" + key + expr + "\n"
        with pytest.raises(ConfigError, match=match) as exc:
            parse_config(text)
        assert (exc.value.line, exc.value.col) == (7, len(key) + col)

    def test_column_follows_the_value_in_its_line(self):
        with pytest.raises(ConfigError, match="integer i") as exc:
            parse_integrand("axis(i=1.5,q=4)", (1, 2), line_no=3, col=5)
        assert (exc.value.line, exc.value.col) == (3, 10)

    def test_poly_atom(self, tmp_path):
        poly = tmp_path / "marc.poly"
        poly.write_text("1.0 1 1\n1.0 2 2\n1.0 1 1 1 1\n1.0 2 2 2 2\n")
        F = parse_integrand(f"poly({poly.name})", (1, 2), base_dir=str(tmp_path))
        z = np.array([[1.0, 0.0]])
        assert float(F.value(z)) == pytest.approx(2.0)

    def test_poly_odd_monomial_rejected(self, tmp_path):
        poly = tmp_path / "odd.poly"
        poly.write_text("1.0 1 1\n1.0 1 1 1\n")
        with pytest.raises(ConfigError, match="degree-3"):  # NotEvenError as a ConfigError
            load_polynomial(str(poly), (1, 2))


class TestConfig:
    def test_full_parse(self):
        cfg = parse_config(MODEL_CFG)
        assert cfg.regime.q == 4.0 and cfg.cells == 12
        assert cfg.epsilons == [0.5, 0.25]
        assert cfg.estimates == ["hd", "sup"]
        assert cfg.seed == 42
        assert cfg.region.kind == "ball" and cfg.region.radius == 0.45

    def test_unknown_key(self):
        with pytest.raises(ConfigError) as exc:
            parse_config("n = 2\nbogus = 3\n")
        assert exc.value.line == 2

    def test_missing_required(self):
        with pytest.raises(ConfigError):
            parse_config("n = 2\nN = 1\np = 2\nq = 4\nintegrand = power(mu=0,p=2)\n")

    def test_invalid_regime_is_config_error(self):
        bad = MODEL_CFG.replace("q = 4", "q = 1")
        with pytest.raises(ConfigError):
            parse_config(bad)

    def test_schedule_count(self):
        cfg = parse_config(MODEL_CFG.replace("epsilons = 0.5,0.25", "schedule_count = 3"))
        assert cfg.epsilons == [0.5, 0.25, 0.125]

    def test_bad_number_list_names_key_and_line(self):
        with pytest.raises(ConfigError, match="amplitudes") as exc:
            parse_config(MODEL_CFG.replace("amplitudes = 1.0", "amplitudes = 1,x"))
        assert exc.value.line == 12

    @pytest.mark.parametrize("region, match", [("0.5,0.5,nan,ball", "radius"),
                                               ("nan,0.5,0.45,ball", "center"),
                                               ("0.5,inf,0.45,cube", "center")])
    def test_non_finite_region_names_the_bad_part(self, region, match):
        with pytest.raises(ConfigError, match=f"bad region: region {match} must be") as exc:
            parse_config(MODEL_CFG + f"region = {region}\n")
        assert exc.value.line == 15

    def test_readme_config_block(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
        block = re.search(r"### Config format\n.*?```\n(.*?)```", text, re.S).group(1)
        cfg = parse_config(block)
        assert cfg.regime.n == 2
        assert cfg.estimates == ["hd", "sup", "cacc", "stress"]
        assert len(cfg.epsilons) == 4 and cfg.schedule().epsilons == cfg.epsilons


class TestCsvFormat:
    @pytest.mark.parametrize("x", [0.1, -0.0, 1e300, math.inf, -math.inf, math.nan,
                                   np.float64(1 / 3)])
    def test_floats_print_with_17_digits(self, x):
        assert _fmt(x) == f"{x:.17g}"


class TestSubcommands:
    def test_gehring_prints_reference_value(self, capsys):
        assert main(["gehring", "--c0", "1", "--M", "1", "--m", "0.5"]) == 0
        assert capsys.readouterr().out.strip() == "1.5"

    def test_gehring_domain_error(self, capsys):
        assert main(["gehring", "--c0", "0.2", "--M", "1", "--m", "0.5"]) == 2

    @pytest.mark.parametrize("argv", [
        ["gehring", "--c0", "nan", "--M", "1", "--m", "0.5"],
        ["gehring", "--c0", "1", "--M", "inf", "--m", "0.5"],
        ["moser", "--gamma", "0.5", "--alpha0", "nan"],
        ["moser", "--gamma", "0.5", "--c0", "inf"],
        ["moser", "--gamma", "0.5", "--M", "nan"],
        ["moser", "--gamma", "0.5", "--tau1", "inf"],
        ["moser", "--gamma", "0.5", "--V0", "-1"],
        ["moser", "--gamma", "0.5", "--V0", "nan"],
    ])
    def test_unusable_constants_exit_2(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().out.startswith("error:")

    def test_moser_negative_count_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["moser", "--gamma", "0.5", "--count", "-3"])
        assert exc.value.code == 2
        assert "argument --count: must be at least 0" in capsys.readouterr().err

    def test_moser_table(self, capsys):
        assert main(["moser", "--gamma", "0.5", "--count", "3"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert out[0] == "i,alpha_i"
        assert out[1:5] == ["0,-1", "1,0", "2,2", "3,6"]
        assert out[5].startswith("bound,")

    @pytest.mark.parametrize("argv", [["--gamma", "0.9"], ["--gamma", "0.9", "--M", "1e300"]])
    def test_moser_bound_past_the_float_range_is_inf(self, capsys, argv):
        assert main(["moser", *argv, "--count", "0"]) == 0
        assert capsys.readouterr().out.strip().split("\n")[-1] == "bound,inf"

    def test_moser_bound_in_range(self, capsys):
        # 6254528839.7079782 is the direct product exp(log C) M^e / gap^a0 V0^(...);
        # the log-space form agrees with it to round-off
        assert main(["moser", "--gamma", "0.5", "--count", "0"]) == 0
        bound = capsys.readouterr().out.strip().split("\n")[-1].split(",")[1]
        assert float(bound) == pytest.approx(6254528839.7079782, rel=1e-15)

    def test_check_model(self, model_cfg, capsys, tmp_path):
        out = tmp_path / "cert.csv"
        assert main(["check", "--config", model_cfg, "--samples", "2000",
                     "--out", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("quantity,value")
        assert "assf3_constant" in text

    def test_check_rejects_equal_exponents(self, tmp_path, capsys):
        cfg = tmp_path / "pq.cfg"
        cfg.write_text(MODEL_CFG.replace("q = 4", "q = 2")
                       .replace("integrand = power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4)",
                                "integrand = power(mu=0,p=2)"))
        assert main(["check", "--config", str(cfg)]) == 1

    def run_poly_check(self, tmp_path, capsys, integrand, polys):
        for name, text in polys.items():
            (tmp_path / name).write_text(text)
        cfg = tmp_path / "poly.cfg"
        cfg.write_text(POLY_CFG.format(integrand=integrand))
        code = main(["check", "--config", str(cfg), "--samples", "2000"])
        return code, capsys.readouterr().out.splitlines()

    def test_check_reports_polynomial_exponents_and_defects(self, tmp_path, capsys):
        code, out = self.run_poly_check(tmp_path, capsys, "poly(quartic.poly)",
                                        {"quartic.poly": QUARTIC_POLY})
        assert code == 0
        rows = dict(line.split(",") for line in out if "," in line)
        assert [k for k in rows if k.startswith("poly")] == [
            "poly1_q", "poly1_p_max", "poly1_stress_constant", "poly1_delta_deg2",
            "poly1_delta_deg4"]
        assert (float(rows["poly1_q"]), float(rows["poly1_p_max"])) == (4.0, 2.0)
        # the same samples as the certificate: the polynomial is the whole integrand
        assert rows["poly1_stress_constant"] == rows["assf3_constant"]
        assert float(rows["poly1_delta_deg2"]) == 0.0
        # (z1^2 + 4 z2^2)^2: the analytic defect of TestDelta in test_growth.py
        assert float(rows["poly1_delta_deg4"]) == pytest.approx(0.6, abs=5e-3)

    def test_check_blocks_follow_config_order(self, tmp_path, capsys):
        code, out = self.run_poly_check(
            tmp_path, capsys, "power(mu=0,p=2) + 2*poly(quartic.poly) + poly(axes.poly)",
            {"quartic.poly": QUARTIC_POLY, "axes.poly": "1 1 1 1 1\n1 2 2 2 2\n"})
        assert code == 0
        keys = [line.split(",")[0] for line in out if line.startswith("poly")]
        assert keys == ["poly1_q", "poly1_p_max", "poly1_stress_constant", "poly1_delta_deg2",
                        "poly1_delta_deg4", "poly2_q", "poly2_p_max", "poly2_stress_constant",
                        "poly2_delta_deg4"]
        assert "poly2_p_max,4" in out

    def test_check_fails_on_a_negative_component(self, tmp_path, capsys):
        # 3|z|^2 + (z1^4 + z2^4 - |z|^2) is convex, but its polynomial's
        # quadratic component is negative on the sphere
        code, out = self.run_poly_check(
            tmp_path, capsys, "3*power(mu=0,p=2) + poly(neg.poly)",
            {"neg.poly": "-1 1 1\n-1 2 2\n1 1 1 1 1\n1 2 2 2 2\n"})
        assert code == 1
        assert out[-2] == "certified constants within registered L: True"
        assert out[-1].startswith("certification FAILED: poly 1: ")
        assert "negative" in out[-1]

    def test_conjugate_table(self, model_cfg, tmp_path):
        out = tmp_path / "conj.csv"
        assert main(["conjugate", "--config", model_cfg, "--count", "4",
                     "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "xi11,xi12,value,z11,z12,iters,residual"
        assert len(rows) == 5
        F = parse_integrand("power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4)", (1, 2))
        for row in rows[1:]:
            cells = [float(c) for c in row.split(",")]
            xi, value, z = np.array([cells[0:2]]), cells[2], np.array([cells[3:5]])
            norm = float(np.linalg.norm(xi))
            assert np.linalg.norm(F.gradient(z) - xi) <= duality.DEFAULT_TOL * max(1.0, norm)
            zxi, Fz = float((z * xi).sum()), float(F.value(z))
            assert value == pytest.approx(zxi - Fz, rel=1e-12, abs=1e-15)

    def test_conjugate_is_deterministic(self, model_cfg, tmp_path):
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main(["conjugate", "--config", model_cfg, "--count", "6",
                         "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_conjugate_nonconvergence_exit_code(self, model_cfg, monkeypatch, capsys):
        def failing(F, xi, **kw):
            raise duality.NonConvergenceError("line search stalled", z=xi, residual=1.0)

        monkeypatch.setattr(duality, "conjugate", failing)
        assert main(["conjugate", "--config", model_cfg, "--count", "2"]) == 3
        assert "line search stalled" in capsys.readouterr().out

    @pytest.mark.parametrize("flags", [
        ["check", "--samples", "0"],
        ["check", "--radius", "0"],
        ["check", "--radius", "-1"],
        ["conjugate", "--count", "0"],
        ["conjugate", "--count", "-3"],
        ["conjugate", "--radius", "0"],
        ["conjugate", "--radius", "-5"],
        ["conjugate", "--radius", "nan"],
    ])
    def test_bad_flags_exit_2(self, model_cfg, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(flags + ["--config", model_cfg])
        assert exc.value.code == 2
        assert f"argument {flags[1]}: must be" in capsys.readouterr().err

    def test_solve_outputs(self, model_cfg, tmp_path, capsys):
        outdir = tmp_path / "run"
        assert main(["solve", "--config", model_cfg, "--out", str(outdir)]) == 0
        assert (outdir / "reports.csv").exists()
        assert (outdir / "field.csv").exists()
        assert (outdir / "gradients.csv").exists()

    def test_solve_deterministic(self, model_cfg, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert main(["solve", "--config", model_cfg, "--out", str(d1)]) == 0
        assert main(["solve", "--config", model_cfg, "--out", str(d2)]) == 0
        for name in ("reports.csv", "field.csv", "gradients.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_diagnose_writes_rows(self, model_cfg, tmp_path, capsys):
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--config", model_cfg, "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "estimate_id,lhs,rhs,ratio,fitted_exponent,grid,amplitude,epsilon"
        assert any(r.startswith("hdes,") for r in rows[1:])

    def test_diagnose_fits_amplitude_exponent(self, tmp_path, capsys):
        cfg = tmp_path / "amps.cfg"
        cfg.write_text(MODEL_CFG.replace("amplitudes = 1.0",
                                         "amplitudes = 0.5,1.0,2.0,4.0"))
        out = tmp_path / "diag.csv"
        assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        hdes = [r for r in rows if r[0] == "hdes"]
        assert len(hdes) == 4
        fitted = {r[4] for r in hdes}
        assert len(fitted) == 1 and fitted != {""}

    def test_diagnose_warns_of_a_skipped_fit(self, tmp_path, capsys, caplog):
        # affine data leave hdes with lhs 0 at 3 of the 4 amplitudes: too few
        # positive points to fit, so its exponent stays empty and a warning says why
        cfg = tmp_path / "affine.cfg"
        cfg.write_text(_edited(MODEL_CFG, "cells = 12;epsilons = 0.5,0.25;boundary = sine;"
                               "amplitudes = 1.0", "cells = 16;schedule_count = 4;"
                               "boundary = affine;amplitudes = 0.5,1,2,4"))
        out = tmp_path / "diag.csv"
        with caplog.at_level(logging.WARNING, logger="pqvar"):
            assert main(["diagnose", "--config", str(cfg), "--out", str(out)]) == 0
        warnings = [r.getMessage() for r in caplog.records if r.name == "pqvar"]
        assert len(warnings) == 1 and "hdes" in warnings[0]
        caplog.clear()
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        assert {r[4] for r in rows if r[0] == "hdes"} == {""}
        assert "" not in {r[4] for r in rows if r[0] == "sup_grad"}

    def test_diagnose_builds_one_grid(self, monkeypatch):
        built = []
        init = cli.Grid.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(cli.Grid, "__init__", counting)
        cfg = parse_config(MODEL_CFG.replace("amplitudes = 1.0", "amplitudes = 0.5,1.0,2.0,4.0"))
        report = cli.run_diagnose(cfg)
        assert {e.amplitude for e in report.entries} == {0.5, 1.0, 2.0, 4.0}
        assert built == [(2, 12)]

    def test_sweep_marks_inadmissible(self, tmp_path, capsys):
        cfg = tmp_path / "n4.cfg"
        cfg.write_text(
            "n = 4\nN = 1\np = 2\nq = 3\nmu = 0\nL = 8\n"
            "integrand = power(mu=0,p=2) + axis(i=1,q=4)\nseed = 1\n")
        assert main(["sweep", "--config", str(cfg), "--vary", "q",
                     "--values", "3,4,5,6"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        rows = {float(r.split(",")[1]): r.split(",")[2] for r in out[1:]}
        assert rows[3.0] == "1" and rows[5.0] == "1" and rows[6.0] == "0"

    def test_sweep_amplitude_runs_solves(self, model_cfg, tmp_path, capsys):
        out = tmp_path / "amp.csv"
        assert main(["sweep", "--config", model_cfg, "--vary", "amplitude",
                     "--values", "1.0,2.0", "--out", str(out)]) == 0
        rows = out.read_text().strip().split("\n")
        assert any(",hdes," in r for r in rows[1:])

    def test_sweep_parallel_matches_serial(self, tmp_path, capsys):
        serial = tmp_path / "serial.cfg"
        serial.write_text(MODEL_CFG)
        parallel = tmp_path / "parallel.cfg"
        parallel.write_text(MODEL_CFG + "workers = 2\n")
        out1, out2 = tmp_path / "s.csv", tmp_path / "p.csv"
        assert main(["sweep", "--config", str(serial), "--vary", "amplitude",
                     "--values", "0.5,1.0", "--out", str(out1)]) == 0
        assert main(["sweep", "--config", str(parallel), "--vary", "amplitude",
                     "--values", "0.5,1.0", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("n = 2\nN = 1\np = 2\nq = 4\nL = 8\nintegrand = axis(i=9,q=4)\n")
        assert main(["check", "--config", str(bad)]) == 2

    @pytest.mark.parametrize("command, old, new", [
        ("solve", "amplitudes = 1.0", "amplitudes = x"),
        ("solve", "seed = 42", "seed = 42\nt_grid = 1.1,zz"),
        ("solve", "boundary = sine", "boundary = foo"),
        ("solve", "cells = 12", "cells = 1"),
        ("solve", "cells = 12", "cells = inf"),
        ("solve", "n = 2", "n = 2.5"),
        ("conjugate", "seed = 42", "seed = -1"),
        ("solve", "epsilons = 0.5,0.25", "schedule_count = 0"),
        ("solve", "n = 2", "n = 4"),
        ("diagnose", "n = 2", "n = 4"),
        # the default region's B/8 holds no simplex barycenter at 8 cells
        ("diagnose", "cells = 12", "cells = 8"),
    ] + PARSE_TIME_REJECTIONS)
    def test_bad_config_values_exit_2(self, tmp_path, capsys, command, old, new):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_edited(MODEL_CFG, old, new))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().out.startswith("config error:")

    @pytest.mark.parametrize("command, old, new", PARSE_TIME_REJECTIONS + [
        ("solve", "axis(i=2,q=4)", "axis(i=2.5,q=4)"),
        ("diagnose", "+ axis(i=2,q=4)", "+ -1 * axis(i=2,q=4)"),
        # B/8 holds no simplex barycenter at 8 cells
        ("diagnose", "cells = 12", "cells = 8"),
        ("solve", "cells = 12", "cells = 8"),
    ])
    def test_config_errors_come_before_the_solve(self, tmp_path, capsys, monkeypatch,
                                                 command, old, new):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_scheme was called")

        monkeypatch.setattr(solver, "run_scheme", no_solve)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_edited(MODEL_CFG, old, new))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().out.startswith("config error:")

    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("coeff", ["nan", "inf"])
    def test_non_finite_poly_coefficient_comes_before_the_solve(self, tmp_path, capsys,
                                                                monkeypatch, command, coeff):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_scheme was called")

        monkeypatch.setattr(solver, "run_scheme", no_solve)
        (tmp_path / "quartic.poly").write_text(f"1.0 1 1\n1.0 2 2\n{coeff} 1 1 1 1\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(_edited(MODEL_CFG, "power(mu=0,p=2) + axis(i=1,q=4) + axis(i=2,q=4)",
                               "poly(quartic.poly)"))
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        out = capsys.readouterr().out
        assert out.startswith("config error:") and "must be finite" in out

    def test_sweep_region_error_comes_before_the_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_scheme was called")

        monkeypatch.setattr(solver, "run_scheme", no_solve)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(MODEL_CFG.replace("cells = 12", "cells = 8"))
        assert main(["sweep", "--config", str(cfg), "--vary", "amplitude",
                     "--values", "1,2"]) == 2
        assert capsys.readouterr().out.startswith("config error: no simplex barycenters")

    @pytest.mark.parametrize("values", ["1,nan", "inf"])
    def test_sweep_non_finite_amplitude_comes_before_the_solve(self, model_cfg, capsys,
                                                               monkeypatch, values):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_scheme was called")

        monkeypatch.setattr(solver, "run_scheme", no_solve)
        assert main(["sweep", "--config", model_cfg, "--vary", "amplitude",
                     "--values", values]) == 2
        assert capsys.readouterr().out.startswith("config error: --values must be finite")

    def test_sweep_sobolev_default_follows_q(self, tmp_path, capsys):
        # q = 9 needs sobolev_exp > 2q/p = 9: the default 4q/p follows q, while an
        # explicit 8 becomes that point's error and the sweep goes on
        cfg = tmp_path / "q.cfg"
        cfg.write_text(MODEL_CFG.replace("cells = 12", "cells = 10"))
        assert main(["sweep", "--config", str(cfg), "--vary", "q", "--values", "4,9"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [r.split(",")[:5] for r in rows if ",hdes," in r] == [
            ["q", "4", "1", "inf", "hdes"], ["q", "9", "1", "inf", "hdes"]]
        cfg.write_text(MODEL_CFG.replace("cells = 12", "cells = 10") + "sobolev_exp = 8\n")
        assert main(["sweep", "--config", str(cfg), "--vary", "q", "--values", "4,9"]) == 0
        header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
        assert any(r[:5] == ["q", "4", "1", "inf", "hdes"] for r in rows)
        # the error holds a comma: its cell is quoted, so the row keeps its width
        assert [r for r in rows if r[:2] == ["q", "9"]] == [
            ["q", "9", "1", "inf", "", "", "", "", "sobolev_exp must exceed 2q/p = 9, got 8.0"]]
        assert all(len(r) == len(header) for r in rows)


def test_docstring_lists_every_known_key():
    listed = cli.__doc__.split("Recognized keys (defaults in parentheses):")[1]
    listed = re.sub(r"\([^)]*\)", "", listed.split("\n\n")[0]).replace(" or ", ",")
    assert {key.strip(" .\n") for key in listed.split(",")} == cli._KNOWN_KEYS


NUMPY_ONLY_SCRIPT = textwrap.dedent("""\
    import sys
    import numpy as np
    from pqvar import cli, duality, growth, registry, solver
    from pqvar.model import DiscreteField, Grid

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

    entry = registry.get("aniso2d_q4")
    duality.conjugate(entry.integrand, np.array([[1.0, -0.5]]))
    growth.check_legendre(entry.integrand, entry.regime, n_samples=200, radius=10.0)
    assert cli.main(["check", "--config", sys.argv[1], "--samples", "200"]) == 0
    assert cli.main(["conjugate", "--config", sys.argv[1], "--count", "2"]) == 0
    print("before", scipy_modules())
    for name, dim in (("aniso2d_q4", 2), ("aniso3d_q4", 3)):
        lattice = Grid(dim, 4)
        u = solver.boundary_family("sine", lattice, 1.0, 1)
        solver.energy(registry.get(name).integrand, lattice, u)
        solver.assemble_gradient(registry.get(name).integrand, lattice, u)
        DiscreteField(lattice, u)
    print("lattice", scipy_modules())
    grid = Grid(2, 6)
    data = solver.boundary_family("sine", grid, 1.0, 1)
    solver.minimize_dirichlet(entry.integrand, grid, data)
    solver.harmonic_extension(grid, solver.mollify_boundary(grid, data, 0.5))
    assert "scipy.spatial" not in sys.modules
    print("after", "scipy.linalg" in sys.modules)
""")


def test_duality_and_certification_load_no_scipy(model_cfg):
    """`import pqvar`, a conjugation, a certificate and the `check` and `conjugate`
    commands run on numpy alone, and so do energies, weak forms and fields on a
    2d and a 3d grid; a 2d solve then loads scipy.linalg, and a mollification
    and a harmonic extension load no scipy.spatial."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(pqvar.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", NUMPY_ONLY_SCRIPT, model_cfg], env=env,
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert "before []" in out
    assert "lattice []" in out
    assert out[-1] == "after True"
