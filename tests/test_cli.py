"""Command line contract: exit codes, file outputs, determinism."""

import concurrent.futures
import math
import os
import subprocess
import sys
import warnings

import click.testing
import pytest

import fracdecomp.cli as cli
import fracdecomp.evaluation as evaluation
from fracdecomp.cli import main
from fracdecomp.grammar import MAX_DEPTH
from fracdecomp.symx import PowerDomainError
from test_evaluation import TWO_D_FILE


@pytest.fixture
def runner():
    return click.testing.CliRunner()


def _lines(path):
    return path.read_text().splitlines()


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_comparison_run(runner, tmp_path):
    out = tmp_path / "run"
    r = runner.invoke(main, ["solve", "-p", "p6", "--method", "both",
                             "--iters", "3", "--out", str(out)])
    assert r.exit_code == 0, r.output
    summary = _lines(out / "summary.csv")
    assert summary[0] == "method,alpha,iterations,max_abs,l2,residual,seconds"
    assert len(summary) == 1 + 8  # 2 methods x iterations 0..3
    points = _lines(out / "points.csv")
    assert points[0] == "method,alpha,iterations,x,t,approx,exact,abs_error"
    assert (out / "plot.dat").exists()
    assert "wrote" in r.output


def test_solve_2d_points_carry_y(runner, tmp_path):
    out = tmp_path / "run"
    r = runner.invoke(main, ["solve", "-p", "p2", "--iters", "1",
                             "--grid", "7,7,4", "--out", str(out)])
    assert r.exit_code == 0, r.output
    points = _lines(out / "points.csv")
    assert points[0] == "method,alpha,iterations,x,y,t,approx,exact,abs_error"


def test_solve_literal_mode_gate(runner, tmp_path):
    out = tmp_path / "run"
    r = runner.invoke(main, ["solve", "-p", "p1", "--mode", "paper-literal",
                             "--out", str(out)])
    assert r.exit_code == 3
    assert "inconsistent" in r.output
    assert "--allow-inconsistent" in r.output


def test_solve_literal_mode_override(runner, tmp_path):
    out = tmp_path / "run"
    r = runner.invoke(main, ["solve", "-p", "p1", "--mode", "paper-literal",
                             "--iters", "1", "--allow-inconsistent",
                             "--out", str(out)])
    assert r.exit_code == 0, r.output
    summary = _lines(out / "summary.csv")
    # no exact solution in literal mode: error columns are empty-nan
    assert len(summary) == 1 + 2


def test_solve_refuses_a_face_key_of_the_other_dimension(runner, tmp_path):
    # a 1D file's bc.x0 and a 2D file's bc.l name no face of their problem;
    # both once solved with the key never read
    files = {
        "line.txt": ("domain = 0, 1\nexact = t*x\nsource = x\nbc.l = 0\nbc.x0 = 5*t\n",
                     "line.txt: 'bc.x0' is not a face of this problem; "
                     "its faces are bc.l, bc.L"),
        "box.txt": ("domain = 0, 2\ndomain_y = 0, 2\nexact = t^2*(x*(2 - x) + y*(2 - y))\n"
                    "source = 1\nbc.l = 7*t\n",
                    "box.txt: 'bc.l' is not a face of this problem; "
                    "its faces are bc.x0, bc.x1, bc.y0, bc.y1"),
    }
    for name, (text, said) in files.items():
        (tmp_path / name).write_text(text)
        for mode in ("manufactured", "paper-literal"):
            r = runner.invoke(main, ["solve", "-f", str(tmp_path / name), "--mode", mode,
                                     "-n", "1", "--out", str(tmp_path / "o")])
            assert r.exit_code == 2, (name, mode, r.output)
            assert r.output.strip().splitlines() == [said], (name, mode)
            assert not (tmp_path / "o").exists()


def test_solve_literal_gate_refuses_an_infinite_source_sample(runner, tmp_path):
    # exp(1000 x) overflows on the domain (1, 2): the source is not the
    # manufactured one there, so the gate refuses it before any solve
    prob = tmp_path / "steep.txt"
    prob.write_text("domain = 1, 2\nexact = t*x\nsource = x + t*exp(1000*x)\n")
    r = runner.invoke(main, ["solve", "-f", str(prob), "--mode", "paper-literal",
                             "-n", "1", "--out", str(tmp_path / "o")])
    assert r.exit_code == 3, r.output
    assert "inconsistent (source)" in r.output


def test_solve_alpha_fan_plot_blocks(runner, tmp_path):
    out = tmp_path / "run"
    r = runner.invoke(main, ["solve", "-p", "p5", "--alpha", "0.6,0.8,1.0",
                             "--method", "mldm", "--iters", "2",
                             "--out", str(out)])
    assert r.exit_code == 0, r.output
    blocks = [ln for ln in _lines(out / "plot.dat") if ln.startswith("# ")]
    assert len(blocks) == 3


def test_solve_outputs_are_deterministic(runner, tmp_path):
    args = ["solve", "-p", "p5", "--alpha", "0.8,1.0", "--method", "both",
            "--iters", "2"]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        r = runner.invoke(main, args + ["--out", str(out)])
        assert r.exit_code == 0, r.output
        outs.append(out)
    a, b = outs
    assert (a / "points.csv").read_bytes() == (b / "points.csv").read_bytes()
    assert (a / "plot.dat").read_bytes() == (b / "plot.dat").read_bytes()

    def masked(p):
        # wall-clock seconds is the one honest nondeterminism in the summary
        return [ln.rpartition(",")[0] for ln in _lines(p / "summary.csv")]

    assert masked(a) == masked(b)


def test_solve_parallel_matches_serial(runner, tmp_path):
    # the 2D file's workers get pickled specs whose nonlinearity carries a
    # brace series coefficient, a y-derivative and a cubic
    prob = tmp_path / "cubic2d.txt"
    prob.write_text(TWO_D_FILE)
    for name, base in (("p5", ["-p", "p5", "--alpha", "0.7,1.0", "--iters", "1"]),
                       ("2d", ["--file", str(prob), "-a", "0.5,1.0", "-n", "1"])):
        serial, parallel = tmp_path / f"s_{name}", tmp_path / f"p_{name}"
        for jobs, out in (("1", serial), ("2", parallel)):
            r = runner.invoke(main, ["solve", *base, "--method", "both", "--jobs", jobs,
                                     "--out", str(out)])
            assert r.exit_code == 0, (name, r.output)
        for f in ("points.csv", "plot.dat"):
            assert (serial / f).read_bytes() == (parallel / f).read_bytes(), (name, f)


def test_solve_builds_each_spec_once(runner, tmp_path, monkeypatch):
    # one spec per alpha: the jobs solve the specs the consistency gate saw
    built, gated, solved = [], [], []
    real_spec, real_check = cli._build_spec, cli.problems.validate_consistency
    real_ladm, real_mldm = cli.ladm_solve, cli.mldm_solve
    monkeypatch.setattr(cli, "_build_spec",
                        lambda *args: built.append(real_spec(*args)) or built[-1])
    monkeypatch.setattr(cli.problems, "validate_consistency",
                        lambda spec: gated.append(spec) or real_check(spec))
    monkeypatch.setattr(cli, "ladm_solve",
                        lambda spec, *a, **kw: solved.append(spec) or real_ladm(spec, *a, **kw))
    monkeypatch.setattr(cli, "mldm_solve",
                        lambda spec, *a, **kw: solved.append(spec) or real_mldm(spec, *a, **kw))
    r = runner.invoke(main, ["solve", "-p", "p5", "-m", "both", "-a", "0.5,1.0",
                             "-n", "1", "-o", str(tmp_path / "o")])
    assert r.exit_code == 0, r.output
    assert len(built) == 2
    assert [id(s) for s in gated] == [id(s) for s in built]
    assert [id(s) for s in solved] == [id(built[0])] * 2 + [id(built[1])] * 2


def test_solve_honors_out_env_var(runner, tmp_path):
    out = tmp_path / "enved"
    r = runner.invoke(main, ["solve", "-p", "p6", "--iters", "1"],
                      env={"FRACDECOMP_OUT": str(out)})
    assert r.exit_code == 0, r.output
    assert (out / "summary.csv").exists()


def test_solve_config_file_and_flag_override(runner, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = p5\nmethod = ladm\niters = 3\nalpha = 0.8\n")
    out1 = tmp_path / "cfg"
    r = runner.invoke(main, ["solve", "--config", str(cfg), "--out", str(out1)])
    assert r.exit_code == 0, r.output
    assert len(_lines(out1 / "summary.csv")) == 1 + 4
    assert _lines(out1 / "summary.csv")[1].startswith("ladm,0.8,")
    out2 = tmp_path / "cfg2"
    r = runner.invoke(main, ["solve", "--config", str(cfg), "--iters", "1",
                             "--out", str(out2)])
    assert r.exit_code == 0, r.output
    assert len(_lines(out2 / "summary.csv")) == 1 + 2


def test_solve_config_values_are_checked_by_their_option_types(runner, tmp_path):
    out = tmp_path / "o"
    cases = {"method = foo": "config method: 'foo' is not one of "
                             "'ladm', 'mldm', 'both'.",
             "iters = three": "config iters: 'three' is not a valid integer.",
             "allow-inconsistent = maybe": "config allow_inconsistent: 'maybe' "
                                           "is not a valid boolean."}
    for line, message in cases.items():
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"problem = p5\n{line}\n")
        r = runner.invoke(main, ["solve", "--config", str(cfg), "--out", str(out)])
        assert r.exit_code == 2, (line, r.output)
        said = r.output.strip().splitlines()
        assert len(said) == 1 and said[0].startswith(message), (line, said)
        assert not out.exists(), line


def test_solve_out_precedence_flag_env_config_default(runner, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FRACDECOMP_OUT", raising=False)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("problem = p5\niters = 0\nout = from_config\n")
    env = {"FRACDECOMP_OUT": "from_env"}
    for args, env_out, wrote in ((["-p", "p5", "-n", "0"], None, "out"),
                                 (["--config", str(cfg)], None, "from_config"),
                                 (["--config", str(cfg)], env, "from_env"),
                                 (["--config", str(cfg), "-o", "from_flag"], env,
                                  "from_flag")):
        r = runner.invoke(main, ["solve", *args], env=env_out)
        assert r.exit_code == 0, (args, r.output)
        assert f"wrote {os.path.join(wrote, 'points.csv')}" in r.output, args
        assert (tmp_path / wrote / "summary.csv").exists(), args


def test_solve_p6_past_the_gamma_overflow(runner, tmp_path):
    # mldm's fifth iterate reaches exponents where Gamma overflows a float
    out = tmp_path / "run"
    r = runner.invoke(main, ["solve", "-p", "p6", "-n", "5", "--out", str(out)])
    assert r.exit_code == 0, r.output
    rows = [row.split(",") for row in _lines(out / "summary.csv")[1:]]
    assert [row[2] for row in rows] == [str(n) for n in range(6)]
    assert float(rows[-1][3]) < 1e-5 and float(rows[-1][5]) < 1e-4


def test_solve_folds_large_gamma_constants(runner, tmp_path):
    # gamma(150) and gamma(142.3) are finite floats, folded as they are
    # (gamma(200) overflows and is refused in the exit-code test)
    for z in ("150", "142.3"):
        prob = tmp_path / f"g{z}.txt"
        prob.write_text(f"domain = 0, 1\nexact = t*x*gamma({z})\n")
        out = tmp_path / f"o{z}"
        r = runner.invoke(main, ["solve", "--file", str(prob), "-n", "1",
                                 "--out", str(out)])
        assert r.exit_code == 0, (z, r.output)
        rows = [row.split(",") for row in _lines(out / "summary.csv")[1:]]
        assert rows and all(float(row[3]) == 0.0 for row in rows), rows


def test_solve_error_norms_stay_finite_past_the_square_overflow(runner, tmp_path):
    # the l2 column once squared the error table, so an error past ~1.3e154
    # made it inf, and under -W error::RuntimeWarning a traceback and exit 1
    for name, exact in (("scaled", "1e300*t^alpha*x"), ("big_gamma", "t*x*gamma(171.5)")):
        prob = tmp_path / f"{name}.txt"
        prob.write_text(f"domain = 0, 1\nexact = {exact}\n")
        out = tmp_path / name
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            r = runner.invoke(main, ["solve", "--file", str(prob), "-m", "both", "-n", "1",
                                     "-a", "0.5", "--out", str(out)])
        assert r.exit_code == 0, (name, r.output)
        rows = [row.split(",") for row in _lines(out / "summary.csv")[1:]]
        assert rows and all(math.isfinite(float(row[4])) for row in rows), (name, rows)


def test_solve_problem_file(runner, tmp_path):
    prob = tmp_path / "adv.txt"
    prob.write_text("alpha = 0.9\ndomain = 0, 1\nlinear = 1x:1.0\n"
                    "exact = t^2*x*(1 - x)\n")
    out = tmp_path / "run"
    r = runner.invoke(main, ["solve", "--file", str(prob), "--iters", "1",
                             "--out", str(out)])
    assert r.exit_code == 0, r.output
    assert (out / "points.csv").exists()


def test_solve_bad_problem_file_grammar(runner, tmp_path):
    prob = tmp_path / "bad.txt"
    prob.write_text("alpha = 0.9\ndomain = 0, 1\nexact = t^2*sin(pi*x) +* x\n")
    r = runner.invoke(main, ["solve", "--file", str(prob),
                             "--out", str(tmp_path / "o")])
    assert r.exit_code == 2
    assert "^" in r.output and "column" in r.output


def test_solve_input_validation_exit_codes(runner, tmp_path):
    out = str(tmp_path / "o")
    big_gamma = tmp_path / "big_gamma.txt"
    big_gamma.write_text("alpha = 0.9\ndomain = 0, 1\nexact = t*x*gamma(200)\n")
    inf_gamma = tmp_path / "inf_gamma.txt"
    inf_gamma.write_text("domain = 0, 1\nexact = t*x*gamma(-1e400)\n")
    nan_cfg = tmp_path / "nan.cfg"
    nan_cfg.write_text("problem = p5\ntmax = nan\n")
    # the dimension comes from domain_y alone; an unknown key, such as the
    # old undocumented 'dimension' or a misspelt one, is refused by name
    bad_files = {
        "dim3.txt": "domain = 0, 1\ndimension = 3\nexact = t*x\n",
        "dim1.txt": "domain = 0, 1\ndomain_y = 0, 1\ndimension = 1\nexact = t*x*y\n",
        "typo.txt": "domain = 0, 1\nexact = t*x\nnonlinaer = u^2\n",
        # non-finite domain bounds
        "nan_domain.txt": "domain = 0, nan\nexact = t*x\n",
        "inf_domain.txt": "domain = 0, inf\nexact = t*x\n",
        # a number that is not one, named with its file and key
        "abc_domain.txt": "domain = 0, abc\nexact = t*x\n",
        "abc_alpha.txt": "alpha = abc\ndomain = 0, 1\nexact = t*x\n",
        # a face of the exact solution with no value at x = 0, and constants
        # that overflow a float when folded (exact's face at x = 1, a source,
        # a nonlinear constant): each once ended in a traceback and exit 1
        "pole.txt": "domain = 0, 1\nexact = t*x^(-1)\n",
        "exp_exact.txt": "domain = 0, 1\nexact = t*exp(800*x)\n",
        "exp_source.txt": "domain = 0, 1\nsource = exp(800)*t\nic = 0\nbc.l = 0\nbc.L = 0\n",
        "exp_nonlinear.txt": "domain = 0, 1\nexact = t*x\nnonlinear = exp(800)*u\n",
        # an infinite coefficient once solved with exit 0 and a 0.0 error and
        # residual (the zero check dropped the infinite terms)
        "inf_linear.txt": "domain = 0, 1\nexact = t*x^3\nlinear = 2x:1e999\n",
        "inf_nonlinear.txt": "domain = 0, 1\nexact = t*x^3\nnonlinear = 1e999*u^2\n",
        "big_nonlinear.txt": "domain = 0, 1\nexact = t*x^3\nnonlinear = u - 1e200*1e200*u\n",
        "short_linear.txt": "domain = 0, 1\nexact = t*x^3\nlinear = 2x:1e\n",
        # an infinite constant in a series field: the literal source once
        # crashed in the rendering of the audit, an exact one once exited 2
        # with a bare "cannot convert float NaN to integer"
        "inf_source.txt": "domain = 0, 1\nexact = t*x\nsource = 1e999*t\n",
        "inf_exact.txt": "domain = 0, 1\nexact = t*x + 1e999*t^2\n",
    }
    for name, text in bad_files.items():
        (tmp_path / name).write_text(text)
    file_cases = {name: ["solve", "--file", str(tmp_path / name), "-a", "0.5",
                         "--out", out] for name in bad_files}
    # the file's own alpha is read only when no -a is given
    file_cases["abc_alpha.txt"] = ["solve", "--file", str(tmp_path / "abc_alpha.txt"),
                                   "--out", out]
    file_cases["inf_source.txt"] += ["--mode", "paper-literal"]
    # t^mu overflows past t = 1e308, and 0 * inf is nan at x = 0: the grid
    # values are not finite, so nothing is written
    huge_tmax = ["solve", "-p", "p1", "--tmax", "1e308", "--out", out]
    cases = [
        ["solve", "--out", out],                                # neither
        ["solve", "-p", "p5", "--file", "x.txt", "--out", out],  # both
        ["solve", "-p", "p5", "--alpha", "1.5", "--out", out],
        ["solve", "-p", "p5", "--alpha", "0.0", "--out", out],
        ["solve", "-p", "nosuch", "--out", out],
        ["solve", "-p", "p5", "--grid", "1,5", "--out", out],
        ["solve", "-p", "p5", "--grid", "5", "--out", out],
        ["solve", "-p", "p5", "--iters", "-2", "--out", out],
        ["solve", "-p", "p5", "--tmax", "-1.0", "--out", out],
        # a non-finite end of the time window, by flag or config file
        ["solve", "-p", "p5", "--tmax", "nan", "--out", out],
        ["solve", "-p", "p5", "--tmax", "inf", "--out", out],
        ["solve", "--config", str(nan_cfg), "--out", out],
        # the same order twice, by float value
        ["solve", "-p", "p5", "-a", "0.5,0.50", "--out", out],
        ["solve", "-p", "p5", "--jobs", "0", "--out", out],
        # past MAX_OUTPUT_ROWS: refused before any solve, 2D and 1D
        ["solve", "-p", "p2", "--grid", "10001,10001,2", "--out", out],
        ["solve", "-p", "p5", "--grid", "1000001,3", "-m", "both", "--out", out],
        # a problem file that does not exist: a message, not a traceback
        ["solve", "--file", str(tmp_path / "missing.txt"), "--out", out],
        # gamma(-inf) once ended in a bare "math domain error"; it and
        # gamma(200), which overflows a float, are located grammar errors
        ["solve", "--file", str(inf_gamma), "--out", out],
        ["solve", "--file", str(big_gamma), "--out", out],
    ]
    outputs = []
    for args in cases:
        r = runner.invoke(main, args)
        assert r.exit_code == 2, (args, r.output)
        assert not (tmp_path / "o").exists(), args
        outputs.append(r.output)
    assert outputs[-2].splitlines() == ["inf_gamma.txt: exact:", "t*x*gamma(-1e400)",
                                        "    ^ gamma of -inf (column 5)"]
    assert "^" in outputs[-1] and "overflows" in outputs[-1]
    said = {}
    for name, args in [*file_cases.items(), ("huge_tmax", huge_tmax)]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = runner.invoke(main, args)
        assert not caught, (name, [str(w.message) for w in caught])
        assert r.exit_code == 2, (args, r.output)
        assert not (tmp_path / "o").exists(), args
        said[name] = r.output.strip().splitlines()
        assert len(said[name]) == 1, (name, r.output)
    assert "'dimension'" in said["dim3.txt"][0] and "'dimension'" in said["dim1.txt"][0]
    assert "'nonlinaer'" in said["typo.txt"][0]
    assert "finite" in said["nan_domain.txt"][0] and "finite" in said["inf_domain.txt"][0]
    assert said["abc_domain.txt"] == ["abc_domain.txt: domain: 'abc' is not a number"]
    assert said["abc_alpha.txt"] == ["abc_alpha.txt: alpha: 'abc' is not a number"]
    domain = "the series cannot be evaluated on the domain: "
    assert said["pole.txt"] == [domain + "zero base with negative exponent -1.0"]
    assert said["exp_exact.txt"] == [domain + "exp(800) overflows a float"]
    for key in ("source", "nonlinear"):
        name = f"exp_{key}.txt"
        assert said[name] == [f"{name}: {key}: exp(800) overflows a float"]
    assert said["inf_linear.txt"] == ["inf_linear.txt: linear: '1e999' is not finite"]
    assert said["short_linear.txt"] == ["short_linear.txt: linear: '1e' is not a number"]
    for name, term in (("inf_nonlinear.txt", "1e999*u^2"),
                       ("big_nonlinear.txt", "1e200*1e200*u")):
        assert said[name] == [f"{name}: nonlinear: the constant of term {term!r} "
                              "is not finite"]
    assert said["inf_source.txt"] == ["inf_source.txt: source: a coefficient of "
                                      "'1e999*t' is not finite"]
    assert said["inf_exact.txt"] == ["inf_exact.txt: exact: a coefficient of "
                                     "'t*x + 1e999*t^2' is not finite"]
    assert said["huge_tmax"] == ["series is not finite at 820 of 861 grid points "
                                 "(inf or nan); the values overflow a float"]


# (command line with {dir} for the test's directory, problem file text or
# None, a fragment of the one message); problem files are written to
# {dir}/prob.txt and configs to {dir}/run.cfg
EXIT_2_CASES = {
    "alpha_not_a_number": (["solve", "-p", "p5", "-a", "0.5,x"], None, "bad alpha 'x'"),
    "alpha_empty": (["solve", "-p", "p5", "-a", ","], None, "no alpha values given"),
    "grid_one_count": (["solve", "-p", "p5", "--grid", "3"], None, "bad grid '3'"),
    "config_missing": (["solve", "-c", "{dir}/missing.cfg"], None, "cannot read config"),
    "config_unknown_key": (["solve", "-c", "{dir}/run.cfg"], "problem = p5\nnosuch = 1\n",
                           "unknown config key 'nosuch'"),
    "unknown_function": (["solve", "-f", "{dir}/prob.txt"],
                         "domain = 0, 1\nexact = t*foo(x)\n", "unknown name 'foo'"),
    "variable_exponent": (["solve", "-f", "{dir}/prob.txt"],
                          "domain = 0, 1\nexact = t*x^x\n", "exponent must be constant"),
    "division_by_zero": (["solve", "-f", "{dir}/prob.txt"],
                         "domain = 0, 1\nexact = t*x/(1-1)\n", "division by zero"),
    "trailing_paren": (["solve", "-f", "{dir}/prob.txt"],
                       "domain = 0, 1\nexact = t*x)\n", "unexpected trailing input"),
    "line_without_equals": (["solve", "-f", "{dir}/prob.txt"],
                            "domain = 0, 1\nexact = t*x\nnonlinear u^2\n",
                            "prob.txt:3: expected 'key = value'"),
    "domain_one_end": (["solve", "-f", "{dir}/prob.txt"], "domain = 0\nexact = t*x\n",
                       "bad interval '0'"),
    "literal_without_source": (["solve", "-f", "{dir}/prob.txt", "--mode", "paper-literal"],
                               "domain = 0, 1\nexact = t*x\n",
                               "paper-literal mode needs 'source'"),
    "verify_no_check": (["verify", "--only", ","], None, "no checks selected"),
    # a face of the exact solution whose value overflows a float: a power of
    # the domain's end, and the exactly rounded sum of a substituted coefficient
    "face_power_overflows": (["solve", "-f", "{dir}/prob.txt", "-m", "ladm", "-n", "1",
                              "-a", "0.5"], "domain = 0, 1e200\nexact = t*x^2\n",
                             "1e+200^2 overflows a float"),
    "face_sum_overflows": (["solve", "-f", "{dir}/prob.txt", "-m", "ladm", "-n", "1",
                            "-a", "0.5"], "domain = 0, 1\nexact = t*(1e308*x + 1e308*x^2)\n",
                           "the sum of a coefficient at x = 1 overflows a float"),
    "face_terms_overflow": (["solve", "-f", "{dir}/prob.txt", "-m", "ladm", "-n", "1",
                             "-a", "0.5"],
                            "domain = 0, 1e10\nexact = t*(1e300*x - 1e300*x*cos(x))\n",
                            "the sum of a coefficient at x = 1e+10 overflows a float"),
    "nested_too_deep": (["solve", "-f", "{dir}/prob.txt", "-m", "ladm", "-n", "1",
                         "-a", "0.5"],
                        "domain = 0, 1\nexact = " + "(" * MAX_DEPTH + "t" + ")" * MAX_DEPTH
                        + "\n", f"^ expression nested deeper than {MAX_DEPTH} levels"),
}


@pytest.mark.parametrize("case", sorted(EXIT_2_CASES))
def test_input_errors_exit_2_with_their_message(case, runner, tmp_path):
    args, text, fragment = EXIT_2_CASES[case]
    if text is not None:
        (tmp_path / ("run.cfg" if "-c" in args else "prob.txt")).write_text(text)
    out = tmp_path / "o"
    args = [a.format(dir=tmp_path) for a in args]
    r = runner.invoke(main, args + (["-o", str(out)] if args[0] == "solve" else []))
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert fragment in r.output and "Traceback" not in r.output
    assert not out.exists()


def _solve_text(runner, tmp_path, name, text, *args):
    (tmp_path / name).mkdir()
    prob = tmp_path / name / "prob.txt"
    prob.write_text(text)
    out = tmp_path / name / "o"
    r = runner.invoke(main, ["solve", "-f", str(prob), "--grid", "5,3", "-o", str(out),
                             *args])
    return r, out


def test_a_long_sum_and_nesting_at_the_bound_solve(runner, tmp_path):
    # a chain parses to one node, so 600 terms recurse no deeper than two
    terms = " + ".join(f"{k}*x^{k % 7}" for k in range(1, 601))
    depth = MAX_DEPTH - 1           # the whole text is the first level
    for name, exact in (("long", f"t*({terms})"), ("deep", "(" * depth + "t" + ")" * depth)):
        r, out = _solve_text(runner, tmp_path, name, f"domain = 0, 1\nexact = {exact}\n",
                             "-m", "ladm", "-n", "1", "-a", "0.5")
        assert r.exit_code == 0, (name, r.output)
        assert len(_lines(out / "summary.csv")) == 3


def test_an_empty_nonlinear_line_is_no_nonlinearity(runner, tmp_path):
    # N = 0 as an empty line, as an empty linear line is Q = 0: the outputs
    # are those of the file without either line
    text = "domain = 0, 1\nexact = t^2*x*(1 - x)\nlinear = 1x:1.0\n"
    outputs = []
    for name, extra in (("plain", ""), ("empty", "nonlinear =\n")):
        r, out = _solve_text(runner, tmp_path, name, text + extra, "-m", "both", "-n", "2")
        assert r.exit_code == 0, (name, r.output)
        outputs.append([(out / f).read_bytes() for f in ("points.csv", "plot.dat")])
    assert outputs[0] == outputs[1]


def test_solve_takes_alpha_from_the_problem_file(runner, tmp_path):
    prob = tmp_path / "p.txt"
    prob.write_text("alpha = 0.8\ndomain = 0, 1\nexact = t^2*x*(1 - x)\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"file = {prob}\nalpha = 0.6\n")
    for args, alpha in ((["--file", str(prob)], "0.8"),
                        (["--file", str(prob), "-a", "0.5"], "0.5"),
                        (["--config", str(cfg)], "0.6"),
                        (["--config", str(cfg), "-a", "0.5"], "0.5")):
        out = tmp_path / f"run{alpha}{len(args)}"
        r = runner.invoke(main, ["solve", *args, "--iters", "1", "--grid", "3,3",
                                 "--out", str(out)])
        assert r.exit_code == 0, (args, r.output)
        rows = _lines(out / "summary.csv")[1:]
        assert [row.split(",")[1] for row in rows] == [alpha, alpha], args


def test_solve_grid_domain_error_exits_2(runner, tmp_path, monkeypatch):
    # the x-derivatives of x^0.75 carry x^-1.25, which the grid meets at x = 0
    # (mldm meets it sooner, substituting x = 0 into the partial sum)
    prob = tmp_path / "neg.txt"
    prob.write_text("domain = 0, 1\nexact = t^3*x^0.75*(2+x)^(-1)\n"
                    "linear = 2x:0.5, 1x:1.0\n")
    raised = []
    real = evaluation._series_grids

    def watched(series_list, keys, grid):
        try:
            return real(series_list, keys, grid)
        except PowerDomainError as exc:
            raised.append(exc)
            raise

    monkeypatch.setattr(evaluation, "_series_grids", watched)
    out = tmp_path / "o"
    for method, through_grid in (("ladm", True), ("mldm", False)):
        raised.clear()
        r = runner.invoke(main, ["solve", "--file", str(prob), "-m", method,
                                 "--iters", "1", "--out", str(out)])
        assert r.exit_code == 2, r.output
        # the report's read of all partial sums raises, then the read of the
        # record that cannot be read alone raises the line that is printed
        assert bool(raised) == through_grid
        lines = r.output.strip().splitlines()
        assert len(lines) == 1 and "zero base with negative exponent -" in lines[0]
        if through_grid:
            assert lines[0].endswith(str(raised[-1]))
        assert not out.exists()


def test_solve_evaluates_each_series_once(runner, tmp_path, monkeypatch):
    # a job evaluates every series on the grid once: each partial sum gives
    # its error, its residual's nonlinear part and, for the last, the
    # written approx column; the exact solution and the nonlinearity's
    # series coefficient are evaluated once for all records
    seen, specs, traces = [], [], []
    real_grids, real_spec, real_solve = (evaluation._series_grids, cli._build_spec,
                                         cli.mldm_solve)
    monkeypatch.setattr(evaluation, "_series_grids",
                        lambda series_list, keys, grid: seen.extend(series_list)
                        or real_grids(series_list, keys, grid))
    monkeypatch.setattr(cli, "_build_spec",
                        lambda *args: specs.append(real_spec(*args)) or specs[-1])
    monkeypatch.setattr(cli, "mldm_solve",
                        lambda *args, **kw: traces.append(real_solve(*args, **kw))
                        or traces[-1])
    r = runner.invoke(main, ["solve", "-p", "p7", "-m", "mldm", "-n", "3", "-a", "0.75",
                             "-o", str(tmp_path / "o")])
    assert r.exit_code == 0, r.output
    (job_spec,) = specs                 # the input check's spec is the job's
    partials = [rec.partial_sum for rec in traces[0].records]
    fixed = [job_spec.exact] + [p.series_coeff for p in job_spec.nonlinear.products
                                if p.series_coeff is not None]
    assert len(partials) == 4 and len(fixed) == 2
    for series in partials + fixed:
        assert sum(s is series for s in seen) == 1
    # every other evaluation is a residual series, each of its own
    assert len({id(s) for s in seen}) == len(seen)


def test_solve_fractional_power_negative_on_the_zero_check_box(runner, tmp_path):
    # the zero check samples (0, 2), where 1 - x and x - 3 go negative; the
    # files are defined on their own domains and solve exactly, and a
    # derivative that does meet a zero base exits 2 with one line
    files = {
        "left.txt": ("domain = 0, 1\nexact = t*(1 - x)^0.5*x\n", 0),
        "right.txt": ("domain = 3, 4\nexact = t*(x - 3)^0.5\n", 0),
        "deriv.txt": ("domain = 0, 1\nexact = t*(1 - x)^0.5*x\nlinear = 2x:-0.5\n", 2),
    }
    for name, (text, code) in files.items():
        (tmp_path / name).write_text(text)
        out = tmp_path / f"o_{name}"
        r = runner.invoke(main, ["solve", "--file", str(tmp_path / name), "-m", "both",
                                 "--out", str(out)])
        assert r.exit_code == code, (name, r.output)
        assert "Traceback" not in r.output and not isinstance(r.exception, PowerDomainError)
        if code == 0:
            rows = _lines(out / "summary.csv")[1:]
            assert rows and all(float(row.split(",")[3]) <= 1e-12 for row in rows), rows
        else:
            lines = r.output.strip().splitlines()
            assert len(lines) == 1 and "cannot be evaluated on the domain" in lines[0]


def test_solve_whose_samples_overflow_raises_no_warning(tmp_path):
    # 1e300*x^200 overflows on the zero-check box (0, 2): on the domain
    # (0, 1) the solve writes its files; on (0, 2) the consistency check's
    # samples are inf on both sides and the grid overflows, so it exits 2
    # with one line. With RuntimeWarning as an error, neither run warns
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    for hi, code in (("1", 0), ("2", 2)):
        path, out = tmp_path / f"big{hi}.txt", tmp_path / f"o{hi}"
        path.write_text(f"domain = 0, {hi}\nexact = 1e300*t*x^200\n")
        r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                            "fracdecomp.cli", "solve", "-f", str(path), "-o", str(out)],
                           env=env, capture_output=True, text=True, timeout=120)
        assert r.returncode == code, r.stderr
        assert "Warning" not in r.stderr, r.stderr
        if code == 0:
            assert (out / "summary.csv").exists()
        else:
            assert r.stderr.strip().splitlines() == [
                "series is not finite at 399 of 861 grid points (inf or nan); "
                "the values overflow a float"]


def test_solve_refuses_an_interval_with_equal_ends_or_an_infinite_width(tmp_path):
    # a width that overflows once warned in the grid's linspace and ended in
    # "series is not finite"; equal ends once solved with ladm on one x point
    # repeated, and mldm refused them naming no file. Both methods now exit 2
    # with one line naming the file and key, and with RuntimeWarning as an
    # error nothing warns first
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    files = {"wide.txt": ("domain = -1e308, 1e308\nexact = t*x\n",
                          "wide.txt: domain: the width of interval '-1e308, 1e308' "
                          "overflows a float"),
             "flat.txt": ("domain = 1, 1\nexact = t*x\n",
                          "flat.txt: domain: interval '1, 1' has equal ends")}
    for name, (text, line) in files.items():
        (tmp_path / name).write_text(text)
        for method in ("ladm", "mldm"):
            out = tmp_path / f"o_{name}_{method}"
            r = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m",
                                "fracdecomp.cli", "solve", "-f", str(tmp_path / name),
                                "-m", method, "-o", str(out)],
                               env=env, capture_output=True, text=True, timeout=120)
            assert r.returncode == 2, (name, method, r.stderr)
            assert r.stderr.strip().splitlines() == [line], (name, method)
            assert not out.exists()


def test_cli_import_loads_neither_acceptance_nor_scipy():
    # nor dataclasses: the package's records are NamedTuples, built with no
    # generated code at import
    code = ("import sys, fracdecomp.cli; "
            "print(sorted(m for m in ('dataclasses', 'fracdecomp.acceptance', 'scipy') "
            "if m in sys.modules))")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _python(*args, **env):
    """A fresh interpreter on the package's sources; an env value of None
    unsets that variable (this process's cli import has set
    OPENBLAS_NUM_THREADS)."""
    full = dict(os.environ, PYTHONPATH=SRC)
    for name, value in env.items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    return subprocess.run([sys.executable, *args], env=full, capture_output=True,
                          text=True, timeout=120)


def test_package_import_loads_no_submodule_and_no_numpy():
    r = _python("-c", "import sys, fracdecomp; print(sorted(m for m in sys.modules "
                      "if m == 'numpy' or m.startswith(('numpy.', 'fracdecomp.'))))")
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


def test_package_exports_resolve_on_first_access():
    # each export is the object its submodule defines; a submodule resolves
    # after a bare import; unknown names raise AttributeError
    code = """
import importlib, sys
import fracdecomp
subs = ("decomp", "evaluation", "fracterm", "grammar", "problems")
names = [n for n in fracdecomp.__all__ if n != "__version__"]
for n in names:
    value = getattr(fracdecomp, n)
    assert any(getattr(importlib.import_module("fracdecomp." + m), n, None) is value
               for m in subs), n
star = {}
exec("from fracdecomp import *", star)
assert set(fracdecomp.__all__) <= set(star), set(fracdecomp.__all__) - set(star)
assert set(fracdecomp.__all__) <= set(dir(fracdecomp))
assert fracdecomp.symx is sys.modules["fracdecomp.symx"]
try:
    fracdecomp.no_such_name
except AttributeError as exc:
    print(exc)
"""
    r = _python("-c", code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "module 'fracdecomp' has no attribute 'no_such_name'"


@pytest.mark.parametrize("preset, seen", [(None, "1"), ("2", "2")])
def test_cli_import_runs_openblas_on_one_thread_unless_set(preset, seen):
    # the setting must precede numpy's import: OpenBLAS reads it once, when
    # numpy loads, and then starts its worker threads (none on one core)
    code = ("import os, fracdecomp.cli; print(os.environ['OPENBLAS_NUM_THREADS'], "
            "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') "
            "else 1)")
    r = _python("-c", code, OPENBLAS_NUM_THREADS=preset)
    assert r.returncode == 0, r.stderr
    value, threads = r.stdout.split()
    assert value == seen
    if preset is None:
        assert threads == "1"


@pytest.mark.parametrize("enabled", [True, False])
def test_cli_import_keeps_the_collector_state_and_freezes_the_heap(enabled):
    code = (f"import gc; {'' if enabled else 'gc.disable(); '}import fracdecomp.cli; "
            "print(gc.isenabled(), gc.get_freeze_count() > 0)")
    r = _python("-c", code)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == f"{enabled} True"


def test_python_m_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("domain = 0, 1\nexact = t*x +\n")
    cases = ((["-p", "p1", "-n", "1"], 0), (["-f", str(bad)], 2),
             (["-p", "p7", "--mode", "paper-literal", "-a", "0.75"], 3))
    for k, (args, code) in enumerate(cases):
        out = tmp_path / f"o{k}"
        r = _python("-m", "fracdecomp.cli", "solve", *args, "-o", str(out))
        assert r.returncode == code, (args, r.stderr)
        assert (out / "points.csv").exists() == (code == 0)


def test_solve_starts_no_more_workers_than_jobs(runner, tmp_path, monkeypatch):
    # an executor that records its size and maps in-process, so a huge -j
    # starts no process at all
    sizes = []

    class Recording:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    # cli imports the pool module on the --jobs path only
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    r = runner.invoke(main, ["solve", "-p", "p5", "--alpha", "0.5,1.0", "-m", "both",
                             "--iters", "1", "--grid", "3,3", "--jobs", "100000",
                             "--out", str(tmp_path / "o")])
    assert r.exit_code == 0, r.output
    assert sizes == [4]


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def test_list_reports_consistency_and_shape(runner):
    r = runner.invoke(main, ["list"])
    assert r.exit_code == 0
    lines = {ln.split()[0]: ln for ln in r.output.splitlines() if ln.strip()}
    assert "inconsistent (source)" in lines["p1"]
    assert "consistent" in lines["p5"]
    assert "2D" in lines["p2"]
    assert "inconsistent (ic, source)" in lines["p4"]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_single_check_passes(runner):
    r = runner.invoke(main, ["verify", "--only", "gamma"])
    assert r.exit_code == 0, r.output
    assert "PASS" in r.output and "gamma" in r.output


def test_verify_unattainable_quad_tol_fails_honestly(runner, monkeypatch):
    from fracdecomp import acceptance
    monkeypatch.setattr(acceptance, "POWER_RULE_TOL", 1e-14)
    r = runner.invoke(main, ["verify", "--only", "power-rule"])
    assert r.exit_code == 1
    assert "FAIL" in r.output


def test_verify_detects_corrupted_gamma(runner, monkeypatch):
    # bend the gamma the check reads by 1e-12 relative: the closed-form
    # probes must notice and the command must name the failing check
    from fracdecomp import acceptance
    real = acceptance.gamma
    monkeypatch.setattr(acceptance, "gamma", lambda z: real(z) * (1.0 + 1e-12))
    r = runner.invoke(main, ["verify", "--only", "gamma"])
    assert r.exit_code == 1
    assert "gamma" in r.output and "FAIL" in r.output


def test_verify_rejects_unknown_check(runner):
    r = runner.invoke(main, ["verify", "--only", "nosuch"])
    assert r.exit_code == 2
    assert "gamma" in r.output  # the list of valid names is shown
