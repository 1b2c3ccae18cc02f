"""The batch tool: determinism, manifests, error JSON, every subcommand."""

import argparse
import decimal
import gc
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import simra
from simra import cli, ivcalc, presets
from simra.cli import main
from simra.reporting import format_significant

SQRT2_XMAX30_ROWS = ["0,0,1,1", "1,1,1,2", "2,2,3,13", "3,5,7,74", "4,12,17,433"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def read(path):
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


@pytest.fixture()
def sqrt2_run(tmp_path):
    run = tmp_path / "run30"
    code = main(["enumerate", "--preset", "sqrt2", "--xmax", "30",
                 "--out", str(run)])
    assert code == 0
    return run


@pytest.fixture()
def cubic_run(tmp_path):
    run = tmp_path / "cubic"
    code = main(["enumerate", "--preset", "cbrt2", "--xmax", "2000",
                 "--out", str(run)])
    assert code == 0
    return run


def test_enumerate_writes_expected_rows(sqrt2_run):
    lines = read(sqrt2_run / "minimal_points.csv").splitlines()
    assert lines[0].startswith("i,x_0,x_1,normSq")
    assert len(lines) == 6
    for line, head in zip(lines[1:], SQRT2_XMAX30_ROWS):
        assert line.startswith(head)


def test_enumerate_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        run = tmp_path / name
        assert main(["enumerate", "--preset", "sqrt2", "--xmax", "1000",
                     "--out", str(run)]) == 0
        outs.append((read(run / "minimal_points.csv"),
                     read(run / "manifest.json")))
    assert outs[0] == outs[1]


def test_manifest_hashes_verify(sqrt2_run):
    manifest = json.loads(read(sqrt2_run / "manifest.json"))
    assert manifest["tool"] == "simra" and manifest["entries"] == 5
    for name, digest in manifest["files"].items():
        data = read(sqrt2_run / name).encode("utf-8")
        assert digest == "sha256:" + hashlib.sha256(data).hexdigest()


def test_tampered_run_detected(sqrt2_run, capsys):
    csv_path = sqrt2_run / "minimal_points.csv"
    body = read(csv_path)
    with open(csv_path, "w", encoding="utf-8") as f:
        f.write(body.replace("12,17", "12,18"))
    code, out = run_cli(capsys, "exponents", "--run", str(sqrt2_run))
    assert code == 1
    err = json.loads(out)
    assert "edited" in err["error"]["message"]


def test_bad_run_dir_error_json(tmp_path, capsys):
    code, out = run_cli(capsys, "exponents", "--run", str(tmp_path / "nope"))
    assert code == 1
    err = json.loads(out)
    assert err["error"]["type"] == "DomainError"


def test_bad_xmax_error_json(tmp_path, capsys):
    code, out = run_cli(capsys, "enumerate", "--preset", "sqrt2",
                        "--xmax", "1/2", "--out", str(tmp_path / "r"))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "DomainError"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("xmax", ["abc", "1/0"])
def test_an_xmax_that_is_not_rational_is_a_schema_error(tmp_path, capsys, xmax):
    code, out = run_cli(capsys, "enumerate", "--preset", "sqrt2",
                        "--xmax", xmax, "--out", str(tmp_path / "r"))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "SchemaError"
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("argv", [
    ["transfer", "--alpha", "1/0", "--beta", "3/5"],
    ["extremal", "--alpha", "1/0", "--beta", "1", "--eps", "0", "--C", "1"],
    ["exponents", "--tail", "half"],
])
def test_a_rational_flag_that_is_not_one_is_a_schema_error(sqrt2_run, capsys, argv):
    code, out = run_cli(capsys, argv[0], "--run", str(sqrt2_run), *argv[1:])
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "SchemaError" and "is not a rational number" in err["message"]
    assert list(json.loads(read(sqrt2_run / "manifest.json"))["files"]) == [
        "minimal_points.csv"]


def test_a_manifest_xmax_that_is_not_rational_is_a_schema_error(sqrt2_run, capsys):
    rehash(sqrt2_run, xMax="x")
    code, out = run_cli(capsys, "exponents", "--run", str(sqrt2_run))
    assert code == 1
    assert json.loads(out) == {"error": {
        "type": "SchemaError", "message": "'x' is not a rational number"}}


def test_an_internal_fault_is_not_reported_as_error_json(capsys, monkeypatch):
    # main reports simra's own errors and OSError; any other exception is a
    # fault of the program and propagates with its traceback
    def fault(n):
        raise ZeroDivisionError("a fault")

    monkeypatch.setattr("simra.spectra.lambda_n", fault)
    with pytest.raises(ZeroDivisionError):
        main(["lambda-n", "--n", "2"])
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("cap", ["abc", "8"])
@pytest.mark.parametrize("argv", [
    ["enumerate", "--preset", "sqrt2", "--xmax", "100", "--out", "run"],
    ["lambda-n", "--n", "2"],
], ids=["enumerate", "lambda-n"])
def test_bad_precision_cap_error_json(tmp_path, capsys, monkeypatch, argv, cap):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("SIMRA_PRECISION_CAP", cap)
    code, out = run_cli(capsys, *argv)
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "DomainError" and "SIMRA_PRECISION_CAP" in err["message"]
    assert not (tmp_path / "run").exists()


def test_manifest_records_cap_in_force(tmp_path, monkeypatch):
    for cap, name in ((None, "default"), ("8192", "raised")):
        if cap is None:
            monkeypatch.delenv("SIMRA_PRECISION_CAP", raising=False)
        else:
            monkeypatch.setenv("SIMRA_PRECISION_CAP", cap)
        assert main(["enumerate", "--preset", "sqrt2", "--xmax", "30",
                     "--out", str(tmp_path / name)]) == 0
    assert json.loads(read(tmp_path / "default" / "manifest.json"))["cap"] == 4096
    assert json.loads(read(tmp_path / "raised" / "manifest.json"))["cap"] == 8192
    # the CSV does not depend on a cap no comparison reached
    assert (read(tmp_path / "default" / "minimal_points.csv")
            == read(tmp_path / "raised" / "minimal_points.csv"))


def test_exponents_subcommand(tmp_path, capsys):
    run = tmp_path / "big"
    assert main(["enumerate", "--preset", "sqrt2", "--xmax", "100000",
                 "--out", str(run)]) == 0
    code, _ = run_cli(capsys, "exponents", "--run", str(run))
    assert code == 0
    rep = json.loads(read(run / "exponents.json"))
    assert float(rep["lambdaEst"]) == pytest.approx(1.1615, abs=0.01)
    assert float(rep["lambdaHatEst"]) == pytest.approx(0.9002, abs=0.01)
    manifest = json.loads(read(run / "manifest.json"))
    assert "exponents.json" in manifest["files"]


def test_exponents_too_few_entries(sqrt2_run, capsys):
    code, out = run_cli(capsys, "exponents", "--run", str(sqrt2_run))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "TooFewPoints"


def test_construct_subcommand(cubic_run, capsys):
    code, _ = run_cli(capsys, "construct", "--run", str(cubic_run),
                      "--i0", "0")
    assert code == 0
    rep = json.loads(read(cubic_run / "family_i0_0.json"))
    assert rep["identities"]["allPass"] is True
    assert rep["i0"] == 0


def test_transfer_subcommand(cubic_run, capsys):
    code, _ = run_cli(capsys, "transfer", "--run", str(cubic_run),
                      "--alpha", "2/5", "--beta", "3/5")
    assert code == 0
    rep = json.loads(read(cubic_run / "transfer.json"))
    assert rep["constantsFitted"] == {"a": True, "b": True}
    assert rep["epsNonnegative"] is True
    assert len(rep["grid"]) >= 2


@pytest.mark.parametrize("grid", ["1", "-3"])
def test_transfer_rejects_a_short_grid(cubic_run, capsys, grid):
    code, out = run_cli(capsys, "transfer", "--run", str(cubic_run),
                        "--alpha", "2/5", "--beta", "3/5", "--grid", grid)
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["type"], err["message"]) == ("DomainError", "grid_count must be >= 2")
    assert not (cubic_run / "transfer.json").exists()
    assert "transfer.json" not in json.loads(read(cubic_run / "manifest.json"))["files"]


def test_transfer_reports_a_constant_past_the_double_range(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(["enumerate", "--preset", "sqrt2", "--xmax", "1000",
                 "--out", str(run)]) == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "transfer", "--run", str(run), "--alpha", "1",
                        "--beta", "1", "--a", "1e400")
    assert code == 1
    assert json.loads(out) == {"error": {
        "type": "DomainError",
        "message": "an enclosure midpoint exceeds the double range"}}
    assert not (run / "transfer.json").exists()


@pytest.mark.parametrize("given, constant, exponent, at", [
    ([], "a", "alpha", "8.60233"), (["--a", "1"], "b", "beta", "8.60233")])
def test_transfer_reports_a_fit_past_the_double_range(tmp_path, capsys, given,
                                                      constant, exponent, at):
    # fitting a missing constant takes X^alpha (X^beta) in floats; past
    # their range the error names the constant to pass instead
    run = tmp_path / "run"
    assert main(["enumerate", "--preset", "sqrt2", "--xmax", "1000",
                 "--out", str(run)]) == 0
    capsys.readouterr()
    code, out = run_cli(capsys, "transfer", "--run", str(run), "--alpha", "400",
                        "--beta", "400", *given)
    assert code == 1
    assert json.loads(out) == {"error": {
        "type": "DomainError",
        "message": f"cannot fit the constant {constant}: X^{exponent} exceeds the "
                   f"double range at X = {at}; pass --{constant}"}}
    assert not (run / "transfer.json").exists()


def test_extremal_subcommand(sqrt2_run, capsys):
    code, _ = run_cli(capsys, "extremal", "--run", str(sqrt2_run),
                      "--alpha", "1", "--beta", "1", "--eps", "0", "--C", "1")
    assert code == 0
    rep = json.loads(read(sqrt2_run / "extremal.json"))
    assert rep["allPass"] is True


def test_lambda_n_prints_value(capsys):
    code, out = run_cli(capsys, "lambda-n", "--n", "2")
    assert code == 0
    assert out.strip().startswith("0.618033988749")


def test_main_collects_its_parser(capsys):
    # the parser's reference cycles are freed before the command runs, not
    # left for the collector (paused here) to find later
    gc.collect()
    gc.disable()
    try:
        code, _ = run_cli(capsys, "lambda-n", "--n", "2")
        left = [o for o in gc.get_objects()
                if isinstance(o, argparse.ArgumentParser) and o.prog.startswith("simra")]
    finally:
        gc.enable()
    assert code == 0 and left == []


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(simra.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_main_frees_its_parser_with_the_collector_on():
    # in a fresh process the collector's automatic passes while the parser
    # is built must not move the parser out of reach of main's collection
    script = """
import argparse, gc
from simra.cli import main
assert main(["lambda-n", "--n", "2"]) == 0
print(sum(isinstance(o, argparse.ArgumentParser) and o.prog.startswith("simra")
          for o in gc.get_objects()))
"""
    out = subprocess.run([sys.executable, "-c", script], env=src_env(),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["0.618033988749895", "0"]


# each subcommand with its required flags, which parse without running it
REQUIRED_FLAGS = {
    "enumerate": ["--preset", "sqrt2", "--xmax", "30", "--out", "run"],
    "exponents": ["--run", "run"],
    "construct": ["--run", "run", "--i0", "0"],
    "transfer": ["--run", "run", "--alpha", "2/5", "--beta", "3/5"],
    "extremal": ["--run", "run", "--alpha", "1", "--beta", "1", "--eps", "0", "--C", "1"],
    "verify": ["--run", "run"],
    "frontier": ["--n", "3"],
    "lambda-n": ["--n", "2"],
    "schmidt-fuzz": [],
    "liouville": ["--minpoly=-2,0,1", "--interval", "1,2", "--extra", "1.7", "--xmax", "9"],
    "plot": ["--run", "run", "--what", "envelope"],
}


def exit_of(capsys, parse):
    with pytest.raises(SystemExit) as exc:
        parse()
    out, err = capsys.readouterr()
    return out, err, exc.value.code


@pytest.mark.parametrize("argv", [
    pytest.param(argv, id=name) for name, argv in
    [("simra", []), ("help", ["--help"]), ("nosuch", ["nosuch"])]
    + [(f"{cmd}-{what}", [cmd, *tail]) for cmd, flags in REQUIRED_FLAGS.items()
       for what, tail in (("help", ["--help"]), ("bogus", [*flags, "--bogus"]))]])
def test_each_command_line_parses_as_under_the_full_parser(capsys, argv):
    # main builds the parser of argv[0]'s subcommand alone; its help and
    # errors are the full parser's, and its usage line names every subcommand
    assert list(REQUIRED_FLAGS) == list(cli._SUBCOMMANDS)
    got = exit_of(capsys, lambda: main(argv))
    assert got == exit_of(capsys, lambda: cli._build_parser().parse_args(argv))
    out, err, code = got
    assert code == (0 if "--help" in argv else 2)
    if argv[-1:] == ["--bogus"]:
        assert err.endswith("simra: error: unrecognized arguments: --bogus\n")
        assert "{" + ",".join(REQUIRED_FLAGS) + "}" in err.replace("\n", "")


def test_lambda_n_csv(tmp_path, capsys):
    path = tmp_path / "corners.csv"
    code, _ = run_cli(capsys, "lambda-n", "--n", "6", "--out", str(path))
    assert code == 0
    lines = read(path).splitlines()
    assert lines[0] == "n,lambda_n" and len(lines) == 6


def test_lambda_n_csv_golden_bytes(tmp_path, capsys):
    golden = os.path.join(os.path.dirname(__file__), "..", "bench", "golden.json")
    with open(golden, encoding="utf-8") as f:
        want = json.load(f)["artifacts"]["spectrum.lambda-n/lambda.csv"]["sha256"]
    path = tmp_path / "lambda.csv"
    code, _ = run_cli(capsys, "lambda-n", "--n", "10", "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


def test_frontier_csv(tmp_path, capsys):
    path = tmp_path / "frontier.csv"
    code, _ = run_cli(capsys, "frontier", "--n", "3", "--grid", "11",
                      "--out", str(path))
    assert code == 0
    lines = read(path).splitlines()
    assert lines[0] == "lambda_hat,lambda" and len(lines) == 12


@pytest.mark.parametrize("n", ["0", "1"])
def test_frontier_rejects_n_below_two(tmp_path, capsys, n):
    path = tmp_path / "f.csv"
    code, out = run_cli(capsys, "frontier", "--n", n, "--grid", "5", "--out", str(path))
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["type"], err["message"]) == ("DomainError", "the frontier needs n >= 2")
    assert not path.exists()


@pytest.mark.parametrize("value, text", [
    (0.1, "0.100000000000000"), (1 / 3, "0.333333333333333"), (-0.0, "0"),
    (2.0, "2"), (1e20, "1.00000000000000E+20"), (5e-324, "4.94065645841247E-324"),
    (math.inf, "inf"), (-math.inf, "-inf"), (math.nan, "nan"),
    (Fraction(2, 3), "0.666666666666667"), (7, "7"),
    (123456789012345678, "1.23456789012346E+17"),
])
def test_format_significant_rounds_the_exact_value(value, text):
    assert format_significant(value) == text


def test_format_significant_equals_the_fraction_quotient():
    rng = random.Random(8)
    values = ([rng.uniform(-1e3, 1e3) for _ in range(300)]
              + [rng.random() * 10.0 ** rng.randint(-300, 300) for _ in range(300)]
              + [Fraction(rng.randint(-10 ** 30, 10 ** 30), rng.randint(1, 10 ** 20))
                 for _ in range(100)])
    for digits in (6, 15):
        ctx = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_EVEN)
        for v in values:
            f = Fraction(v)
            want = str(ctx.divide(decimal.Decimal(f.numerator), decimal.Decimal(f.denominator)))
            assert format_significant(v, digits) == want, v


def test_schmidt_fuzz_deterministic_output(tmp_path, capsys):
    texts = []
    for name in ("f1.json", "f2.json"):
        path = tmp_path / name
        code, _ = run_cli(capsys, "schmidt-fuzz", "--dim", "4",
                          "--count", "50", "--seed", "1", "--out", str(path))
        assert code == 0
        texts.append(read(path))
    assert texts[0] == texts[1]
    rep = json.loads(texts[0])
    assert rep["dualityExact"] is True


@pytest.mark.parametrize("count", ["0", "-1"])
def test_schmidt_fuzz_rejects_a_count_below_one(tmp_path, capsys, count):
    path = tmp_path / "schmidt.json"
    code, out = run_cli(capsys, "schmidt-fuzz", "--count", count, "--out", str(path))
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["type"], err["message"]) == ("DomainError", "fuzz needs count >= 1")
    assert not path.exists()


def _schmidt_fuzz_sha256(tmp_path, capsys, seed: int) -> str:
    path = tmp_path / "schmidt.json"
    code, _ = run_cli(capsys, "schmidt-fuzz", "--dim", "5", "--count", "1000",
                      "--seed", str(seed), "--out", str(path))
    assert code == 0
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_schmidt_fuzz_golden_bytes(tmp_path, capsys):
    golden = os.path.join(os.path.dirname(__file__), "..", "bench", "golden.json")
    with open(golden, encoding="utf-8") as f:
        want = json.load(f)["artifacts"]["spectrum.schmidt-fuzz/schmidt.json"]["sha256"]
    assert _schmidt_fuzz_sha256(tmp_path, capsys, 1) == want


# the fuzz report at other seeds, which bench/golden.json does not pin
@pytest.mark.parametrize("seed, want", [
    (2, "4aa7cc1b2e72a593cb81203fc7a73e421fcc9fad09b171ea6317c8ea1e22f28f"),
    (3, "c343f82992fad26212d25576d06dd53f28aff65257c3f4133abc4fb9c32bad3c"),
    (7, "16ca01663e1a553aefc350ef9ced7543783c9c85440848e4f9c8de88a4680039"),
])
def test_schmidt_fuzz_golden_bytes_at_other_seeds(tmp_path, capsys, seed, want):
    assert _schmidt_fuzz_sha256(tmp_path, capsys, seed) == want


# the analyze workload of the benchmark: one enumeration, then each analysis
# reading its run directory; every artifact and manifest is pinned
ANALYZE_OPS = [
    ("enumerate", ["enumerate", "--preset", "cbrt2", "--xmax", "100000",
                   "--out", "run"], "minimal_points.csv"),
    ("exponents", ["exponents", "--run", "run"], "exponents.json"),
    ("construct-0", ["construct", "--run", "run", "--i0", "0"], "family_i0_0.json"),
    ("construct-1", ["construct", "--run", "run", "--i0", "1"], "family_i0_1.json"),
    ("transfer", ["transfer", "--run", "run", "--alpha", "2/5", "--beta", "3/5"],
     "transfer.json"),
    ("extremal", ["extremal", "--run", "run", "--alpha", "1", "--beta", "1",
                  "--eps", "0", "--C", "1"], "extremal.json"),
    ("plot", ["plot", "--run", "run", "--what", "envelope"], "envelope.svg"),
]


def test_analyze_golden_bytes(tmp_path, capsys, monkeypatch):
    golden = os.path.join(os.path.dirname(__file__), "..", "bench", "golden.json")
    with open(golden, encoding="utf-8") as f:
        want = json.load(f)["artifacts"]
    monkeypatch.chdir(tmp_path)
    for label, argv, artifact in ANALYZE_OPS:
        code, out = run_cli(capsys, *argv)
        assert code == 0, out
        for name in (artifact, "manifest.json"):
            key = f"analyze.{label}/run/{name}"
            got = hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()
            assert got == want[key]["sha256"], key


@pytest.fixture(scope="module")
def cubic_run_1e4(tmp_path_factory):
    run = tmp_path_factory.mktemp("cubic") / "run"
    assert main(["enumerate", "--preset", "cbrt2", "--xmax", "10000",
                 "--out", str(run)]) == 0
    return run


@pytest.mark.parametrize("argv", [
    ["exponents"],
    ["transfer", "--alpha", "2/5", "--beta", "3/5"],
    ["extremal", "--alpha", "1", "--beta", "1", "--eps", "0", "--C", "1"],
], ids=lambda argv: argv[0])
def test_an_analysis_takes_each_log_once(cubic_run_1e4, monkeypatch, capsys, argv):
    # psi, phi and theta at one X, the closed forms, and each norm share a log
    args = []
    real = ivcalc._log

    def counted(q):
        args.append(q)
        return real(q)

    monkeypatch.setattr(ivcalc, "_log", counted)
    assert run_cli(capsys, *argv, "--run", str(cubic_run_1e4))[0] == 0
    assert len(args) > 20 and len(args) == len(set(args))


# what each command prints: a run command one line, a standalone command
# without --out the bytes its --out file gets
RUN_STDOUT = [
    (["enumerate", "--preset", "cbrt2", "--xmax", "10000", "--out", "run"],
     "11 minimal points -> run/minimal_points.csv\n"),
    (["verify", "--run", "run"], "11 minimal points certified up to X = 10000\n"),
    (["exponents", "--run", "run"],
     "lambda_est 0.988167489174753  lambda_hat_est 0.452594080723817\n"),
    (["construct", "--run", "run", "--i0", "0"],
     "family at i0=0: indices [0, 2], identities pass\n"),
    (["transfer", "--run", "run", "--alpha", "2/5", "--beta", "3/5"],
     "sandwich holds on every envelope step up to X = 10000; empirical floor of "
     "the top product 3.94800621394739\n"),
    (["extremal", "--run", "run", "--alpha", "1", "--beta", "1", "--eps", "0",
      "--C", "1"], "conditions FAIL (threshold ok: True)\n"),
    (["plot", "--run", "run", "--what", "envelope"], "wrote run/envelope.svg\n"),
    (["plot", "--run", "run", "--what", "frontier"], "wrote run/frontier.svg\n"),
    (["lambda-n", "--n", "2"], "0.618033988749895\n"),
]


def test_every_subcommand_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, want in RUN_STDOUT:
        assert run_cli(capsys, *argv) == (0, want), argv
    for argv in (["frontier", "--n", "3", "--grid", "11"],
                 ["schmidt-fuzz", "--dim", "4", "--count", "50"],
                 ["liouville", "--minpoly=-2,0,1", "--interval", "1,2",
                  "--extra", "1.7320508075688772935", "--xmax", "500"]):
        code, out = run_cli(capsys, *argv)
        assert code == 0 and out, argv
        assert run_cli(capsys, *argv, "--out", "file.txt") == (0, ""), argv
        assert read(tmp_path / "file.txt") == out, argv


def test_liouville_subcommand(tmp_path, capsys):
    path = tmp_path / "liou.json"
    code, _ = run_cli(capsys, "liouville", "--minpoly=-2,0,1",
                      "--interval", "1,2", "--extra", "1.7320508075688772935",
                      "--xmax", "500", "--out", str(path))
    assert code == 0
    rep = json.loads(read(path))
    assert rep["thetaDegree"] == 2
    assert rep["entries"] >= 5


@pytest.mark.parametrize("minpoly, xmax, want", [
    ("-2,0,1", "10000", "9d10de6aa1e9461c28d3d764a15d001be6bb17a5a4222ebfa04a8d6e519bd928"),
    ("-2,0,0,1", "2000", "cb3e34ed7a8414404621051be581b7adcf0fc448f705923470017d80db638030"),
], ids=["sqrt2", "cbrt2"])
def test_liouville_report_bytes(tmp_path, capsys, minpoly, xmax, want):
    # no bench golden covers this report, which runs through an algebraic
    # theta and lambda_n; the extra coordinate is the preset's 60-digit sqrt(3)
    path = tmp_path / "liou.json"
    code, _ = run_cli(capsys, "liouville", f"--minpoly={minpoly}", "--interval", "1,2",
                      "--extra", presets._SQRT3_60["value"], "--xmax", xmax,
                      "--out", str(path))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


@pytest.mark.parametrize("interval", ["1,2,99", "1", "1,", ",2", "1,2,"])
def test_liouville_rejects_an_interval_without_exactly_two_ends(tmp_path, capsys,
                                                                interval):
    path = tmp_path / "liou.json"
    code, out = run_cli(capsys, "liouville", "--minpoly=-2,0,1",
                        "--interval", interval, "--extra", "1.7320508075688772935",
                        "--xmax", "500", "--out", str(path))
    assert code == 1
    err = json.loads(out)["error"]
    assert (err["type"], err["message"]) == ("SchemaError", "--interval must be 'lo,hi'")
    assert not path.exists()


def test_plot_envelope(cubic_run, capsys):
    code, _ = run_cli(capsys, "plot", "--run", str(cubic_run),
                      "--what", "envelope")
    assert code == 0
    svg = read(cubic_run / "envelope.svg")
    assert svg.startswith("<svg") and "polyline" in svg
    manifest = json.loads(read(cubic_run / "manifest.json"))
    assert "envelope.svg" in manifest["files"]


def test_plot_frontier(cubic_run, capsys):
    code, _ = run_cli(capsys, "plot", "--run", str(cubic_run),
                      "--what", "frontier")
    assert code == 0
    assert (cubic_run / "frontier.svg").exists()


def test_config_file_round_trip(tmp_path, capsys):
    cfg = tmp_path / "target.json"
    cfg.write_text(json.dumps({
        "n": 1,
        "coords": [{"type": "rational", "value": "1"},
                   {"type": "algebraic", "minpoly": [-2, 0, 1],
                    "interval": ["1", "2"]}],
        "S": {"type": "congruence", "modulus": 2, "residues": {"0": [0]}},
    }))
    run = tmp_path / "run"
    code, _ = run_cli(capsys, "enumerate", "--config", str(cfg),
                      "--xmax", "30", "--out", str(run))
    assert code == 0
    lines = read(run / "minimal_points.csv").splitlines()
    assert len(lines) == 6  # (0,1),(2,2),(2,3),(10,14),(12,17)
    assert lines[2].startswith("1,2,2,8")


def test_a_rational_algebraic_coordinate_enumerates_as_the_rational(tmp_path, capsys):
    # the root of (3x - 1)(x^2 - 2) in [0, 1] is 1/3: both targets are
    # rationally dependent, and both stop on the same tie
    sqrt2 = {"type": "algebraic", "minpoly": [-2, 0, 1], "interval": ["1", "2"]}
    outs = []
    for third in ({"type": "algebraic", "minpoly": [2, -6, -1, 3], "interval": ["0", "1"]},
                  {"type": "rational", "value": "1/3"}):
        cfg = tmp_path / "target.json"
        cfg.write_text(json.dumps({
            "n": 2, "coords": [{"type": "rational", "value": "1"}, sqrt2, third]}))
        code, out = run_cli(capsys, "enumerate", "--config", str(cfg),
                            "--xmax", "100", "--out", str(tmp_path / "run"))
        assert code == 1
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["error"]["type"] == "TieUnresolved"


def test_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "simra.cli", "lambda-n", "--n", "3"],
        capture_output=True, text=True, timeout=120)
    assert out.returncode == 0
    assert out.stdout.strip().startswith("0.405267856")


def test_package_runs_as_a_module():
    out = subprocess.run(
        [sys.executable, "-m", "simra", "lambda-n", "--n", "2"],
        capture_output=True, text=True, timeout=120, env=src_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0.618033988749895"


# ---------------------------------------------------------------------------
# runs are read back from their CSV, and `verify` re-certifies them

SUBLATTICE_CONFIG = {
    "n": 1,
    "coords": [{"type": "rational", "value": "1"},
               {"type": "algebraic", "minpoly": [-2, 0, 1], "interval": ["1", "2"]}],
    "S": {"type": "sublattice", "basis": [[2, 1], [0, 3]]},
}


def rehash(run, **manifest_fields):
    """Record the CSV's current hash (and any given fields) in the manifest."""
    path = run / "manifest.json"
    manifest = json.loads(read(path))
    data = (run / "minimal_points.csv").read_bytes()
    manifest["files"]["minimal_points.csv"] = "sha256:" + hashlib.sha256(data).hexdigest()
    manifest.update(manifest_fields)
    path.write_text(json.dumps(manifest))


def edit_rows(run, edit, **manifest_fields):
    """Rewrite the CSV's data rows through edit(rows) and re-hash it."""
    path = run / "minimal_points.csv"
    lines = read(path).splitlines()
    rows = [line.split(",") for line in lines[1:]]
    rows = edit(rows)
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in rows]) + "\n")
    rehash(run, **manifest_fields)


def test_run_subcommands_do_not_enumerate(tmp_path, capsys, monkeypatch):
    run = tmp_path / "cubic"
    assert main(["enumerate", "--preset", "cbrt2", "--xmax", "10000",
                 "--out", str(run)]) == 0

    def no_enumeration(*args, **kwargs):
        raise AssertionError("a --run subcommand enumerated")

    monkeypatch.setattr("simra.minpoints.enumerate_minimal_points", no_enumeration)
    for argv in (["exponents"], ["construct", "--i0", "0"],
                 ["transfer", "--alpha", "2/5", "--beta", "3/5"],
                 ["extremal", "--alpha", "1", "--beta", "1", "--eps", "0", "--C", "1"],
                 ["plot", "--what", "envelope"]):
        code, out = run_cli(capsys, argv[0], "--run", str(run), *argv[1:])
        assert code == 0, (argv, out)


@pytest.mark.parametrize("source, xmax", [
    (["--preset", "sqrt2"], "1000"),
    (["--preset", "cbrt2"], "500"),
    (["--preset", "sqrt2-even-x0"], "1000"),
    (["--config", "sublattice.json"], "150"),
])
def test_verify_subcommand(tmp_path, capsys, monkeypatch, source, xmax):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sublattice.json").write_text(json.dumps(SUBLATTICE_CONFIG))
    assert run_cli(capsys, "enumerate", *source, "--xmax", xmax, "--out", "run")[0] == 0
    code, out = run_cli(capsys, "verify", "--run", "run")
    assert code == 0, out
    rep = json.loads(read(tmp_path / "run" / "verify.json"))
    manifest = json.loads(read(tmp_path / "run" / "manifest.json"))
    assert rep["minimality"]["upToX"] == xmax
    assert rep["entries"] == manifest["entries"]
    assert rep["properties"]["pairs"] == manifest["entries"] - 1
    assert rep["minimality"]["candidatesBelowLastEntry"] > 0
    assert "verify.json" in manifest["files"]


def test_verify_rejects_truncated_run(tmp_path, capsys):
    run = tmp_path / "run"
    assert run_cli(capsys, "enumerate", "--preset", "sqrt2", "--xmax", "1000",
                   "--out", str(run))[0] == 0
    edit_rows(run, lambda rows: rows[:-1])
    # the manifest still counts the deleted record
    code, out = run_cli(capsys, "verify", "--run", str(run))
    assert code == 1
    assert json.loads(out)["error"]["type"] == "SchemaError"
    # with the count made consistent too, the run loads; only verify can tell
    rehash(run, entries=8)
    assert run_cli(capsys, "plot", "--run", str(run), "--what", "envelope")[0] == 0
    code, out = run_cli(capsys, "verify", "--run", str(run))
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "PropertyViolated"
    assert "(408, 577)" in err["message"]
    assert not (run / "verify.json").exists()


def swap_rows(rows):
    rows[3], rows[4] = rows[4], rows[3]
    rows[3][0], rows[4][0] = "3", "4"
    return rows


def set_fields(row, *values):
    """Overwrite fields 1, 2, ... of data row `row` (field 0 is i)."""
    def edit(rows):
        rows[row][1:1 + len(values)] = values
        return rows
    return edit


@pytest.mark.parametrize("edit, fields, message", [
    (lambda rows: [["7"] + r[1:] if r[0] == "2" else r for r in rows], {},
     "i = 7, expected 2"),
    (lambda rows: [[r[0], str(-int(r[1])), str(-int(r[2]))] + r[3:] if r[0] == "2" else r
                   for r in rows], {}, "not a canonical nonzero point"),
    (set_fields(0, "0", "0"), {}, "not a canonical nonzero point"),
    (set_fields(2, "2", "3", "14"), {}, "is not the squared norm"),
    (swap_rows, {}, "does not exceed the previous"),
    (lambda rows: rows, {"xMax": "100"}, "exceeds 10000"),
    (lambda rows: rows, {"entries": 8}, "has 9 rows"),
])
def test_run_csv_rows_validated(tmp_path, capsys, edit, fields, message):
    run = tmp_path / "run"
    assert run_cli(capsys, "enumerate", "--preset", "sqrt2", "--xmax", "1000",
                   "--out", str(run))[0] == 0
    edit_rows(run, edit, **fields)
    code, out = run_cli(capsys, "exponents", "--run", str(run))
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "SchemaError"
    assert message in err["message"]
    assert "minimal_points.csv" in err["message"]


def test_run_csv_nonmember_rejected(tmp_path, capsys):
    run = tmp_path / "run"
    assert run_cli(capsys, "enumerate", "--preset", "sqrt2-even-x0", "--xmax", "30",
                   "--out", str(run))[0] == 0
    # (2, 2) -> (1, 1): canonical, correctly normed, but x_0 is odd
    edit_rows(run, set_fields(1, "1", "1", "2"))
    code, out = run_cli(capsys, "exponents", "--run", str(run))
    assert code == 1
    err = json.loads(out)["error"]
    assert err["type"] == "SchemaError"
    assert "line 3" in err["message"] and "not a member" in err["message"]
