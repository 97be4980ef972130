"""Command-line interface: exit codes, output formats, schema conformance."""

import errno
import json
import math
import os
import types
import xml.etree.ElementTree as ET
from importlib import resources
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sparse_noma import checks, cli, montecarlo
from sparse_noma.checks import run_checks
from sparse_noma.cli import CSV_HEADER, build_parser, main
from sparse_noma.errors import ConfigurationError, DomainError, NumericalError
from sparse_noma.units import db_to_linear, linear_to_db


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out.startswith("{"):
        # every JSON output is json's own indent=2 text of what it holds
        assert captured.out == json.dumps(json.loads(captured.out), indent=2) + "\n"
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def schema():
    text = resources.files("sparse_noma").joinpath("schema/output_v1.json").read_text()
    return json.loads(text)


def parse_csv_rows(out):
    lines = [l for l in out.splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestParams:
    def test_json_values(self, capsys, schema):
        code, out, _ = run(capsys, "params", "--d", "3", "--beta-d", "2")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert payload["kind"] == "params"
        assert payload["alpha"] == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert payload["lambda_minus"] == pytest.approx(1.0 - 2.0 * math.sqrt(2.0) / 3.0)
        assert payload["point_mass_at_zero"] == pytest.approx(1.0 / 3.0)

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "params", "--d", "2", "--beta-d", "2", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# schema=v1"
        assert lines[1] == "key,value"
        table = dict(line.split(",") for line in lines[2:])
        assert float(table["lambda_plus"]) == pytest.approx(2.0)
        assert float(table["support_gap"]) == pytest.approx(0.0)

    def test_rejects_degree_one(self, capsys):
        code, _, err = run(capsys, "params", "--d", "1", "--beta-d", "2")
        assert code == 2
        assert err.startswith("error:")
        assert "at least 2" in err


class TestDensity:
    def test_csv_layout(self, capsys):
        code, out, _ = run(capsys, "density", "--d", "3", "--beta-d", "2", "--points", "16")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "# schema=v1"
        assert lines[1].startswith("# point_mass_at_zero=")
        assert lines[2] == "lambda,rho"
        rows = [tuple(map(float, l.split(","))) for l in lines[3:]]
        assert len(rows) == 16
        assert all(rho >= 0.0 for _, rho in rows)

    def test_arcsine_symmetry(self, capsys):
        # midpoint grid on [0, 2] mirrors exactly for the contact pair
        code, out, _ = run(capsys, "density", "--d", "2", "--beta-d", "2",
                           "--points", "8", "--format", "json")
        assert code == 0
        rho = [p[1] for p in json.loads(out)["points"]]
        for a, b in zip(rho, reversed(rho)):
            assert a == pytest.approx(b, rel=1e-12)

    def test_json_schema(self, capsys, schema):
        code, out, _ = run(capsys, "density", "--d", "3", "--beta-d", "6",
                           "--points", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert len(payload["points"]) == 5

    def test_rejects_zero_points(self, capsys):
        code, _, err = run(capsys, "density", "--d", "3", "--beta-d", "2", "--points", "0")
        assert code == 2
        assert "--points" in err


class TestCapacity:
    def test_contact_pair_values(self, capsys):
        code, out, _ = run(capsys, "capacity", "--d", "2", "--beta-d", "2", "--snr-db", "10")
        assert code == 0
        assert out.splitlines()[1] == CSV_HEADER
        rates = {r["scheme"]: float(r["rate"]) for r in parse_csv_rows(out)}
        assert rates["sparse_opt"] == pytest.approx(2.9618618157845424, rel=1e-12)
        assert rates["sparse_lmmse"] == pytest.approx(2.1961587113893803, rel=1e-12)
        assert rates["cover_wyner"] == pytest.approx(math.log2(11.0), rel=1e-12)
        assert "orthogonal" in rates

    def test_orthogonal_omitted_when_overloaded(self, capsys, schema):
        code, out, _ = run(capsys, "capacity", "--d", "3", "--beta-d", "6",
                           "--snr-db", "10", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert "orthogonal" not in {r["scheme"] for r in payload["rows"]}


class TestSweep:
    ARGS = ("sweep", "--d", "2", "--ebn0-db", "10",
            "--beta-min", "0.5", "--beta-max", "3", "--beta-steps", "11")

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, *self.ARGS)
        code2, out2, _ = run(capsys, *self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[0] == "# schema=v1"

    def test_contains_lattice_and_envelope(self, capsys):
        _, out, _ = run(capsys, *self.ARGS)
        rows = parse_csv_rows(out)
        schemes = {r["scheme"] for r in rows}
        assert {"sparse_opt", "sparse_lmmse", "timeshare_envelope",
                "rs_cdma_opt", "cover_wyner"} <= schemes
        lattice = [r for r in rows if r["scheme"] == "sparse_opt"]
        assert {r["beta_d"] for r in lattice} == {"2", "3", "4", "5", "6"}

    def test_json_schema(self, capsys, schema):
        _, out, _ = run(capsys, *self.ARGS, "--format", "json")
        jsonschema.validate(json.loads(out), schema)

    def test_svg_parses(self, capsys):
        code, out, _ = run(capsys, *self.ARGS, "--format", "svg")
        assert code == 0
        root = ET.fromstring(out)
        assert root.tag.endswith("svg")

    def test_svg_with_every_rate_zero(self, capsys):
        # at Eb/N0 <= ln 2 (-1.59 dB) no scheme carries a positive rate, so the y range is empty
        code, out, err = run(capsys, "sweep", "--d", "2", "--ebn0-db", "-5",
                             "--beta-min", "1", "--beta-max", "2", "--format", "svg")
        assert (code, err) == (0, "")
        polylines = [e for e in ET.fromstring(out).iter() if e.tag.endswith("polyline")]
        assert polylines

    def test_svg_of_one_load_widens_the_load_axis(self, capsys):
        # every point sits at beta = 1, so the axis runs over [1, 2] instead of an empty range
        code, out, err = run(capsys, "sweep", "--d", "3", "--ebn0-db", "10",
                             "--beta-min", "1", "--beta-max", "1", "--beta-steps", "1", "--format", "svg")
        assert (code, err) == (0, "")
        root = ET.fromstring(out)
        ticks = [e.text for e in root.iter() if e.tag.endswith("text") and e.get("y") == "466"]
        assert ticks == ["1", "1.2", "1.4", "1.6", "1.8", "2"]
        assert {e.get("cx") for e in root.iter() if e.tag.endswith("circle")} == {"72.0"}

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_rows_carry_the_ebn0_flag(self, capsys, fmt):
        # 7.2 dB does not survive a trip to linear and back (it returns 7.199999999999999)
        code, out, err = run(capsys, "sweep", "--d", "3", "--ebn0-db", "7.2", "--beta-min", "1",
                             "--beta-max", "1", "--beta-steps", "1", "--format", fmt)
        assert (code, err) == (0, "")
        if fmt == "json":
            payload = json.loads(out)
            cells = [payload["ebn0_db"], *(r["ebn0_db"] for r in payload["rows"])]
            assert len(cells) > 1 and all(repr(c) == "7.2" for c in cells)
        else:
            rows = parse_csv_rows(out)
            assert rows and all(r["ebn0_db"] == "7.2" for r in rows)

    def test_zero_load_steps_exit_2(self, capsys):
        code, out, err = run(capsys, "sweep", "--d", "2", "--ebn0-db", "10",
                             "--beta-min", "1", "--beta-max", "2", "--beta-steps", "0")
        assert (code, out) == (2, "")
        assert err == "error: --beta-steps must be >= 1, got 0\n"

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, *self.ARGS, "--out", str(target))
        assert code == 0
        assert out == ""
        text = target.read_text()
        assert text.startswith("# schema=v1")
        assert CSV_HEADER in text

    def test_rejects_inverted_range(self, capsys):
        code, _, err = run(capsys, "sweep", "--d", "2", "--ebn0-db", "10",
                           "--beta-min", "2", "--beta-max", "1")
        assert code == 2
        assert "beta-max" in err

    @pytest.mark.parametrize("ends", [("nan", "1"), ("0.5", "inf")])
    def test_non_finite_load_exits_2(self, capsys, ends):
        code, out, err = run(capsys, "sweep", "--d", "2", "--ebn0-db", "10",
                             "--beta-min", ends[0], "--beta-max", ends[1])
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "must be finite" in err

    def test_infinite_ebn0_is_not_called_non_positive(self, capsys):
        code, out, err = run(capsys, "sweep", "--d", "3", "--ebn0-db=inf",
                             "--beta-min", "0.5", "--beta-max", "1")
        assert (code, out) == (2, "")
        assert err == "error: ebn0 must be finite and positive (linear), got inf\n"

    @pytest.mark.parametrize("d", ["2", "3", "10"])
    def test_high_ebn0_solves_every_point(self, capsys, d):
        # at Eb/N0 = 60 dB the overloaded sparse-optimum fixed points sit near
        # snr 1e7; the 1e-10 residual check needs the closed form that accurate
        code, out, err = run(capsys, "sweep", "--d", d, "--ebn0-db", "60",
                             "--beta-min", "0.1", "--beta-max", "3")
        assert code == 0, err
        assert "sparse_opt" in out

    def test_rates_past_500_bits_solve(self, capsys):
        code, out, err = run(capsys, "sweep", "--d", "3", "--ebn0-db", "1520",
                             "--beta-min", "1", "--beta-max", "1", "--beta-steps", "1")
        assert (code, err) == (0, "")
        rates = {r["scheme"]: float(r["rate"]) for r in parse_csv_rows(out)}
        assert 500.0 < rates["sparse_opt"] < 600.0


class TestMonteCarlo:
    ARGS = ("montecarlo", "--d", "2", "--beta-d", "2", "--snr-db", "10",
            "--n", "120", "--trials", "5", "--seed", "3")

    def test_json_schema_and_consistency(self, capsys, schema):
        code, out, _ = run(capsys, *self.ARGS)
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        assert set(payload["receivers"]) == {"optimum", "lmmse"}
        for r in payload["receivers"].values():
            assert r["abs_dev"] == pytest.approx(abs(r["estimate"] - r["closed_form"]))
        # below the resource floor the KS stage is informational only
        assert payload["ks"]["threshold"] is None
        assert payload["ks"]["pass"] is None
        assert payload["pass"] == all(r["pass"] for r in payload["receivers"].values())
        assert code == (0 if payload["pass"] else 1)

    def test_deterministic_given_seed(self, capsys):
        _, out1, _ = run(capsys, *self.ARGS)
        _, out2, _ = run(capsys, *self.ARGS)
        assert out1 == out2
        _, out3, _ = run(capsys, *self.ARGS[:-1], "4")
        assert out3 != out1

    def test_negative_seed_is_a_usage_error(self, capsys):
        code, out, err = run(capsys, "montecarlo", "--d", "3", "--beta-d", "6", "--snr-db", "10",
                             "--n", "60", "--trials", "2", "--seed", "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error: seed must be >= 0")

    def test_receiver_selection(self, capsys):
        _, out, _ = run(capsys, *self.ARGS, "--receiver", "opt", "--no-ks")
        payload = json.loads(out)
        assert set(payload["receivers"]) == {"optimum"}
        assert payload["ks"] is None

    def test_csv_routes(self, capsys):
        _, out, _ = run(capsys, *self.ARGS, "--format", "csv")
        assert any(l.startswith("# ks_distance=") for l in out.splitlines())
        rows = parse_csv_rows(out)
        routes = {(r["scheme"], r["route"]) for r in rows}
        assert ("sparse_opt", "closed_form") in routes
        assert ("sparse_opt", "monte_carlo") in routes
        mc = next(r for r in rows if r["route"] == "monte_carlo")
        assert float(mc["stderr"]) >= 0.0

    def test_zero_snr_exact_match_passes(self, capsys):
        # closed form, estimate and tolerance are all exactly 0, for both receivers
        for d, bd, n in (("2", "2", "120"), ("3", "6", "60")):
            code, out, err = run(capsys, "montecarlo", "--d", d, "--beta-d", bd, "--snr-db=-inf",
                                 "--n", n, "--trials", "2", "--no-ks")
            assert (code, err) == (0, "")
            receivers = json.loads(out)["receivers"]
            assert set(receivers) == {"optimum", "lmmse"}
            for r in receivers.values():
                assert (r["closed_form"], r["estimate"], r["tolerance"]) == (0.0, 0.0, 0.0)

    def test_zero_trials_exit_2(self, capsys):
        code, out, err = run(capsys, "montecarlo", "--d", "3", "--beta-d", "6", "--snr-db", "10",
                             "--n", "60", "--trials", "0", "--no-ks")
        assert (code, out) == (2, "")
        assert err == "error: trials must be >= 1\n"

    @pytest.mark.parametrize("receiver", ["opt", "lmmse"])
    def test_snr_below_the_estimators_bound_is_a_domain_error(self, capsys, receiver):
        # at -160 dB the optimum estimate rounded to 0.0 and LMMSE was 11% off
        code, out, err = run(capsys, "montecarlo", "--d", "3", "--beta-d", "6", "--snr-db=-160",
                             "--n", "300", "--trials", "4", "--no-ks", "--receiver", receiver)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "at least 1e-09" in err

    def test_ks_gated_at_acceptance_scale(self, capsys, schema):
        code, out, _ = run(capsys, "montecarlo", "--d", "2", "--beta-d", "2", "--snr-db", "10",
                           "--n", "2000", "--receiver", "lmmse", "--trials", "2")
        payload = json.loads(out)
        jsonschema.validate(payload, schema)
        ks = payload["ks"]
        assert ks["n_resources"] == 2000
        assert ks["threshold"] == montecarlo.KS_THRESHOLD
        assert ks["pass"] == (ks["distance"] < ks["threshold"])
        assert code == (0 if payload["pass"] else 1)


FRAMED = [
    (("params", "--d", "3", "--beta-d", "2"), ("json", "csv")),
    (("density", "--d", "3", "--beta-d", "2", "--points", "5"), ("csv", "json")),
    (("capacity", "--d", "3", "--beta-d", "6", "--snr-db", "10"), ("csv", "json")),
    (("sweep", "--d", "2", "--ebn0-db", "10", "--beta-min", "1", "--beta-max", "3",
      "--beta-steps", "5"), ("csv", "json", "svg")),
    (("montecarlo", "--d", "3", "--beta-d", "2", "--snr-db", "10", "--n", "120",
      "--trials", "2"), ("json", "csv")),
]


@pytest.mark.parametrize(
    "argv,fmt", [(argv, fmt) for argv, formats in FRAMED for fmt in formats],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_output_framing(capsys, tmp_path, argv, fmt):
    code, out, err = run(capsys, *argv, "--format", fmt)
    target = tmp_path / "out"
    assert run(capsys, *argv, "--format", fmt, "--out", str(target)) == (code, "", err)
    assert target.read_bytes() == out.encode()
    if fmt == "json":
        payload = json.loads(out)
        assert list(payload)[:2] == ["kind", "schema"]
        assert (payload["kind"], payload["schema"]) == (argv[0], "v1")
    elif fmt == "csv":
        assert out.startswith("# schema=v1\n")


@pytest.mark.parametrize("argv", [
    ("params", "--d", "3", "--beta-d", "6"),
    ("validate", "--check", "rate_solver"),
], ids=lambda argv: argv[0])
def test_unwritable_out_is_a_usage_error(capsys, tmp_path, argv):
    target = tmp_path / "missing" / "x.out"
    code, out, err = run(capsys, *argv, "--out", str(target))
    assert (code, out) == (2, "")
    assert err == f"error: cannot write --out {target}: {os.strerror(errno.ENOENT)}\n"
    assert not target.parent.exists()


@pytest.mark.parametrize("argv", [
    ("capacity", "--d", "3", "--beta-d", "2", "--snr-db", "4000"),
    ("sweep", "--d", "3", "--ebn0-db", "4000", "--beta-min", "1", "--beta-max", "2"),
    ("montecarlo", "--d", "3", "--beta-d", "2", "--snr-db", "4000", "--n", "120", "--trials", "2"),
], ids=lambda argv: argv[0])
def test_db_past_the_largest_float_is_a_domain_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "4000.0 dB" in err
    assert "Traceback" not in err


class TestValidate:
    def test_single_check(self, capsys):
        code, out, _ = run(capsys, "validate", "--check", "rate_solver")
        assert code == 0
        assert "PASS rate_solver" in out
        assert "1 passed, 0 failed, 0 skipped" in out

    def test_unknown_check_name(self, capsys):
        code, _, err = run(capsys, "validate", "--check", "no_such_check")
        assert code == 2
        assert "unknown check" in err

    def test_library_rejects_unknown_check_name(self):
        # run_checks itself refuses a name, so a misspelt check is not silently skipped
        with pytest.raises(ConfigurationError) as info:
            run_checks(names=("typo", "rate_solver"))
        assert str(info.value).startswith("unknown check name(s) ['typo']; available: ['arcsine_point', ")

    def test_detects_injected_fault(self, capsys, monkeypatch):
        # a wrong closed form must turn the named check red, not crash it
        monkeypatch.setattr(
            "sparse_noma.checks.capacity_lmmse",
            lambda cfg: types.SimpleNamespace(spectral_efficiency=1.0),
        )
        code, out, _ = run(capsys, "validate", "--check", "arcsine_point")
        assert code == 1
        assert "FAIL arcsine_point" in out
        assert "0 passed, 1 failed, 0 skipped" in out


class TestTimeBudgets:
    """A check whose time gate fails says so in its detail, and a pass reads as it did before the wording."""

    @staticmethod
    def clock(monkeypatch, seconds):
        # checks reads time.perf_counter at a check's start and end; each reading here is `seconds` later
        now = iter(range(0, 100 * seconds, seconds))
        monkeypatch.setattr(checks, "time", types.SimpleNamespace(perf_counter=lambda: float(next(now))))

    @staticmethod
    def agreements(monkeypatch, passed):
        record = types.SimpleNamespace(passed=passed, abs_dev=0.0125, tolerance=0.25)
        monkeypatch.setattr(checks, "compare_to_closed_form", lambda receiver, cfg, seed: record)
        return "; ".join(f"({d},{bd},{r}) dev=1.25e-02 tol=2.50e-01" for d, bd in checks.MC_CONFIGS
                         for r in ("opt", "lmmse"))

    @pytest.mark.parametrize("seconds, ok, tail", [(9, True, " in 9.00s"), (12, False, " in 12.00s, over the 10 s budget")])
    def test_oracle_agreement(self, monkeypatch, seconds, ok, tail):
        self.clock(monkeypatch, seconds)
        passed, detail = checks.check_oracle_agreement()
        assert passed is ok
        assert detail.startswith("max |closed-oracle| = ") and detail.endswith(f" over 275 cells{tail}")

    @pytest.mark.parametrize("seconds, passed, ok, tail", [
        (299, True, True, "; 299s"),
        (300, True, False, "; 300s, over the 300 s budget"),
        (12, False, False, "; 12s"),  # a numeric miss names no budget
        (301, False, False, "; 301s, over the 300 s budget"),
    ])
    def test_mc_agreement(self, monkeypatch, seconds, passed, ok, tail):
        self.clock(monkeypatch, seconds)
        lines = self.agreements(monkeypatch, passed)
        assert checks.check_mc_agreement() == (ok, lines + tail)


class TestArgparseBehavior:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "sparse-noma" in capsys.readouterr().out

    def test_missing_required_argument(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["params", "--d", "3"])
        assert exc.value.code == 2


class TestParserReuse:
    """Several `main` calls in one process share one parser and no parse state."""

    CAPACITY = ("capacity", "--d", "3", "--beta-d", "6", "--snr-db", "10")

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_check_list_does_not_carry_over(self, capsys):
        for name, other in (("rate_solver", "mc_generation"), ("mc_generation", "rate_solver")):
            code, out, _ = run(capsys, "validate", "--check", name)
            assert code == 0
            assert f"PASS {name}" in out
            assert other not in out
            assert "1 passed, 0 failed, 0 skipped" in out

    def test_usage_error_then_valid_call(self, capsys, run_probe):
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--d", "3", "--snr-db", "ten"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, *self.CAPACITY)
        # runpy does what `python -m sparse_noma` does, with sys.argv[1:] = CAPACITY
        alone = run_probe("import runpy; runpy.run_module('sparse_noma', run_name='__main__')", *self.CAPACITY)
        assert code == 0
        assert out == alone

    @pytest.mark.parametrize(
        "argv",
        [
            CAPACITY,
            ("sweep", "--d", "2", "--ebn0-db", "10", "--beta-min", "1", "--beta-max", "3",
             "--beta-steps", "5", "--format", "json"),
            ("params", "--d", "3", "--beta-d", "2"),
        ],
    )
    def test_second_call_same_bytes(self, capsys, argv):
        first = run(capsys, *argv)
        assert first[0] == 0
        assert run(capsys, *argv) == first


class TestImports:
    SWEEP = ("sweep", "--d", "2", "--ebn0-db", "10", "--beta-min", "1", "--beta-max", "3",
             "--beta-steps", "5")
    CLOSED_FORM_CALLS = [
        [*argv, "--format", fmt]
        for argv, formats in (
            (("params", "--d", "3", "--beta-d", "2"), ("json", "csv")),
            (("density", "--d", "3", "--beta-d", "6", "--points", "20"), ("csv", "json")),
            (TestParserReuse.CAPACITY, ("csv", "json")),
            (SWEEP, ("csv", "json", "svg")),
        )
        for fmt in formats
    ]

    def test_closed_form_commands_load_no_scipy(self, run_probe):
        probe = (
            "import contextlib, io, sys; from sparse_noma.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    codes = [main(argv) for argv in {self.CLOSED_FORM_CALLS!r}]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert run_probe(probe).strip() == f"{[0] * len(self.CLOSED_FORM_CALLS)} []"

    def test_validate_quick_loads_no_scipy(self, run_probe):
        probe = (
            "import contextlib, io, sys; from sparse_noma.cli import main\n"
            "out = io.StringIO()\n"
            "with contextlib.redirect_stdout(out):\n"
            "    code = main(['validate', '--quick'])\n"
            "print(code, out.getvalue().splitlines()[-1], "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        assert run_probe(probe).strip() == "0 12 passed, 0 failed, 2 skipped []"


def test_numerical_error_exits_1(capsys, monkeypatch):
    def fail(config):
        raise NumericalError("quadrature did not converge")

    monkeypatch.setattr(cli, "spectral_density", fail)
    code, out, err = run(capsys, "params", "--d", "3", "--beta-d", "2")
    assert (code, out) == (1, "")
    assert err == "numerical failure: quadrature did not converge\n"


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1, -0.0, 5e-324, math.nan, math.inf, -math.inf]),
    st.floats(),
    st.text(),  # non-ASCII included
)
KEYS = st.one_of(st.text(), st.integers(), st.floats(), st.booleans(), st.none())
PAYLOADS = st.one_of(
    st.recursive(
        SCALARS,
        lambda inner: st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(KEYS, inner, max_size=4),
        max_leaves=24,
    ),
    # tables: lists of records that hold only scalars
    st.lists(st.dictionaries(st.text(max_size=3), SCALARS, min_size=1, max_size=4), min_size=1, max_size=4),
    st.lists(st.lists(SCALARS, min_size=1, max_size=3) | st.tuples(SCALARS), min_size=1, max_size=4),
)


class TestJsonWriter:
    """`cli._json` writes exactly what ``json.dumps(value, indent=2)`` writes, and a newline."""

    @pytest.fixture(scope="class", params=["c", "python"])
    def encoder(self, request):
        if request.param == "c" and json.encoder.c_make_encoder is None:
            pytest.skip("json has no C encoder here")
        # without c_make_encoder, json's compact encoder runs its pure-Python code
        c_make_encoder = json.encoder.c_make_encoder if request.param == "c" else None
        with mock.patch.object(json.encoder, "c_make_encoder", c_make_encoder):
            yield request.param

    @pytest.mark.parametrize("value", [
        {}, [], (), [[]], [{}], {"a": {}}, {"a": [[], {}, ()]}, [[[[]]]], [{"a": []}, {"b": {}}],
        [{"a": 1}, [1]], [(1, 2), [3]], {"k": [(1, "x"), (2, "é")]}, [{"a": None}, {"a": [1]}],
        {1: [1], 2.5: {}, None: 3, True: [()], "x": -0.0}, "\u2603", 2**64, math.nan,
    ], ids=repr)
    def test_cases(self, encoder, value):
        assert cli._json(value) == json.dumps(value, indent=2) + "\n"

    @given(PAYLOADS)
    @settings(max_examples=400, deadline=None)
    def test_matches_json_dumps(self, encoder, value):
        assert cli._json(value) == json.dumps(value, indent=2) + "\n"

    @pytest.mark.parametrize("value", [
        np.int64(1), [1, np.int64(1)], [{"a": np.int64(1)}], {"a": [np.int64(1)], "b": 2},
        {(1,): 2}, {"a": 1, (1,): [2]}, [[np.float32(1.0)]],
    ], ids=repr)
    def test_unserializable_value_raises_as_json_does(self, encoder, value):
        with pytest.raises(TypeError) as want:
            json.dumps(value, indent=2)
        with pytest.raises(TypeError) as got:
            cli._json(value)
        assert str(got.value) == str(want.value)


DISPATCH = [
    (),
    ("-h",),
    ("--version",),
    ("nope",),
    ("capacity", "-h"),
    ("capacity", "--d", "3", "--snr-db", "10"),
    ("capacity", "--d", "3", "--beta", "6", "--snr", "10"),
    ("capacity", "--d", "3", "--beta-d", "6", "--snr-db", "-10", "--format", "json"),
    ("capacity", "--d", "3", "--beta-d", "6", "--snr-db=-inf"),
    ("capacity", "--d", "3", "--beta-d", "6", "--snr-db", "-inf"),
    ("capacity", "--d", "3", "--beta-d", "6", "--snr-db", "10", "--format", "xml"),
    ("capacity", "--d", "3", "--beta-d", "6", "--snr-db", "10", "extra"),
    ("capacity", "--d", "3", "--beta-d", "6", "--snr-db", "10", "--version"),
    ("capacity", "--d", "3", "--beta-d", "6", "--snr-db", "10", "--=x"),
    ("capacity", "--d", "3", "--", "--beta-d", "6"),
    ("--", "capacity", "--d", "3", "--beta-d", "6", "--snr-db", "10"),
    ("sweep", "--d", "2", "--ebn0-db", "10", "--beta", "1"),
    ("params", "--d", "3", "--beta-d", "2", "--format", "csv"),
    ("validate", "--check", "nope"),
]


@pytest.mark.parametrize("argv", DISPATCH, ids=" ".join)
def test_dispatch_matches_the_full_parse(capsys, monkeypatch, argv):
    def outcome(*argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    got = outcome(*argv)
    # the reference: the top-level parser reads the whole argv, then the command runs
    monkeypatch.setattr(cli, "_parse", lambda argv: build_parser().parse_args(argv))
    assert got == outcome(*argv)


class TestUnits:
    @pytest.mark.parametrize("x", [0.0, -1.0, math.nan])
    def test_non_positive_or_nan_has_no_db_value(self, x):
        with pytest.raises(DomainError, match="must be positive"):
            linear_to_db(x)

    @given(st.floats(-40.0, 40.0))
    @settings(max_examples=200, deadline=None)
    def test_db_round_trip(self, db):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_reference_points(self):
        assert db_to_linear(3082.0) == pytest.approx(10.0**308.2, rel=1e-13)
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert linear_to_db(100.0) == pytest.approx(20.0, rel=1e-15)
