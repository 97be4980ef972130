"""Command-line interface: exit codes, output formats, schema conformance."""

import json
import math
import os
import subprocess
import sys
import types
import xml.etree.ElementTree as ET
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from sparse_noma import montecarlo
from sparse_noma.cli import CSV_HEADER, build_parser, main
from sparse_noma.units import db_to_linear, linear_to_db


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
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

    @pytest.mark.parametrize("d", ["2", "3", "10"])
    def test_high_ebn0_solves_every_point(self, capsys, d):
        # at Eb/N0 = 60 dB the overloaded sparse-optimum fixed points sit near
        # snr 1e7; the 1e-10 residual check needs the closed form that accurate
        code, out, err = run(capsys, "sweep", "--d", d, "--ebn0-db", "60",
                             "--beta-min", "0.1", "--beta-max", "3")
        assert code == 0, err
        assert "sparse_opt" in out


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
        # closed form, estimate and tolerance are all exactly 0
        code, out, _ = run(capsys, "montecarlo", "--d", "2", "--beta-d", "2", "--snr-db=-inf",
                           "--n", "120", "--trials", "2", "--no-ks", "--receiver", "opt")
        r = json.loads(out)["receivers"]["optimum"]
        assert (r["closed_form"], r["estimate"], r["tolerance"]) == (0.0, 0.0, 0.0)
        assert code == 0

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

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["capacity", "--d", "3", "--snr-db", "ten"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, *self.CAPACITY)
        alone = subprocess.run(
            [sys.executable, "-m", "sparse_noma", *self.CAPACITY],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(resources.files("sparse_noma").parent)},
        )
        assert code == 0
        assert out == alone.stdout

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


class TestUnits:
    @given(st.floats(-40.0, 40.0))
    @settings(max_examples=200, deadline=None)
    def test_db_round_trip(self, db):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, abs=1e-12)

    def test_reference_points(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)
        assert linear_to_db(100.0) == pytest.approx(20.0, rel=1e-15)
