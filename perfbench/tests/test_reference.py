"""Checks of the benchmark's own mpmath reference and its metric list.

Run with `python3 -m pytest perfbench/tests -q` from the repository root;
these tests are not part of the package's test suite.
"""

import json
from pathlib import Path

import mpmath as mp
import pytest

import per_layer
import reference
from grids import CAPACITY_DB, EXTREME_CELLS, LATTICE_PAIRS, SWEEP_EBN0_DB


@pytest.fixture(autouse=True)
def precision():
    mp.mp.dps = reference.DPS


def test_contact_pair_optimum_matches_exact_constant():
    exact = mp.log((11 + mp.sqrt(21)) / 2, 2)
    assert abs(reference.capacity_optimum(2, 2, 10) - exact) < mp.mpf(10) ** -25


def test_contact_pair_lmmse_matches_exact_constant():
    exact = mp.log(21, 2) / 2
    assert abs(reference.capacity_lmmse(2, 2, 10) - exact) < mp.mpf(10) ** -25


@pytest.mark.parametrize("d, bd", [(2, 2), (3, 2), (3, 6), (10, 3)])
def test_density_moments(d, bd):
    """Continuous mass 1 - [1 - beta]^+, mean beta, second moment beta^2 + beta (d-1)/d."""
    ens = reference.Ensemble(d, bd)
    beta = mp.mpf(bd) / d
    mass = ens.integrate(lambda lam: 1)
    assert abs(mass + ens.atom - 1) < mp.mpf(10) ** -25
    # the substituted weight integrates the density as written in the paper
    assert abs(mp.quad(ens.density, [ens.lam_minus, ens.lam_plus]) - mass) < mp.mpf(10) ** -12
    assert abs(ens.integrate(lambda lam: lam) - beta) < mp.mpf(10) ** -25
    second = beta**2 + beta * (d - 1) / mp.mpf(d)
    assert abs(ens.integrate(lambda lam: lam**2) - second) < mp.mpf(10) ** -24


def test_verdu_shamai_low_snr_slope():
    """Both dense rates start as beta * snr * log2(e), the single-user slope."""
    snr, beta = mp.mpf(10) ** -12, mp.mpf(3) / 2
    for scheme in ("rs_cdma_opt", "rs_cdma_lmmse", "cover_wyner"):
        rate = reference.dense_rate(scheme, beta, snr)
        assert abs(rate / (beta * snr / mp.log(2)) - 1) < mp.mpf(10) ** -10


def test_fixed_point_solves_its_equation():
    beta, ebn0 = mp.mpf(2), reference.db_to_linear(10)
    fn = lambda s: reference.dense_rate("cover_wyner", beta, s)  # noqa: E731
    r = reference.fixed_point(fn, beta, ebn0)
    assert abs(r - fn(r * ebn0 / beta)) < mp.mpf(10) ** -18


def test_reference_file_covers_the_grids_and_matches_a_recomputation():
    table = reference.load()
    assert set(table["capacity"]) == {(d, bd, db) for d, bd in LATTICE_PAIRS for db in CAPACITY_DB} | set(
        EXTREME_CELLS
    )
    assert set(table["sweep"]) == {(d, bd, db) for d, bd in LATTICE_PAIRS for db in SWEEP_EBN0_DB}
    for d, bd, db in ((3, 6, 10), (10, 3, 100), (2, 5, -10)):
        snr = reference.db_to_linear(db)
        opt, lmmse = table["capacity"][(d, bd, db)]
        assert opt == float(reference.capacity_optimum(d, bd, snr))
        assert lmmse == float(reference.capacity_lmmse(d, bd, snr))


def test_benchmark_json_lists_the_per_layer_metrics():
    spec = json.loads((Path(reference.HERE).parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(per_layer.NAMES)
