#!/usr/bin/env python3
"""Independent high-precision reference for the benchmark's correctness checks.

Nothing here imports `sparse_noma`.  The limiting eigenvalue law of the scaled
Gram matrix (1/d) A A^H of a regular (d, beta_d) sparse ensemble is written out
from the paper: a point mass [1 - beta]^+ at zero plus the density

    rho(lam) = beta_d * sqrt((lam - lam_-)(lam_+ - lam)) / (2 pi lam (beta_d - lam))

on [lam_-, lam_+] = [(sqrt(a) - sqrt(g))^2, (sqrt(a) + sqrt(g))^2] with
a = (d-1)/d, g = (beta_d-1)/d.  Rates come from mpmath tanh-sinh quadrature of
that density at DPS digits:

- optimum: the integral of log2(1 + snr lam);
- LMMSE: the Stieltjes route, m1 = E_user[1/(1 + snr mu)] over the user-side
  law, then beta * log2(1/m1).

The dense baselines are the Verdu-Shamai (1999) random-spreading formulas,
evaluated here in mpmath as well.  `python3 perfbench/reference.py` remakes
reference.json next to this file (a few minutes on one core).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import mpmath as mp

from grids import CAPACITY_DB, EXTREME_CELLS, FIG_D, LATTICE_PAIRS, SWEEP_EBN0_DB

DPS = 30
HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"


class Ensemble:
    """Limiting spectral law of one (d, beta_d) regular ensemble, in mpmath."""

    def __init__(self, d: int, beta_d: int):
        self.d, self.beta_d = d, beta_d
        dm, bm = mp.mpf(d), mp.mpf(beta_d)
        a = (dm - 1) / dm
        g = (bm - 1) / dm
        self.beta = bm / dm
        self.atom = max(mp.mpf(0), 1 - self.beta)
        self.bd = bm
        self.lam_plus = (mp.sqrt(a) + mp.sqrt(g)) ** 2
        self.lam_minus = (mp.sqrt(a) - mp.sqrt(g)) ** 2
        # beta_d - lam_+ = (sqrt((d-1)(beta_d-1)) - 1)^2 / d, exactly 0 for the
        # contact pair; the subtraction itself would leave a tiny spurious pole
        self.gap = (mp.sqrt((dm - 1) * (bm - 1)) - 1) ** 2 / dm

    def density(self, lam) -> mp.mpf:
        lam = mp.mpf(lam)
        if not self.lam_minus < lam < self.lam_plus:
            return mp.mpf(0)
        num = mp.sqrt((lam - self.lam_minus) * (self.lam_plus - lam))
        return self.bd * num / (2 * mp.pi * lam * (self.bd - lam))

    def integrate(self, f) -> mp.mpf:
        """Integral of f against the continuous part of the law.

        lam = lam_- + span sin^2(t) turns rho(lam) dlam into a weight that is
        smooth on [0, pi/2], including the contact and beta = 1 edges.
        """
        span = self.lam_plus - self.lam_minus

        def weight(t):
            s2 = mp.sin(t) ** 2
            c2 = mp.cos(t) ** 2
            lam = self.lam_minus + span * s2
            return (
                f(lam)
                * (self.bd / mp.pi)
                * (span * s2 / lam)
                * (span * c2 / (self.gap + span * c2))
            )

        return mp.quad(weight, [0, mp.pi / 4, mp.pi / 2])


def db_to_linear(x_db) -> mp.mpf:
    return mp.mpf(10) ** (mp.mpf(x_db) / 10)


def capacity_optimum(d: int, beta_d: int, snr) -> mp.mpf:
    """Optimum-receiver spectral efficiency, bits/s/Hz (atom adds log 1 = 0)."""
    snr = mp.mpf(snr)
    return Ensemble(d, beta_d).integrate(lambda lam: mp.log(1 + snr * lam)) / mp.log(2)


def capacity_lmmse(d: int, beta_d: int, snr) -> mp.mpf:
    """LMMSE spectral efficiency through the Stieltjes transform at -1/snr.

    The user-side law is the resource-side law scaled by 1/beta with the zero
    mass moved, so m1 = 1 - 1/beta + E_res[1/(1 + snr lam)] / beta, which is
    the continuous part over beta alone when beta <= 1.
    """
    snr = mp.mpf(snr)
    ens = Ensemble(d, beta_d)
    cont = ens.integrate(lambda lam: 1 / (1 + snr * lam))
    if ens.beta <= 1:
        m1 = cont / ens.beta
    else:
        m1 = 1 - 1 / ens.beta + cont / ens.beta
    return -ens.beta * mp.log(m1) / mp.log(2)


def _vs_F(x, z) -> mp.mpf:
    """Verdu-Shamai F(x, z) = (sqrt(x(1+sqrt z)^2 + 1) - sqrt(x(1-sqrt z)^2 + 1))^2."""
    rz = mp.sqrt(z)
    return (mp.sqrt(x * (1 + rz) ** 2 + 1) - mp.sqrt(x * (1 - rz) ** 2 + 1)) ** 2


def dense_rate(scheme: str, beta, snr) -> mp.mpf:
    """Dense baselines at load beta and per-user snr, bits/s/Hz."""
    beta, snr = mp.mpf(beta), mp.mpf(snr)
    log2 = mp.log(2)
    if scheme == "cover_wyner":
        return mp.log(1 + beta * snr) / log2
    if scheme == "orthogonal":
        return beta * mp.log(1 + snr) / log2
    if snr == 0:
        return mp.mpf(0)
    f = _vs_F(snr, beta)
    if scheme == "rs_cdma_lmmse":
        return beta * mp.log(1 + snr - f / 4) / log2
    if scheme == "rs_cdma_opt":
        return (
            beta * mp.log(1 + snr - f / 4) / log2
            + mp.log(1 + snr * beta - f / 4) / log2
            - f / (4 * snr * log2)
        )
    raise ValueError(f"unknown dense scheme {scheme!r}")


def fixed_point(rate_fn, beta, ebn0) -> mp.mpf:
    """Positive root of R = rate_fn(R * ebn0 / beta), for ebn0 > ln 2.

    A bracket from doubling, then Anderson-Bjork on the bracket.
    """
    beta, ebn0 = mp.mpf(beta), mp.mpf(ebn0)

    def g(r):
        return r - rate_fn(r * ebn0 / beta)

    lo, hi = mp.mpf(1), mp.mpf(1)
    while g(hi) < 0:
        lo, hi = hi, 2 * hi
    while g(lo) > 0:
        lo /= 2
    return mp.findroot(g, (lo, hi), solver="anderson", tol=mp.mpf(10) ** (-2 * DPS // 3))


def _num(x) -> str:
    return mp.nstr(x, 22, min_fixed=-mp.inf, max_fixed=mp.inf)


def build(log=None) -> dict:
    """All reference values the workloads check against."""
    mp.mp.dps = DPS
    t0 = time.perf_counter()
    capacity = []
    for d, bd in LATTICE_PAIRS:
        for db in CAPACITY_DB:
            snr = db_to_linear(db)
            capacity.append([d, bd, db, _num(capacity_optimum(d, bd, snr)), _num(capacity_lmmse(d, bd, snr))])
        if log:
            log(f"capacity ({d},{bd}) done at {time.perf_counter() - t0:.0f}s")
    extreme = []
    for d, bd, db in EXTREME_CELLS:
        snr = db_to_linear(db)
        extreme.append([d, bd, db, _num(capacity_optimum(d, bd, snr)), _num(capacity_lmmse(d, bd, snr))])
    sweep = []
    for d in FIG_D:
        for db in SWEEP_EBN0_DB:
            ebn0 = db_to_linear(db)
            for bd in range(2, 3 * d + 1):
                beta = mp.mpf(bd) / d
                r_opt = fixed_point(lambda s: capacity_optimum(d, bd, s), beta, ebn0)
                r_lm = fixed_point(lambda s: capacity_lmmse(d, bd, s), beta, ebn0)
                sweep.append([d, bd, db, _num(r_opt), _num(r_lm)])
            if log:
                log(f"sweep d={d} ebn0={db} dB done at {time.perf_counter() - t0:.0f}s")
    return {
        "what": "mpmath reference for the perfbench workloads; remake with python3 perfbench/reference.py",
        "dps": DPS,
        "capacity_columns": ["d", "beta_d", "snr_db", "optimum_bits", "lmmse_bits"],
        "capacity": capacity,
        "extreme": extreme,
        "sweep_columns": ["d", "beta_d", "ebn0_db", "optimum_rate", "lmmse_rate"],
        "sweep": sweep,
    }


def load(path: Path = REFERENCE_FILE) -> dict:
    """Reference tables keyed for lookup, values as floats."""
    raw = json.loads(path.read_text())
    cap = {(d, bd, db): (float(o), float(l)) for d, bd, db, o, l in raw["capacity"] + raw["extreme"]}
    sweep = {(d, bd, db): (float(o), float(l)) for d, bd, db, o, l in raw["sweep"]}
    return {"capacity": cap, "sweep": sweep}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Remake the benchmark's mpmath reference file.")
    ap.add_argument("--out", type=Path, default=REFERENCE_FILE)
    args = ap.parse_args(argv)
    data = build(log=lambda msg: print(msg, file=sys.stderr, flush=True))
    args.out.write_text(json.dumps(data, indent=0) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
