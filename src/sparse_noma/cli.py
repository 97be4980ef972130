"""Command-line interface.

Subcommands map onto the library layers: `params` and `density` expose the
limiting spectrum, `capacity` the closed forms plus dense baselines, `sweep`
the load sweep at fixed Eb/N0, `montecarlo` the random-matrix validation
harness, and `validate` the named invariant suite.

All dB handling lives here; the library works in linear units throughout.
Exit codes: 0 success, 1 numerical or validation failure, 2 usage or domain
error.  Every subcommand is deterministic given its flags and seed.  The
argument parser is built once per process and reused by every `main` call;
parsing keeps no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict
from typing import Any, Iterable

import numpy as np

from . import __version__
from .baselines import SweepTable, baseline_rate, sweep_load
from .capacity import capacity_lmmse, capacity_optimum
from .checks import CHECKS, run_checks
from .errors import ConfigurationError, DomainError, NumericalError
from .montecarlo import (
    KS_MIN_RESOURCES,
    KS_THRESHOLD,
    PHASE_SCHEMES,
    compare_to_closed_form,
    feasible_resources,
    ks_draw,
)
from .spectral import SystemConfig, density_at, derive_params, spectral_density
from .svgplot import sweep_svg
from .units import db_to_linear, linear_to_db

CSV_HEADER = "scheme,d,beta_d,beta,ebn0_db,snr,rate,route,stderr"
_KS_SUBSTREAM = 2**31 - 1  # distinct from any per-trial substream index


def _fmt(value: Any) -> str:
    """CSV cell: shortest round-trip float repr, blank for missing."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_lines(rows: Iterable[dict], comments: Iterable[str] = ()) -> list[str]:
    cols = CSV_HEADER.split(",")
    lines = ["# schema=v1", *comments, CSV_HEADER]
    lines.extend(",".join(_fmt(row.get(c)) for c in cols) for row in rows)
    return lines


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _emit_json(obj: dict, out: str | None) -> None:
    _emit(json.dumps(obj, indent=2), out)


def _rate_row(
    scheme: str,
    beta: float,
    rate: float,
    route: str,
    d: int | None = None,
    beta_d: int | None = None,
    ebn0_db: float | None = None,
    snr: float | None = None,
    stderr: float | None = None,
) -> dict:
    return {
        "scheme": scheme, "d": d, "beta_d": beta_d, "beta": beta,
        "ebn0_db": ebn0_db, "snr": snr, "rate": rate, "route": route,
        "stderr": stderr,
    }


def cmd_params(args: argparse.Namespace) -> int:
    p = derive_params(SystemConfig(args.d, args.beta_d))
    payload = {
        "kind": "params",
        "schema": "v1",
        "d": p.d,
        "beta_d": p.beta_d,
        "beta": p.beta,
        "alpha": p.alpha,
        "gamma": p.gamma,
        "beta_tilde": p.beta_tilde,
        "zeta": p.zeta,
        "lambda_minus": p.lambda_minus,
        "lambda_plus": p.lambda_plus,
        "support_gap": p.support_gap,
        "point_mass_at_zero": p.point_mass_at_zero,
    }
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        lines = ["# schema=v1", "key,value"]
        lines.extend(f"{k},{_fmt(v)}" for k, v in payload.items() if k not in ("kind", "schema"))
        _emit("\n".join(lines), args.out)
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise ConfigurationError(f"--points must be >= 1, got {args.points}")
    dens = spectral_density(SystemConfig(args.d, args.beta_d))
    p = dens.params
    # midpoint grid keeps samples strictly inside the support
    width = p.lambda_plus - p.lambda_minus
    lams = [p.lambda_minus + (j + 0.5) / args.points * width for j in range(args.points)]
    pairs = [(lam, density_at(dens, lam)) for lam in lams]
    if args.format == "json":
        _emit_json(
            {
                "kind": "density",
                "schema": "v1",
                "d": p.d,
                "beta_d": p.beta_d,
                "point_mass_at_zero": p.point_mass_at_zero,
                "lambda_minus": p.lambda_minus,
                "lambda_plus": p.lambda_plus,
                "points": [[lam, rho] for lam, rho in pairs],
            },
            args.out,
        )
    else:
        lines = [
            "# schema=v1",
            f"# point_mass_at_zero={_fmt(p.point_mass_at_zero)}",
            "lambda,rho",
        ]
        lines.extend(f"{_fmt(lam)},{_fmt(rho)}" for lam, rho in pairs)
        _emit("\n".join(lines), args.out)
    return 0


def _capacity_rows(cfg: SystemConfig) -> list[dict]:
    beta = cfg.beta
    rows = [
        _rate_row(
            "sparse_opt", beta, capacity_optimum(cfg).spectral_efficiency,
            "closed_form", d=cfg.d, beta_d=cfg.beta_d, snr=cfg.snr,
        ),
        _rate_row(
            "sparse_lmmse", beta, capacity_lmmse(cfg).spectral_efficiency,
            "closed_form", d=cfg.d, beta_d=cfg.beta_d, snr=cfg.snr,
        ),
    ]
    for scheme in ("rs_cdma_opt", "rs_cdma_lmmse", "orthogonal", "cover_wyner"):
        if scheme == "orthogonal" and beta > 1.0:
            continue
        rows.append(_rate_row(scheme, beta, baseline_rate(scheme, beta, cfg.snr), "closed_form", snr=cfg.snr))
    return rows


def cmd_capacity(args: argparse.Namespace) -> int:
    cfg = SystemConfig(args.d, args.beta_d, db_to_linear(args.snr_db))
    rows = _capacity_rows(cfg)
    if args.format == "json":
        _emit_json(
            {
                "kind": "capacity",
                "schema": "v1",
                "d": cfg.d,
                "beta_d": cfg.beta_d,
                "beta": cfg.beta,
                "snr": cfg.snr,
                "snr_db": args.snr_db,
                "rows": rows,
            },
            args.out,
        )
    else:
        _emit("\n".join(_csv_lines(rows)), args.out)
    return 0


def _sweep_rows(table: SweepTable) -> list[dict]:
    ebn0_db = linear_to_db(table.ebn0)
    return [
        _rate_row(
            p.scheme, p.beta, p.rate, p.route, d=p.d, beta_d=p.beta_d,
            ebn0_db=ebn0_db, snr=p.snr,
        )
        for p in table.points
    ]


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.beta_max < args.beta_min:
        raise ConfigurationError(
            f"--beta-max {args.beta_max!r} is below --beta-min {args.beta_min!r}"
        )
    if args.beta_steps < 1:
        raise ConfigurationError(f"--beta-steps must be >= 1, got {args.beta_steps}")
    grid = np.linspace(args.beta_min, args.beta_max, args.beta_steps).tolist()
    table = sweep_load(args.d, db_to_linear(args.ebn0_db), grid)
    if args.format == "svg":
        _emit(sweep_svg(table, args.ebn0_db), args.out)
    elif args.format == "json":
        _emit_json(
            {
                "kind": "sweep",
                "schema": "v1",
                "d": args.d,
                "ebn0_db": args.ebn0_db,
                "rows": _sweep_rows(table),
            },
            args.out,
        )
    else:
        _emit("\n".join(_csv_lines(_sweep_rows(table))), args.out)
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    cfg = SystemConfig(args.d, args.beta_d, db_to_linear(args.snr_db))
    receivers: dict[str, dict] = {}
    chosen = {"opt": ("optimum",), "lmmse": ("lmmse",), "both": ("optimum", "lmmse")}
    for receiver in chosen[args.receiver]:
        row = asdict(
            compare_to_closed_form(
                receiver, cfg, n_resources=args.n, trials=args.trials,
                seed=args.seed, phase_scheme=args.phase_scheme,
            )
        )
        row["pass"] = row.pop("passed")
        receivers[receiver] = row

    ks: dict | None = None
    if not args.no_ks:
        n_ks = feasible_resources(
            args.n if args.n is not None else KS_MIN_RESOURCES, cfg.d, cfg.beta_d
        )
        rng = np.random.default_rng([args.seed, _KS_SUBSTREAM])
        dist = ks_draw(n_ks, cfg, rng, args.phase_scheme)
        threshold = KS_THRESHOLD if n_ks >= KS_MIN_RESOURCES else None
        ks = {
            "n_resources": n_ks,
            "distance": dist,
            "threshold": threshold,
            "pass": None if threshold is None else bool(dist < threshold),
        }

    ok = all(r["pass"] for r in receivers.values()) and (ks is None or ks["pass"] is not False)
    payload = {
        "kind": "montecarlo",
        "schema": "v1",
        "d": cfg.d,
        "beta_d": cfg.beta_d,
        "beta": cfg.beta,
        "snr": cfg.snr,
        "snr_db": args.snr_db,
        "seed": args.seed,
        "phase_scheme": args.phase_scheme,
        "receivers": receivers,
        "ks": ks,
        "pass": ok,
    }
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        scheme_of = {"optimum": "sparse_opt", "lmmse": "sparse_lmmse"}
        rows = []
        for name, r in receivers.items():
            rows.append(
                _rate_row(
                    scheme_of[name], cfg.beta, r["closed_form"], "closed_form",
                    d=cfg.d, beta_d=cfg.beta_d, snr=cfg.snr,
                )
            )
            rows.append(
                _rate_row(
                    scheme_of[name], cfg.beta, r["estimate"], "monte_carlo",
                    d=cfg.d, beta_d=cfg.beta_d, snr=cfg.snr, stderr=r["stderr"],
                )
            )
        comments = []
        if ks is not None:
            comments.append(
                f"# ks_distance={_fmt(ks['distance'])} n_resources={ks['n_resources']}"
                f" threshold={_fmt(ks['threshold'])} pass={ks['pass']}"
            )
        _emit("\n".join(_csv_lines(rows, comments)), args.out)
    return 0 if ok else 1


def cmd_validate(args: argparse.Namespace) -> int:
    names = tuple(args.check) if args.check else None
    known = {name for name, _, _ in CHECKS}
    if names is not None:
        unknown = sorted(set(names) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown check name(s) {unknown}; available: {sorted(known)}"
            )
    results = run_checks(quick=args.quick, names=names)
    lines = [
        f"{r.status.upper():4s} {r.name:20s} {r.seconds:8.2f}s  {r.detail}"
        for r in results
    ]
    n_fail = sum(r.status == "fail" for r in results)
    n_pass = sum(r.status == "pass" for r in results)
    n_skip = sum(r.status == "skip" for r in results)
    lines.append(f"{n_pass} passed, {n_fail} failed, {n_skip} skipped")
    _emit("\n".join(lines), args.out)
    return 1 if n_fail else 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparse-noma",
        description="Spectral efficiency of regular sparse NOMA: closed forms, "
        "load sweeps, and Monte Carlo validation.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: tuple[str, ...], default_format: str):
        p.add_argument("--format", choices=formats, default=default_format)
        p.add_argument("--out", default=None, metavar="PATH", help="output file (default stdout)")

    def add_degrees(p: argparse.ArgumentParser):
        p.add_argument("--d", type=int, required=True, help="nonzeros per user signature (>= 2)")
        p.add_argument("--beta-d", type=int, required=True, help="users per resource (>= 2)")

    p = sub.add_parser("params", help="derived spectral parameters for one degree pair")
    add_degrees(p)
    add_common(p, ("json", "csv"), "json")
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("density", help="sample the limiting eigenvalue density")
    add_degrees(p)
    p.add_argument("--points", type=int, default=200, help="interior sample count")
    add_common(p, ("csv", "json"), "csv")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("capacity", help="closed-form spectral efficiencies at one SNR")
    add_degrees(p)
    p.add_argument("--snr-db", type=float, required=True)
    add_common(p, ("csv", "json"), "csv")
    p.set_defaults(fn=cmd_capacity)

    p = sub.add_parser("sweep", help="rates over a load grid at fixed Eb/N0")
    p.add_argument("--d", type=int, required=True, help="nonzeros per user signature (>= 2)")
    p.add_argument("--ebn0-db", type=float, required=True)
    p.add_argument("--beta-min", type=float, required=True)
    p.add_argument("--beta-max", type=float, required=True)
    p.add_argument("--beta-steps", type=int, default=41)
    add_common(p, ("csv", "json", "svg"), "csv")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("montecarlo", help="random-matrix validation against the closed forms")
    add_degrees(p)
    p.add_argument("--snr-db", type=float, required=True)
    p.add_argument("--n", type=int, default=None, help="resources; default 1200 (opt) / 2000 (lmmse)")
    p.add_argument("--trials", type=int, default=None, help="default 50 (opt) / 20 (lmmse)")
    p.add_argument("--receiver", choices=("opt", "lmmse", "both"), default="both")
    p.add_argument("--phase-scheme", choices=PHASE_SCHEMES, default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-ks", action="store_true", help="skip the spectrum KS comparison")
    add_common(p, ("json", "csv"), "json")
    p.set_defaults(fn=cmd_montecarlo)

    p = sub.add_parser("validate", help="run the named invariant suite")
    p.add_argument("--quick", action="store_true", help="skip the slow Monte Carlo checks")
    p.add_argument("--check", action="append", default=None, metavar="NAME",
                   help="run only this check (repeatable)")
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(fn=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
