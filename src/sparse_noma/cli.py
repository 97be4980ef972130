"""Command-line interface.

Subcommands map onto the library layers: `params` and `density` expose the
limiting spectrum, `capacity` the closed forms plus dense baselines, `sweep`
the load sweep at fixed Eb/N0, `montecarlo` the random-matrix validation
harness, and `validate` the named invariant suite.

All dB handling lives here; the library works in linear units throughout.
Each command but `validate` builds its fields and its CSV lines and hands
both to `_write`, the one place that frames output as schema v1, and
`_emit` is the one writer to stdout or `--out`.  JSON is byte for byte
``json.dumps(payload, indent=2)``, written by `_json` through json's compact
(C-accelerated on CPython) encoder.
Exit codes: 0 success, 1 numerical or validation failure, 2 usage or domain
error; a dB flag above about 3082.5 dB, whose linear value passes the
largest float, is a domain error.  Every subcommand is deterministic given
its flags and seed.  The argument parser is built once per process and
reused by every `main` call; parsing keeps no state between calls.  When
the first argument names a command, `main` hands the rest straight to that
command's subparser, as the top-level parser would after reading every
argument as a possible option of its own, and reports what is left over
with the top-level parser's own error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict
from typing import Any, Iterable, Iterator

import numpy as np

from . import __version__
from .baselines import SPARSE_SCHEMES, dense_schemes, rate_function, sweep_load
from .checks import run_checks
from .errors import ConfigurationError, DomainError, NumericalError
from .ensemble import PHASE_SCHEMES, feasible_resources
from .montecarlo import KS_MIN_RESOURCES, compare_to_closed_form, ks_draw
from .spectral import SystemConfig, density_at, spectral_density
from .svgplot import sweep_svg
from .units import db_to_linear

RATE_COLUMNS = ("scheme", "d", "beta_d", "beta", "ebn0_db", "snr", "rate", "route", "stderr")
CSV_HEADER = ",".join(RATE_COLUMNS)
_BLANK_ROW = dict.fromkeys(RATE_COLUMNS)
_KS_SUBSTREAM = 2**31 - 1  # distinct from any per-trial substream index
_PARAM_KEYS = (
    "d", "beta_d", "beta", "alpha", "gamma", "beta_tilde", "zeta",
    "lambda_minus", "lambda_plus", "support_gap", "point_mass_at_zero",
)


def _fmt(value: Any) -> str:
    """CSV cell: shortest round-trip float repr, blank for missing."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _rate_lines(rows: Iterable[dict]) -> Iterator[str]:
    """The rate table in CSV: its header, then one line per row, made as they are read."""
    yield CSV_HEADER
    for row in rows:
        yield ",".join(_fmt(row[c]) for c in RATE_COLUMNS)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        except OSError as exc:
            raise ConfigurationError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


_CONTAINERS = (dict, list, tuple)
_PLAIN = frozenset((str, int, float, bool, type(None)))


@functools.cache
def _encoder(depth: int) -> json.JSONEncoder:
    """json's compact encoder, with each item on its own line ``depth + 1`` indent levels deep.

    Each container it is handed holds only plain values, or is a table of
    such containers, so no cycle can pass through it and json's cycle check
    is skipped; `_json_parts` recurses into every other container itself.
    """
    return json.JSONEncoder(separators=(",\n" + "  " * (depth + 1), ": "), check_circular=False)


def _plain(values: Iterable) -> bool:
    """Whether each value is exactly a str, int, float, bool or None; a subclass takes the general path."""
    return _PLAIN.issuperset(map(type, values))


def _is_table(values: list | tuple) -> bool:
    """Whether the values are all non-empty dicts, or all non-empty lists and tuples, of plain values."""
    if isinstance(values[0], dict):
        return all(isinstance(v, dict) and v and _plain(v.values()) for v in values)
    return all(isinstance(v, (list, tuple)) and v and _plain(v) for v in values)


def _json(value: Any) -> str:
    """``json.dumps(value, indent=2)`` and a newline, from one join of the pieces `_json_parts` lists.

    Joining the newline in lets `_emit` write this string as it is.  A copy
    to append it frees a block the size of the text on every call, and in a
    process that kept 7716 outputs those freed blocks between them raised
    the peak RSS by about 0.4 MB.
    """
    parts: list[str] = []
    _json_parts(value, 0, parts)
    parts.append("\n")
    return "".join(parts)


def _json_parts(value: Any, depth: int, parts: list[str]) -> None:
    """Append to ``parts`` the pieces of ``json.dumps(value, indent=2)``, for a value ``depth`` levels deep.

    json's ``indent`` runs its pure-Python encoder, while the compact one runs
    in C on CPython; here each container is one call of the compact encoder,
    whose item separator carries the newline and indent.  An encoded key or
    scalar holds no raw newline and neither starts nor ends with a bracket,
    so the separators can be told apart afterwards:

    - a container of plain values is one call;
    - a list of such containers, all dicts or all lists and tuples (a table),
      is one call one level deeper, where each separator between two records
      sits between a closing and an opening bracket;
    - any other container is one call with 0 in place of each nested
      container, split at every separator, and each 0 then becomes its
      container, written one level deeper.

    The pieces are joined once, so the text is copied once, not once per
    level.  A value that contains itself recurses until RecursionError,
    where json raises ValueError.
    """
    encoder = _encoder(depth)
    if isinstance(value, dict):
        values, is_dict = value.values(), True
    elif isinstance(value, (list, tuple)):
        values, is_dict = value, False
    else:
        parts.append(encoder.encode(value))
        return
    if not value:
        parts.append("{}" if is_dict else "[]")
        return
    sep, close = encoder.item_separator, "\n" + "  " * depth
    if _plain(values):
        text = encoder.encode(value)
        parts += (text[0], sep[1:], text[1:-1])
    elif not is_dict and _is_table(value):
        record_sep, record_close = sep + "  ", close + "  "
        text = _encoder(depth + 1).encode(value)
        o, c = text[1], text[-2]  # the records' brackets
        between = record_close + c + sep + o + record_sep[1:]
        parts += (text[0], sep[1:], o, record_sep[1:], text[2:-2].replace(c + record_sep + o, between),
                  record_close, c)
    else:
        values = list(values)
        flat = [0 if isinstance(v, _CONTAINERS) else v for v in values]
        text = encoder.encode(dict(zip(value, flat)) if is_dict else flat)
        parts += (text[0], sep[1:])
        for i, (item, v) in enumerate(zip(text[1:-1].split(sep), values)):
            if i:
                parts.append(sep)
            if isinstance(v, _CONTAINERS):
                parts.append(item[:-1])  # the key, if any, without the 0
                _json_parts(v, depth + 1, parts)
            else:
                parts.append(item)
    parts += (close, text[-1])


def _write(args: argparse.Namespace, fields: dict, csv_lines: Iterable[str]) -> None:
    """Frame one command's output as schema v1 and emit it.

    JSON is ``{"kind": <command>, "schema": "v1", **fields}`` as
    ``json.dumps(..., indent=2)`` writes it, made by `_json`; CSV is the
    ``# schema=v1`` line followed by ``csv_lines``, which are only read for
    CSV output.
    """
    if args.format == "json":
        _emit(_json({"kind": args.command, "schema": "v1", **fields}), args.out)
    else:
        _emit("\n".join(["# schema=v1", *csv_lines]), args.out)


def _rate_row(**cells: Any) -> dict:
    """One rate row in RATE_COLUMNS order, None where a cell is not given."""
    return _BLANK_ROW | cells


def _verdict_fields(record: Any) -> dict:
    """A verdict record's fields, with its ``passed`` written as the schema's ``pass``."""
    fields = asdict(record)
    fields["pass"] = fields.pop("passed")
    return fields


def cmd_params(args: argparse.Namespace) -> int:
    p = spectral_density(SystemConfig(args.d, args.beta_d))
    fields = {key: getattr(p, key) for key in _PARAM_KEYS}
    _write(args, fields, ["key,value", *(f"{k},{_fmt(v)}" for k, v in fields.items())])
    return 0


def cmd_density(args: argparse.Namespace) -> int:
    if args.points < 1:
        raise ConfigurationError(f"--points must be >= 1, got {args.points}")
    p = spectral_density(SystemConfig(args.d, args.beta_d))
    # midpoint grid keeps samples strictly inside the support
    width = p.lambda_plus - p.lambda_minus
    lams = [p.lambda_minus + (j + 0.5) / args.points * width for j in range(args.points)]
    pairs = [(lam, density_at(p, lam)) for lam in lams]
    fields = {
        "d": p.d,
        "beta_d": p.beta_d,
        "point_mass_at_zero": p.point_mass_at_zero,
        "lambda_minus": p.lambda_minus,
        "lambda_plus": p.lambda_plus,
        "points": [[lam, rho] for lam, rho in pairs],
    }
    csv_lines = [
        f"# point_mass_at_zero={_fmt(p.point_mass_at_zero)}",
        "lambda,rho",
        *(f"{_fmt(lam)},{_fmt(rho)}" for lam, rho in pairs),
    ]
    _write(args, fields, csv_lines)
    return 0


def _capacity_rows(cfg: SystemConfig) -> list[dict]:
    beta, snr = cfg.beta, cfg.snr
    dense = _rate_row(beta=beta, snr=snr, route="closed_form")
    sparse = dense | {"d": cfg.d, "beta_d": cfg.beta_d}
    rows = []
    for scheme in SPARSE_SCHEMES:
        rows.append(sparse | {"scheme": scheme, "rate": rate_function(scheme, beta, cfg)(snr)})
    for scheme in dense_schemes(beta):
        rows.append(dense | {"scheme": scheme, "rate": rate_function(scheme, beta)(snr)})
    return rows


def cmd_capacity(args: argparse.Namespace) -> int:
    cfg = SystemConfig(args.d, args.beta_d, db_to_linear(args.snr_db))
    rows = _capacity_rows(cfg)
    fields = {
        "d": cfg.d,
        "beta_d": cfg.beta_d,
        "beta": cfg.beta,
        "snr": cfg.snr,
        "snr_db": args.snr_db,
        "rows": rows,
    }
    _write(args, fields, _rate_lines(rows))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    for flag, value in (("--beta-min", args.beta_min), ("--beta-max", args.beta_max)):
        if not math.isfinite(value):  # before linspace, which spreads an infinite end into NaN loads
            raise ConfigurationError(f"{flag} must be finite, got {value!r}")
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
        return 0
    rows = [
        _rate_row(
            scheme=p.scheme, d=p.d, beta_d=p.beta_d, beta=p.beta, ebn0_db=args.ebn0_db,
            snr=p.snr, rate=p.rate, route=p.route,
        )
        for p in table.points
    ]
    _write(args, {"d": args.d, "ebn0_db": args.ebn0_db, "rows": rows}, _rate_lines(rows))
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    cfg = SystemConfig(args.d, args.beta_d, db_to_linear(args.snr_db))
    chosen = {"opt": ("optimum",), "lmmse": ("lmmse",), "both": ("optimum", "lmmse")}
    receivers = {
        receiver: _verdict_fields(
            compare_to_closed_form(
                receiver, cfg, n_resources=args.n, trials=args.trials,
                seed=args.seed, phase_scheme=args.phase_scheme,
            )
        )
        for receiver in chosen[args.receiver]
    }

    ks: dict | None = None
    if not args.no_ks:
        n_ks = feasible_resources(
            args.n if args.n is not None else KS_MIN_RESOURCES, cfg.d, cfg.beta_d
        )
        rng = np.random.default_rng([args.seed, _KS_SUBSTREAM])
        ks = _verdict_fields(ks_draw(n_ks, cfg, rng, args.phase_scheme))

    ok = all(r["pass"] for r in receivers.values()) and (ks is None or ks["pass"] is not False)
    fields = {
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
    scheme_of = {"optimum": "sparse_opt", "lmmse": "sparse_lmmse"}
    cells = dict(d=cfg.d, beta_d=cfg.beta_d, beta=cfg.beta, snr=cfg.snr)
    rows = []
    for name, r in receivers.items():
        rows.append(
            _rate_row(scheme=scheme_of[name], rate=r["closed_form"], route="closed_form", **cells)
        )
        rows.append(
            _rate_row(
                scheme=scheme_of[name], rate=r["estimate"], route="monte_carlo",
                stderr=r["stderr"], **cells,
            )
        )
    ks_line = [] if ks is None else [
        f"# ks_distance={_fmt(ks['distance'])} n_resources={ks['n_resources']}"
        f" threshold={_fmt(ks['threshold'])} pass={ks['pass']}"
    ]
    _write(args, fields, [*ks_line, *_rate_lines(rows)])
    return 0 if ok else 1


def cmd_validate(args: argparse.Namespace) -> int:
    names = tuple(args.check) if args.check else None
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


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's subparser, by command name; built once."""
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
    return parser, sub.choices


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, without its scan of a command's arguments.

    After a command name, argparse hands every later argument to that
    command's subparser, having first tested each one against its own
    options: ``--=...`` is the one string that test rejects (as ambiguous
    between --help and --version), so an argv holding ``--=`` anywhere takes
    the full parse, which is never wrong.
    """
    parser, commands = _parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None or "--=" in " ".join(argv):
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
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
