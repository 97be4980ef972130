"""closed_form: the CLI path behind the paper's figures and tables.

One round, in a fixed interleaved order:
- `capacity` for every lattice pair at -10..60 dB in 5 dB steps (fixed
  cells; the seed only permutes their order);
- `sweep` for d in {2, 3, 10} at two Eb/N0 values per d drawn by the seed
  from SWEEP_EBN0_DB, over a load grid that contains every lattice load;
- `validate --quick`;
- the extreme-SNR `capacity` cells at 70..120 dB (fixed).

Rounds repeat the same ops, so outputs are checked once per distinct output.
"""

from __future__ import annotations

import json
import random
from functools import partial

from sparse_noma import cli

from common import Op, cli_call
from grids import CAPACITY_DB, EXTREME_CELLS, FIG_D, LATTICE_PAIRS, SWEEP_EBN0_DB

SPARSE_TOL = 1e-9  # bits, against the mpmath reference
DENSE_TOL = 1e-12  # bits, against the Verdu-Shamai formulas in mpmath
# solve_rate_at_ebn0 bisects to 1e-12 * max(1, hi) and returns the midpoint;
# twice that half-width leaves room for rounding in the rate evaluations
SOLVER_TOL = 1e-12
DENSE_SCHEMES = ("cover_wyner", "orthogonal", "rs_cdma_opt", "rs_cdma_lmmse")
QUICK_SUMMARY = "12 passed, 0 failed, 2 skipped"
# load-grid points per lattice step, so that every lattice load is a grid load
SWEEP_SUBSTEPS = {2: 4, 3: 3, 10: 1}


def _capacity_op(d: int, bd: int, db: int) -> Op:
    argv = ["capacity", "--d", str(d), "--beta-d", str(bd), "--snr-db", str(db), "--format", "json"]
    return Op("capacity", ("capacity", d, bd, db), partial(cli_call, cli.main, argv), fixed=True,
              span="cli.capacity")


def _sweep_op(d: int, db: int) -> Op:
    steps = SWEEP_SUBSTEPS[d] * (3 * d - 2) + 1
    argv = ["sweep", "--d", str(d), "--ebn0-db", str(db), "--beta-min", repr(2 / d),
            "--beta-max", "3", "--beta-steps", str(steps), "--format", "json"]
    return Op("sweep", ("sweep", d, db), partial(cli_call, cli.main, argv), span="cli.sweep")


def _validate_op() -> Op:
    return Op("validate_quick", ("validate_quick",), partial(cli_call, cli.main, ["validate", "--quick"]),
              span="cli.validate_quick")


class ClosedForm:
    name = "closed_form"
    nominal_round_s = 1.6

    def __init__(self, seed: int, rounds: int):
        rng = random.Random(seed)
        caps = [_capacity_op(d, bd, db) for d, bd in LATTICE_PAIRS for db in CAPACITY_DB]
        rng.shuffle(caps)
        sweeps = [_sweep_op(d, db) for d in FIG_D for db in sorted(rng.sample(SWEEP_EBN0_DB, 2))]
        extreme = [_capacity_op(d, bd, db) for d, bd, db in EXTREME_CELLS]
        others = [op for pair in zip(sweeps, extreme) for op in pair]
        others.insert(len(others) // 2, _validate_op())
        stride = len(caps) // (len(others) + 1)
        one_round = []
        for i, op in enumerate(others):
            one_round += caps[i * stride:(i + 1) * stride] + [op]
        one_round += caps[len(others) * stride:]
        self.ops = one_round * rounds
        self.warmup = [_sweep_op(2, SWEEP_EBN0_DB[0]), _capacity_op(2, 2, 10), _validate_op()]

    def verify(self, results) -> tuple[dict[int, str], list[str]]:
        """({index of a failed op: why}, problems that make the run incorrect)."""
        import mpmath as mp

        import reference

        mp.mp.dps = reference.DPS
        table = reference.load()
        checkers = {"capacity": _check_capacity, "sweep": _check_sweep, "validate_quick": _check_validate}
        seen: dict[tuple, list[str]] = {}
        failed, problems = {}, []
        for i, r in enumerate(results):
            memo = (r.op.key, r.error, r.value)
            if memo not in seen:
                if r.error is not None:
                    seen[memo] = [f"raised {r.error}"]
                else:
                    seen[memo] = checkers[r.op.kind](r.op.key, *r.value, table, reference)
            if seen[memo]:
                if r.op.fixed:
                    failed[i] = "; ".join(seen[memo])
                else:
                    problems += [f"{r.op.key}: {p}" for p in seen[memo]]
        return failed, problems


def _rows_by_scheme(payload) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for row in payload["rows"]:
        out.setdefault(row["scheme"], []).append(row)
    return out


def _check_capacity(key, code, out, err, table, reference) -> list[str]:
    import mpmath as mp

    _, d, bd, db = key
    if code != 0:
        return [f"exit {code}: {err.strip()}"]
    rows = _rows_by_scheme(json.loads(out))
    beta = bd / d
    expected = {"sparse_opt", "sparse_lmmse", "rs_cdma_opt", "rs_cdma_lmmse", "cover_wyner"}
    if beta <= 1:
        expected.add("orthogonal")
    if set(rows) != expected or any(len(v) != 1 for v in rows.values()):
        return [f"schemes {sorted(rows)}"]
    snr = rows["sparse_opt"][0]["snr"]
    if abs(snr - 10.0 ** (db / 10.0)) > 1e-15 * snr:
        return [f"snr {snr!r} for {db} dB"]
    out_problems = []
    ref_opt, ref_lmmse = table["capacity"][(d, bd, db)]
    for scheme, ref in (("sparse_opt", ref_opt), ("sparse_lmmse", ref_lmmse)):
        dev = rows[scheme][0]["rate"] - ref
        if not abs(dev) <= SPARSE_TOL:
            out_problems.append(f"{scheme} off the reference by {dev:.2e}")
    for scheme in expected & set(DENSE_SCHEMES):
        ref = float(reference.dense_rate(scheme, mp.mpf(bd) / d, snr))
        dev = rows[scheme][0]["rate"] - ref
        if not abs(dev) <= DENSE_TOL:
            out_problems.append(f"{scheme} off Verdu-Shamai by {dev:.2e}")
    return out_problems


def _upper_hull(points):
    hull = []
    for p in sorted(points):
        while len(hull) >= 2 and (
            (hull[-1][0] - hull[-2][0]) * (p[1] - hull[-2][1])
            >= (p[0] - hull[-2][0]) * (hull[-1][1] - hull[-2][1])
        ):
            hull.pop()
        hull.append(p)
    return hull


def _hull_at(hull, x):
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        if x1 <= x <= x2:
            return y1 + (x - x1) / (x2 - x1) * (y2 - y1)
    return hull[0][1] if x <= hull[0][0] else hull[-1][1]


def _check_sweep(key, code, out, err, table, reference) -> list[str]:
    import mpmath as mp

    _, d, db = key
    if code != 0:
        return [f"exit {code}: {err.strip()}"]
    rows = _rows_by_scheme(json.loads(out))
    ebn0 = 10.0 ** (db / 10.0)
    problems = []

    # sparse lattice points against the mpmath fixed points
    lattice = {}
    for scheme, col in (("sparse_opt", 0), ("sparse_lmmse", 1)):
        got = {row["beta_d"]: row for row in rows.get(scheme, [])}
        if sorted(got) != list(range(2, 3 * d + 1)):
            return [f"{scheme} lattice {sorted(got)}"]
        for bd, row in got.items():
            dev = row["rate"] - table["sweep"][(d, bd, db)][col]
            if not abs(dev) <= SPARSE_TOL:
                problems.append(f"{scheme} beta_d={bd} off the reference by {dev:.2e}")
        lattice[scheme] = got

    # dense points against fixed points of the Verdu-Shamai formulas
    dense: dict[str, dict[float, float]] = {}
    for scheme in DENSE_SCHEMES:
        dense[scheme] = {}
        for row in rows.get(scheme, []):
            beta = mp.mpf(row["beta"])
            ref = reference.fixed_point(lambda s: reference.dense_rate(scheme, beta, s), beta, ebn0)
            dev = row["rate"] - float(ref)
            if not abs(dev) <= SOLVER_TOL * max(1.0, row["rate"]):
                problems.append(f"{scheme} beta={row['beta']:.4f} off its fixed point by {dev:.2e}")
            dense[scheme][row["beta"]] = row["rate"]

    # the power identity beta * snr = R * Eb/N0 on every solved point
    for scheme, group in rows.items():
        if scheme == "timeshare_envelope":
            continue
        for row in group:
            lhs, rhs = row["beta"] * row["snr"], row["rate"] * ebn0
            if abs(lhs - rhs) > 1e-12 * max(1.0, rhs):
                problems.append(f"power identity off at {scheme} beta={row['beta']:.4f}")

    # the orderings the paper proves, at every lattice load
    def dense_at(scheme, beta):
        near = [r for b, r in dense[scheme].items() if abs(b - beta) < 1e-9]
        return near[0] if near else None

    for bd in range(2, 3 * d + 1):
        beta = bd / d
        sp, lm = lattice["sparse_opt"][bd]["rate"], lattice["sparse_lmmse"][bd]["rate"]
        cw, rs, rs_lm = (dense_at(s, beta) for s in ("cover_wyner", "rs_cdma_opt", "rs_cdma_lmmse"))
        if None in (cw, rs, rs_lm):
            problems.append(f"no dense point at lattice load {beta:.4f}")
            continue
        if not cw > sp > rs:
            problems.append(f"Cover-Wyner > sparse opt > RS-CDMA opt fails at beta={beta:.4f}")
        if not sp > lm > rs_lm:
            problems.append(f"sparse opt > sparse LMMSE > RS-CDMA LMMSE fails at beta={beta:.4f}")
        if beta <= 1.0:
            orth = dense_at("orthogonal", beta)
            if orth is None or orth < sp:
                problems.append(f"orthogonal below sparse opt at beta={beta:.4f}")

    # the envelope is the upper concave hull of each sparse family
    for route in ("sparse_opt", "sparse_lmmse"):
        gens = [(bd / d, row["rate"]) for bd, row in lattice[route].items()]
        hull = _upper_hull(gens)
        env = []
        # the envelope is sampled at lattice and grid loads, which can differ by one ulp
        for beta, rate in sorted((r["beta"], r["rate"]) for r in rows.get("timeshare_envelope", [])
                                 if r["route"] == route):
            if not env or beta - env[-1][0] > 1e-9:
                env.append((beta, rate))
        if not env:
            problems.append(f"no envelope for {route}")
            continue
        for beta, rate in env:
            if abs(rate - _hull_at(hull, beta)) > 1e-12 * max(1.0, rate):
                problems.append(f"{route} envelope off the hull at beta={beta:.4f}")
        for (x1, y1), (x2, y2), (x3, y3) in zip(env, env[1:], env[2:]):
            if (y3 - y2) / (x3 - x2) - (y2 - y1) / (x2 - x1) > 1e-9:
                problems.append(f"{route} envelope not concave at beta={x2:.4f}")
        for beta, rate in gens:
            if _hull_at(env, beta) < rate - 1e-12:
                problems.append(f"{route} envelope below its generator at beta={beta:.4f}")
    return problems


def _check_validate(key, code, out, err, table, reference) -> list[str]:
    last = out.strip().splitlines()[-1] if out.strip() else ""
    if code != 0 or last != QUICK_SUMMARY:
        return [f"exit {code}, summary {last!r}"]
    return []
