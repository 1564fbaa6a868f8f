"""Command-line front end.

Every run is fully determined by its flags: same seed and options give
byte-identical output files. A sweep runs its grid points in this process, so
``--workers``, kept for existing callers, changes no byte. Commands re-check
their own core invariants and exit nonzero if any fails.

The parser is the only declaration of options and defaults: each subparser
names its ``cmd_*`` function, which reads the parsed arguments and returns
the output text and an optional one-line summary for stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from functools import lru_cache
from pathlib import Path

from . import __version__, complexes, tec, witness
from .errors import SelfCheckError


def _fmt(value: float) -> str:
    """Locale-free decimal rendering at 12 significant digits."""
    return format(float(value), ".12g")


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            Path(out).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot write output file {out!r}: {exc}") from exc


MAX_STEPS = 10_000  # the finest p grid a sweep takes; the grid is a list, so this bounds its memory


def _grid(p_min: float, p_max: float, steps: int) -> list[float]:
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > MAX_STEPS:
        raise ValueError(f"steps must be <= {MAX_STEPS}")
    if not 0.0 <= p_min <= p_max <= 1.0:
        raise ValueError("need 0 <= p-min <= p-max <= 1")
    # The ends are exact, and +0.0 prints a -0 end as 0. Every inner point is in [p-min, p-max] unclamped, as rounding
    # is monotone: if the span is exact (Sterbenz, or both ends subnormal), span * i / (steps - 1) rounds to at most
    # the span, since (steps - 2)(1 + 2^-53) < steps - 1; otherwise p-min < p-max / 2, and the margin (1 - i / (steps
    # - 1)) * span >= 10^-4 * span exceeds the three roundings' error, so the exact sum is below p-max.
    span = p_max - p_min
    return [p_min + 0.0, *(p_min + span * i / (steps - 1) for i in range(1, steps - 1)), p_max + 0.0][:steps]


# ----------------------------------------------------------------------
# syndrome-table


def _syndrome_rows() -> list[tuple[tuple[int, ...], list[int]]]:
    """(syndrome, correction) rows: single-face syndromes in face order, then the rest."""
    code = tec.G8_CODE
    single = [code.syndrome(1 << i) for i in range(len(code.faces))]
    rows = {code.syndrome(leader): tec._pattern(leader) for leader in code.leaders.tolist()}
    return [(s, rows[s]) for s in single + sorted(rows.keys() - single, key=lambda s: [c != 1 for c in s])]


def cmd_syndrome_table(args: argparse.Namespace) -> tuple[str, None]:
    names = tec.G8_CODE.check_names
    rows = _syndrome_rows()
    if len(rows) != 2 ** len(names):
        raise SelfCheckError(f"syndrome table does not cover all {2 ** len(names)} syndromes")
    if args.format == "json":
        payload = [{**dict(zip(names, syndrome)), "correction": corr} for syndrome, corr in rows]
        return json.dumps({"version": __version__, "rows": payload}, indent=2) + "\n", None
    lines = [f"# tecsim {__version__} syndrome table"]
    if args.format == "csv":
        lines.append(",".join(names) + ",correction")
        for syndrome, corr in rows:
            lines.append(",".join(f"{c:+d}" for c in syndrome) + "," + " ".join(map(str, corr)))
    else:
        lines.append(" ".join(f"{n.upper():>4}" for n in names) + "   correction")
        for syndrome, corr in rows:
            cells = " ".join(f"{c:+4d}" for c in syndrome)
            lines.append(cells + "   {" + ",".join(map(str, corr)) + "}")
    return "\n".join(lines) + "\n", None


# ----------------------------------------------------------------------
# sweep


# SweepPoint attributes, in the order of the CSV columns and the JSON point keys
SWEEP_COLUMNS = (
    "p", "mc_protected", "se_protected", "mc_unprotected", "se_unprotected",
    "analytic_protected", "analytic_unprotected",
)


def cmd_sweep(args: argparse.Namespace) -> tuple[str, str]:
    grid = _grid(args.p_min, args.p_max, args.steps)
    if args.workers < 1:
        raise ValueError("workers must be >= 1")
    points = tec.monte_carlo_sweep(grid, args.trials, args.seed, engine=args.engine)
    max_sigma = 0.0
    for pt in points:
        for est, ref in (
            (pt.mc_protected, pt.analytic_protected),
            (pt.mc_unprotected, pt.analytic_unprotected),
        ):
            # the analytic sigma, so a point that observed no failures is still
            # measured against the rate it should have seen; where ref (1 - ref) / trials
            # underflows to 0 for a positive ref (p ~ 1e-161 and below), sqrt(ref) apart does not
            diff = abs(est - ref)
            sigma = tec.binomial_se(ref, pt.trials) or math.sqrt(ref) * math.sqrt((1.0 - ref) / pt.trials)
            if sigma > 0.0:
                max_sigma = max(max_sigma, diff / sigma)
            elif diff > 0.0:
                raise SelfCheckError(
                    f"zero-variance point p={pt.p} deviates from the analytic value"
                )
        exact = tec.exact_enumeration(pt.p)  # correctly rounded; g8's rate stays within 2 ulps of it
        if abs(exact - pt.analytic_protected) > 16 * math.ulp(exact):
            raise SelfCheckError(f"enumeration oracle mismatch at p={pt.p}")
    if args.format == "json":
        payload = {
            "version": __version__,
            "seed": args.seed,
            "trials": args.trials,
            "engine": args.engine,
            "points": [{c: getattr(pt, c) for c in SWEEP_COLUMNS} for pt in points],
            "max_abs_deviation_sigma": max_sigma,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [
            f"# tecsim {__version__} sweep seed={args.seed} trials={args.trials}"
            f" engine={args.engine}",
            ",".join(SWEEP_COLUMNS),
        ]
        lines += [",".join(_fmt(getattr(pt, c)) for c in SWEEP_COLUMNS) for pt in points]
        text = "\n".join(lines) + "\n"
    return text, f"max |MC - analytic| = {max_sigma:.3f} sigma over {len(points)} points"


# ----------------------------------------------------------------------
# witness


DEFAULT_VISIBILITIES = (1.0, 0.605, 0.5, 0.0)


def cmd_witness(args: argparse.Namespace) -> tuple[str, None]:
    results = []
    for v in args.visibility or DEFAULT_VISIBILITIES:
        model = witness.white_noise_model(v)
        w_proj = witness.witness_expectation(model)
        settings = witness.setting_expectations(model)  # the eight settings, evaluated once
        w_set = witness.witness_from_settings(settings)
        if abs(w_proj - w_set) > 1e-10:
            raise SelfCheckError(
                f"witness forms disagree at visibility {v}: {w_proj} vs {w_set}"
            )
        results.append(
            {
                "visibility": v + 0.0,  # --visibility -0 prints as 0.0
                "settings": settings,
                "witness_expectation": w_proj,
                "fidelity_bound": witness.fidelity_bound(w_proj),
            }
        )
    return json.dumps({"version": __version__, "results": results}, indent=2) + "\n", None


# ----------------------------------------------------------------------
# complex


_CUBOID_RE = re.compile(r"^cuboid (\d+)x(\d+)x(\d+)$")


def _load_complex(name: str) -> tuple[str, complexes.CellComplex]:
    if name == "elementary":
        return name, complexes.build_elementary_cell()
    if name == "g8":
        return name, complexes.build_g8_complex()
    match = _CUBOID_RE.match(name)
    if match:
        dims = tuple(int(g) for g in match.groups())
        return name, complexes.build_cuboid_complex(*dims)
    path = Path(name)
    if name and path.exists():  # Path("") is the current directory
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read complex file {name!r}: {exc.strerror}") from exc
        return path.name, complexes.complex_from_json(text)
    raise ValueError(
        f"unknown complex {name!r}: expected elementary, g8, 'cuboid LxWxT', or a JSON file"
    )


def cmd_complex(args: argparse.Namespace) -> tuple[str, None]:
    name, cx = _load_complex(" ".join(args.name))
    counts = dict(zip(("volumes", "faces", "edges", "vertices"), cx.counts()))
    # construction re-validates boundary-of-boundary; surviving it means ok
    payload = {
        "version": __version__,
        "name": name,
        "counts": counts,
        "qubits": counts["faces"] + counts["edges"],
        "boundary_of_boundary_ok": True,
        **complexes.closed_surface_summary(cx),
    }
    return json.dumps(payload, indent=2) + "\n", None


# ----------------------------------------------------------------------
# argument parsing


@lru_cache(maxsize=1)  # built once per process: each parse_args fills a fresh namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tecsim",
        description="Topological error correction on cluster states, desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"tecsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("syndrome-table", help="print the 16-entry decode table")
    table.set_defaults(run=cmd_syndrome_table)
    table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    table.add_argument("--out", default=None)

    sweep = sub.add_parser("sweep", help="Monte-Carlo error-rate sweep")
    sweep.set_defaults(run=cmd_sweep)
    sweep.add_argument("--seed", type=int, default=2026)
    sweep.add_argument("--trials", type=int, default=100_000)
    sweep.add_argument("--p-min", type=float, default=0.0)
    sweep.add_argument("--p-max", type=float, default=1.0)
    sweep.add_argument("--steps", type=int, default=21)
    sweep.add_argument("--engine", choices=tec.SWEEP_ENGINES, default="fast")
    sweep.add_argument(
        "--workers", type=int, default=1,
        help="kept for existing callers: any value >= 1 prints the same bytes, as the points run in this process",
    )
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", default=None)

    wit = sub.add_parser("witness", help="witness expectations for white-noise models")
    wit.set_defaults(run=cmd_witness)
    wit.add_argument(
        "--visibility",
        type=float,
        action="append",
        default=None,
        help="repeatable; defaults to " + ", ".join(map(str, DEFAULT_VISIBILITIES)),
    )
    wit.add_argument("--out", default=None)

    cpx = sub.add_parser("complex", help="inspect a built-in or JSON cell complex")
    cpx.set_defaults(run=cmd_complex)
    cpx.add_argument(
        "name",
        nargs="+",
        help="elementary | g8 | cuboid LxWxT | path to a complex JSON file",
    )
    cpx.add_argument("--out", default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, summary = args.run(args)
        _write_output(text, args.out)
    except (ValueError, KeyError) as exc:
        print(f"tecsim: error: {exc}", file=sys.stderr)
        return 1
    except (AssertionError, SelfCheckError) as exc:  # a broken invariant of tecsim, not of the input
        print(f"tecsim: internal error: {exc}", file=sys.stderr)
        return 3
    if summary is not None:  # after the write, so a failed write is the only stderr line
        print(summary, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
