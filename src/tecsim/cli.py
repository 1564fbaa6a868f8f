"""Command-line front end.

Every run is fully determined by its flags: same seed and options give
byte-identical output files regardless of worker count. Commands re-check
their own core invariants and exit nonzero if any fails.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

from . import __version__, complexes, tec, witness
from .errors import SelfCheckError


@dataclass(frozen=True)
class RunConfig:
    """Everything that determines a run's output."""

    command: str
    seed: int = 2026
    trials: int = 100_000
    p_min: float = 0.0
    p_max: float = 1.0
    steps: int = 21
    out: str | None = None
    engine: str = "fast"
    complex_name: str = "g8"
    fmt: str = "csv"
    workers: int = 1
    visibilities: tuple[float, ...] = ()


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
            raise SelfCheckError(f"cannot write output file {out!r}: {exc}") from exc


def _grid(p_min: float, p_max: float, steps: int) -> list[float]:
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not 0.0 <= p_min <= p_max <= 1.0:
        raise ValueError("need 0 <= p-min <= p-max <= 1")
    if steps == 1:
        return [p_min]
    span = p_max - p_min
    return [p_min + span * i / (steps - 1) for i in range(steps)]


# ----------------------------------------------------------------------
# syndrome-table


def _syndrome_rows() -> list[dict]:
    table = tec.build_decode_table()
    single = [tec.syndrome_of_pattern({q}) for q in tec.FACE_QUBITS]
    ordered = single + sorted(
        (s for s in table if s not in set(single)),
        key=lambda s: [c != 1 for c in s],
    )
    rows = []
    for syndrome in ordered:
        correction = table[syndrome]
        rows.append(
            {
                "c12": syndrome.c12,
                "c25": syndrome.c25,
                "c36": syndrome.c36,
                "c34": syndrome.c34,
                "correction": sorted(correction),
            }
        )
    return rows


def cmd_syndrome_table(config: RunConfig) -> str:
    rows = _syndrome_rows()
    if len(rows) != 16:
        raise SelfCheckError("syndrome table does not cover all 16 syndromes")
    if config.fmt == "json":
        return json.dumps({"version": __version__, "rows": rows}, indent=2) + "\n"
    lines = [f"# tecsim {__version__} syndrome table"]
    if config.fmt == "csv":
        lines.append("c12,c25,c36,c34,correction")
        for row in rows:
            corr = " ".join(str(q) for q in row["correction"])
            lines.append(
                f"{row['c12']:+d},{row['c25']:+d},{row['c36']:+d},{row['c34']:+d},{corr}"
            )
    else:
        lines.append(f"{'C12':>4} {'C25':>4} {'C36':>4} {'C34':>4}   correction")
        for row in rows:
            corr = "{" + ",".join(str(q) for q in row["correction"]) + "}"
            lines.append(
                f"{row['c12']:+4d} {row['c25']:+4d} {row['c36']:+4d} {row['c34']:+4d}   {corr}"
            )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# sweep


def cmd_sweep(config: RunConfig) -> str:
    grid = _grid(config.p_min, config.p_max, config.steps)
    points = tec.monte_carlo_sweep(
        grid, config.trials, config.seed, engine=config.engine, workers=config.workers
    )
    max_sigma = 0.0
    for pt in points:
        for est, ref in (
            (pt.mc_protected, pt.analytic_protected),
            (pt.mc_unprotected, pt.analytic_unprotected),
        ):
            # the analytic sigma, so a point that observed no failures is still
            # measured against the rate it should have seen
            diff, sigma = abs(est - ref), tec.binomial_se(ref, pt.trials)
            if sigma > 0.0:
                max_sigma = max(max_sigma, diff / sigma)
            elif diff > 0.0:
                raise SelfCheckError(
                    f"zero-variance point p={pt.p} deviates from the analytic value"
                )
        if abs(tec.exact_enumeration(pt.p) - pt.analytic_protected) > 1e-12:
            raise SelfCheckError(f"enumeration oracle mismatch at p={pt.p}")
    header = (
        f"# tecsim {__version__} sweep seed={config.seed} trials={config.trials}"
        f" engine={config.engine}"
    )
    if config.fmt == "json":
        payload = {
            "version": __version__,
            "seed": config.seed,
            "trials": config.trials,
            "engine": config.engine,
            "points": [
                {
                    "p": pt.p,
                    "mc_protected": pt.mc_protected,
                    "se_protected": pt.se_protected,
                    "mc_unprotected": pt.mc_unprotected,
                    "se_unprotected": pt.se_unprotected,
                    "analytic_protected": pt.analytic_protected,
                    "analytic_unprotected": pt.analytic_unprotected,
                }
                for pt in points
            ],
            "max_abs_deviation_sigma": max_sigma,
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        lines = [header]
        lines.append(
            "p,mc_protected,se_protected,mc_unprotected,se_unprotected,"
            "analytic_protected,analytic_unprotected"
        )
        for pt in points:
            lines.append(
                ",".join(
                    _fmt(v)
                    for v in (
                        pt.p,
                        pt.mc_protected,
                        pt.se_protected,
                        pt.mc_unprotected,
                        pt.se_unprotected,
                        pt.analytic_protected,
                        pt.analytic_unprotected,
                    )
                )
            )
        text = "\n".join(lines) + "\n"
    print(
        f"max |MC - analytic| = {max_sigma:.3f} sigma over {len(points)} points",
        file=sys.stderr,
    )
    return text


# ----------------------------------------------------------------------
# witness


def cmd_witness(config: RunConfig) -> str:
    results = []
    for v in config.visibilities:
        model = witness.white_noise_model(v)
        w_proj = witness.witness_expectation(model, "projector")
        w_set = witness.witness_expectation(model, "settings")
        if abs(w_proj - w_set) > 1e-10:
            raise SelfCheckError(
                f"witness forms disagree at visibility {v}: {w_proj} vs {w_set}"
            )
        results.append(
            {
                "visibility": v,
                "settings": witness.setting_expectations(model),
                "witness_expectation": w_proj,
                "fidelity_bound": witness.fidelity_bound(w_proj),
            }
        )
    return json.dumps({"version": __version__, "results": results}, indent=2) + "\n"


# ----------------------------------------------------------------------
# complex


_CUBOID_RE = re.compile(r"^cuboid[ :](\d+)x(\d+)x(\d+)$")


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
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(f"cannot read complex file {name!r}: {exc.strerror}") from exc
        return path.name, complexes.complex_from_json(text)
    raise ValueError(
        f"unknown complex {name!r}: expected elementary, g8, 'cuboid LxWxT', or a JSON file"
    )


def cmd_complex(config: RunConfig) -> str:
    name, cx = _load_complex(config.complex_name)
    volumes, faces, edges, vertices = cx.counts()
    # construction re-validates boundary-of-boundary; surviving it means ok
    payload = {
        "version": __version__,
        "name": name,
        "counts": {
            "volumes": volumes,
            "faces": faces,
            "edges": edges,
            "vertices": vertices,
        },
        "qubits": faces + edges,
        "boundary_of_boundary_ok": True,
        **complexes.closed_surface_summary(cx),
    }
    return json.dumps(payload, indent=2) + "\n"


# ----------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tecsim",
        description="Topological error correction on cluster states, desk scale.",
    )
    parser.add_argument("--version", action="version", version=f"tecsim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("syndrome-table", help="print the 16-entry decode table")
    table.add_argument("--format", choices=("text", "csv", "json"), default="text")
    table.add_argument("--out", default=None)

    sweep = sub.add_parser("sweep", help="Monte-Carlo error-rate sweep")
    sweep.add_argument("--seed", type=int, default=2026)
    sweep.add_argument("--trials", type=int, default=100_000)
    sweep.add_argument("--p-min", type=float, default=0.0)
    sweep.add_argument("--p-max", type=float, default=1.0)
    sweep.add_argument("--steps", type=int, default=21)
    sweep.add_argument("--engine", choices=tec.SWEEP_ENGINES, default="fast")
    sweep.add_argument("--workers", type=int, default=1)
    sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    sweep.add_argument("--out", default=None)

    wit = sub.add_parser("witness", help="witness expectations for white-noise models")
    wit.add_argument(
        "--visibility",
        type=float,
        action="append",
        default=None,
        help="repeatable; defaults to 1.0, 0.605, 0.5, 0.0",
    )
    wit.add_argument("--out", default=None)

    cpx = sub.add_parser("complex", help="inspect a built-in or JSON cell complex")
    cpx.add_argument(
        "name",
        nargs="+",
        help="elementary | g8 | cuboid LxWxT | path to a complex JSON file",
    )
    cpx.add_argument("--out", default=None)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "syndrome-table":
        return RunConfig(command=args.command, fmt=args.format, out=args.out)
    if args.command == "sweep":
        return RunConfig(
            command=args.command,
            seed=args.seed,
            trials=args.trials,
            p_min=args.p_min,
            p_max=args.p_max,
            steps=args.steps,
            engine=args.engine,
            workers=args.workers,
            fmt=args.format,
            out=args.out,
        )
    if args.command == "witness":
        vis = args.visibility if args.visibility is not None else [1.0, 0.605, 0.5, 0.0]
        return RunConfig(command=args.command, visibilities=tuple(vis), out=args.out)
    return RunConfig(command=args.command, complex_name=" ".join(args.name), out=args.out)


_COMMANDS = {
    "syndrome-table": cmd_syndrome_table,
    "sweep": cmd_sweep,
    "witness": cmd_witness,
    "complex": cmd_complex,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config_from_args(args)
    try:
        text = _COMMANDS[config.command](config)
        _write_output(text, config.out)
    except (ValueError, KeyError, SelfCheckError) as exc:
        print(f"tecsim: error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:  # a broken invariant of tecsim, not of the input
        print(f"tecsim: internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
