"""Command-line runner.

Subcommands:

    cohsh chsh            three-configuration protocol at the four CHSH
                          settings; writes a result JSON and prints a summary
    cohsh sweep           correlation E versus difference angle; writes CSV
    cohsh validate        built-in physics validation battery
    cohsh dump-state      source mixture as JSON
    cohsh dump-transform  splitter + analyzer unitary as JSON

Exit status is 0 for any successfully computed physics result (violating the
inequality is a result, not an error), 1 for a failed validation battery, and
2 for operational problems such as an invalid config or insufficient
statistics.  All output is deterministic for a fixed config and seed,
independent of the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .chsh import fit_visibility, measure_protocol, run_chsh, sweep_correlation
from .config import (
    ConfigError,
    ExperimentConfig,
    OutputFormat,
    RunMode,
    apply_overrides,
    load_config,
)
from .elements import apply, beam_splitter, compose, phase_shift, polarization_rotator
from .fock import AH, DensityMixture, Port, StateVector, basis_state, density_matrix
from .measurement import (
    AnalyzerSetting,
    CountTable,
    DetectorModel,
    analyzer_transform,
    coincidence_probabilities,
    exact_rates,
    setup_transform,
)
from .source import (
    BlockedArm,
    SourceSpec,
    phase_averaged_coherent,
    poisson_diagonal_mixture,
    trace_distance,
    two_mode_input,
    two_photon_component,
)


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every main call."""
    parser = argparse.ArgumentParser(
        prog="cohsh",
        description="CHSH Bell-test simulator for phase-randomized weak coherent light",
    )
    parser.add_argument("--version", action="version", version=f"cohsh {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", metavar="PATH", help="experiment config JSON")
        p.add_argument("--seed", type=int, metavar="N", help="override the config seed")
        p.add_argument(
            "--mode", choices=[m.value for m in RunMode], help="override the run mode"
        )
        p.add_argument("--trials", type=int, metavar="N", help="trials per configuration")
        p.add_argument("--repetitions", type=int, metavar="K", help="protocol repetitions")
        p.add_argument(
            "--workers",
            type=int,
            metavar="N",
            help="accepted for compatibility (at least 1); changes neither speed nor results",
        )
        p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        p.add_argument(
            "--format", choices=[f.value for f in OutputFormat], help="output format"
        )

    p_chsh = sub.add_parser("chsh", help="run the CHSH protocol at the four settings")
    add_common(p_chsh)
    p_chsh.add_argument(
        "--dump-tables",
        metavar="PATH",
        help="also write every raw N table (full / blocked runs) as CSV",
    )
    p_chsh.set_defaults(func=_cmd_chsh)

    p_sweep = sub.add_parser("sweep", help="sweep E over the difference angle")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the built-in validation battery")
    p_val.add_argument(
        "--bs-angle",
        type=float,
        default=math.pi / 4,
        metavar="RAD",
        help="splitter transmissivity angle used by the battery "
        "(anything other than pi/4 is a deliberate corruption and must fail)",
    )
    p_val.set_defaults(func=_cmd_validate)

    p_dstate = sub.add_parser("dump-state", help="write the source mixture as JSON")
    add_common(p_dstate)
    p_dstate.set_defaults(func=_cmd_dump_state)

    p_dtrans = sub.add_parser(
        "dump-transform", help="write the splitter + analyzer unitary as JSON"
    )
    add_common(p_dtrans)
    p_dtrans.set_defaults(func=_cmd_dump_transform)
    return parser


def _load(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    return apply_overrides(
        cfg,
        seed=args.seed,
        mode=args.mode,
        trials=args.trials,
        repetitions=args.repetitions,
        out_path=args.out,
        out_format=args.format,
        workers=args.workers,
    )


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="\n")


def _summary_stream(path: str | None):
    # Keep machine output clean when it goes to stdout.
    return sys.stdout if path is not None else sys.stderr


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _protocol_source(cfg: ExperimentConfig) -> SourceSpec:
    if cfg.source.blocked is not BlockedArm.NONE:
        raise ConfigError(
            "the runner performs the blocked configurations itself; "
            "set source.blocked to none"
        )
    return cfg.source


def _cmd_chsh(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if cfg.out_format is not OutputFormat.JSON:
        raise ConfigError("the chsh command writes JSON; use --format json")
    run = run_chsh(
        _protocol_source(cfg),
        cfg.detector,
        cfg.quad,
        mode=cfg.mode,
        trials=cfg.trials,
        repetitions=cfg.repetitions,
        seed=cfg.seed,
    )
    if args.dump_tables:
        rows = [CountTable.CSV_HEADER] + [t.csv_row() for t in run.tables]
        _emit("\n".join(rows) + "\n", args.dump_tables)
    _emit(_json_text(run.result.to_json_dict()), cfg.out_path)

    out = _summary_stream(cfg.out_path)
    result = run.result
    labels = ("E(a,b)", "E(a,b')", "E(a',b)", "E(a',b')")
    print(f"mode={cfg.mode.value} quad={tuple(round(a, 6) for a in cfg.quad)}", file=out)
    for label, e, err in zip(labels, result.e_values, result.e_errors):
        print(f"  {label:9s} = {e:+.6f} +- {err:.6f}", file=out)
    verdict = "violates" if result.s_value > 2.0 else "does not violate"
    print(
        f"S = {result.s_value:.6f} +- {result.s_error:.6f}  "
        f"({verdict} the classical bound 2)",
        file=out,
    )
    if run.clamped > 0.0:
        print(f"clamped negative subtracted weight: {run.clamped:g}", file=out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if cfg.sweep is None:
        raise ConfigError("sweep command needs an angles.sweep grid in the config")
    points = sweep_correlation(
        _protocol_source(cfg),
        cfg.detector,
        cfg.sweep,
        mode=cfg.mode,
        trials=cfg.trials,
        repetitions=cfg.repetitions,
        seed=cfg.seed,
    )
    if cfg.out_format is OutputFormat.JSON:
        doc = [
            {
                "theta_radians": p.theta,
                "e_mean": p.e_mean,
                "e_std": p.e_std,
                "trials": p.trials,
                "repetitions": p.repetitions,
                "e_ideal": -math.cos(2.0 * p.theta),
            }
            for p in points
        ]
        _emit(_json_text(doc), cfg.out_path)
    else:
        rows = ["theta_radians,e_mean,e_std,trials,repetitions,e_ideal"]
        for p in points:
            rows.append(
                f"{p.theta!r},{p.e_mean!r},{p.e_std!r},{p.trials},"
                f"{p.repetitions},{-math.cos(2.0 * p.theta)!r}"
            )
        _emit("\n".join(rows) + "\n", cfg.out_path)

    out = _summary_stream(cfg.out_path)
    try:
        fit = fit_visibility((p.theta, p.e_mean, p.e_std) for p in points)
        print(f"fitted visibility eta = {fit.eta:.6f} +- {fit.eta_error:.6f}", file=out)
    except ValueError as exc:
        print(f"visibility fit skipped: {exc}", file=out)
    return 0


def validation_checks(bs_angle: float = math.pi / 4) -> list[tuple[str, bool, str]]:
    """The validation battery: (name, passed, detail) per check."""
    checks: list[tuple[str, bool, str]] = []

    splitter = beam_splitter(Port.A, Port.B, bs_angle)
    stack = [
        splitter,
        polarization_rotator(Port.C, 0.3),
        phase_shift(Port.B, 1.1),
        analyzer_transform(AnalyzerSetting(0.2, 0.9)),
        compose(splitter, analyzer_transform(AnalyzerSetting(0.7, -0.4))),
    ]
    defect = max(t.unitarity_defect() for t in stack)
    checks.append(("unitarity", defect < 1e-12, f"max defect {defect:.3e} (tol 1e-12)"))

    out = apply(splitter, StateVector.from_basis(basis_state(aH=1, bH=1)))
    residual = max(
        (
            abs(amp)
            for bstate, amp in out.items()
            if sum(bstate.occ[4:6]) == 1 and sum(bstate.occ[6:8]) == 1
        ),
        default=0.0,
    )
    checks.append(
        ("hom-cancellation", residual < 1e-12, f"one-per-port amplitude {residual:.3e} (tol 1e-12)")
    )

    mixture = phase_averaged_coherent(0.2, 8, 256)
    rho = density_matrix(mixture, [AH], 8)
    sigma = density_matrix(poisson_diagonal_mixture(0.2, 8), [AH], 8)
    distance = trace_distance(rho, sigma)
    checks.append(
        ("phase-average", distance < 1e-6, f"trace distance {distance:.3e} (tol 1e-6)")
    )

    spec = SourceSpec(0.05, 0.05)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    detector = DetectorModel()
    full = exact_rates(spec, setting, detector)[0].values()
    sector = two_photon_component(spec)
    pieces = np.zeros(4)
    for coeff, state in zip(
        (spec.mu_a * spec.mu_b, spec.mu_a**2 / 2.0, spec.mu_b**2 / 2.0),
        (sv for _, sv in sector.components),
    ):
        pieces += coeff * coincidence_probabilities(
            DensityMixture(((1.0, state),)), setting, detector
        ).values()
    residual = float(np.abs(full - pieces).max())
    checks.append(
        ("two-photon-decomposition", residual < 1e-12, f"max residual {residual:.3e} (tol 1e-12)")
    )

    worst = 0.0
    for theta in (0.0, math.pi / 8, math.pi / 4, 1.0, 2.5):
        corr, _, _ = measure_protocol(spec, AnalyzerSetting(theta, 0.0), detector)
        worst = max(worst, abs(corr.e_value + math.cos(2.0 * theta)))
    checks.append(("singlet-law", worst < 1e-9, f"max |E + cos 2t| = {worst:.3e} (tol 1e-9)"))
    return checks


def _cmd_validate(args: argparse.Namespace) -> int:
    checks = validation_checks(args.bs_angle)
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_dump_state(args: argparse.Namespace) -> int:
    cfg = _load(args)
    mixture, discarded = two_mode_input(cfg.source)
    doc = {"discarded_weight": float(discarded), "components": mixture.to_json_obj()}
    _emit(_json_text(doc), cfg.out_path)
    return 0


def _cmd_dump_transform(args: argparse.Namespace) -> int:
    cfg = _load(args)
    setting = AnalyzerSetting(cfg.quad[0], cfg.quad[2])
    _emit(_json_text(setup_transform(setting).to_json_obj()), cfg.out_path)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
