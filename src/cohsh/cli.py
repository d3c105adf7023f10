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
2 for operational problems such as an invalid config, insufficient
statistics or an output file that cannot be written.  All output is
deterministic for a fixed config and seed, independent of the worker count.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys
from functools import lru_cache
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .chsh import ChshRun, fit_visibility, run_chsh, sweep_correlation
from .config import ConfigError, ExperimentConfig, OutputFormat, RunMode, load_config
from .elements import apply, phase_shift, polarization_rotator
from .fock import Port, StateVector, basis_state, density_matrix
from .measurement import (
    RECOMBINER,
    AnalyzerSetting,
    DetectorModel,
    analyzer_transform,
    coherent_outcome_table,
    exact_rates,
    protocol,
    setup_transform,
)
from .source import (
    SourceSpec,
    phase_averaged_coherent,
    poisson_diagonal_mixture,
    trace_distance,
    two_mode_input,
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
        help="also write every raw table (full / blocked runs) as CSV: per-trial "
        "probabilities in exact mode, counts in Monte Carlo modes",
    )
    p_chsh.set_defaults(func=_cmd_chsh)

    p_sweep = sub.add_parser("sweep", help="sweep E over the difference angle")
    add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="run the built-in validation battery")
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
    """The config file, or the defaults, with the given flags laid over it.

    The flags go through the config parser, so a flag value and a file value
    meet the same checks; a run without flags is parsed once, at load.  The
    output paths are checked here, before any run (see _refuse_unwritable),
    and so is an output path that names the config file, which the run would
    overwrite, or a --dump-tables path that names the output file, whose
    JSON would overwrite the tables.
    """
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    top = {k: getattr(args, k) for k in ("seed", "mode", "trials", "repetitions", "workers")}
    top = {k: v for k, v in top.items() if v is not None}
    output = {k: v for k, v in (("path", args.out), ("format", args.format)) if v is not None}
    if top or output:
        doc = cfg.to_json_dict()
        doc.update(top)
        doc["output"].update(output)
        cfg = ExperimentConfig.from_json_dict(doc)
    tables = getattr(args, "dump_tables", None)
    _refuse_unwritable(cfg.out_path, tables)
    for flag, path in (("--out", cfg.out_path), ("--dump-tables", tables)):
        if args.config and path and os.path.exists(path) and os.path.samefile(path, args.config):
            raise OutputError(f"{flag} names the config file {path!r}")
    if tables and cfg.out_path and Path(tables).resolve() == Path(cfg.out_path).resolve():
        raise OutputError(f"--dump-tables and --out name the same file {tables!r}")
    return cfg


def _load_json_only(args: argparse.Namespace) -> ExperimentConfig:
    """_load for the commands that write JSON and nothing else."""
    cfg = _load(args)
    if cfg.out_format is not OutputFormat.JSON:
        raise ConfigError(f"the {args.command} command writes JSON only; use --format json")
    return cfg


class OutputError(Exception):
    """An output file that cannot be written."""


def _refuse_unwritable(*paths: str | None) -> None:
    """Refuse an output path that is a directory or lies in a missing one.

    The message is the one _emit gives when the write fails, and no file is
    created.
    """
    for path in paths:
        if path is None:
            continue
        target = Path(path)
        if target.is_dir():
            code = errno.EISDIR
        elif not target.parent.is_dir():
            code = errno.ENOTDIR if target.parent.exists() else errno.ENOENT
        else:
            continue
        raise OutputError(f"cannot write {path!r}: {os.strerror(code)}")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OutputError(f"cannot write {path!r}: {exc.strerror}") from exc


def _summary_stream(path: str | None):
    # Keep machine output clean when it goes to stdout.
    return sys.stdout if path is not None else sys.stderr


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _fmt_number(x: float) -> str:
    f = float(x)
    return str(int(f)) if f.is_integer() else repr(f)


def _tables_csv(run: ChshRun) -> str:
    """The --dump-tables CSV: a row per raw table, in raw[setting, repetition, configuration]
    order, naming its setting and its configuration's emitted means and shutter."""
    rows = ["setting_alpha,setting_beta,mu_a,mu_b,blocked,n_pp,n_pm,n_mp,n_mm,trials"]
    for setting, per_setting in zip(run.settings, run.raw.tolist()):
        for per_repetition in per_setting:
            for cells, (config, _) in zip(per_repetition, run.runs):
                meta = map(_fmt_number, (setting.alpha, setting.beta, config.mu_a, config.mu_b))
                fields = [*meta, config.blocked.value, *map(_fmt_number, cells), str(run.trials)]
                rows.append(",".join(fields))
    return "\n".join(rows) + "\n"


def _cmd_chsh(args: argparse.Namespace) -> int:
    cfg = _load_json_only(args)
    run = run_chsh(
        cfg.source,
        cfg.detector,
        cfg.quad,
        mode=cfg.mode,
        trials=cfg.trials,
        repetitions=cfg.repetitions,
        seed=cfg.seed,
    )
    if args.dump_tables:
        _emit(_tables_csv(run), args.dump_tables)
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
        cfg.source,
        cfg.detector,
        cfg.sweep,
        mode=cfg.mode,
        trials=cfg.trials,
        repetitions=cfg.repetitions,
        seed=cfg.seed,
    )
    columns = ("theta_radians", "e_mean", "e_std", "trials", "repetitions", "e_ideal")
    rows = [
        (p.theta, p.e_mean, p.e_std, p.trials, p.repetitions, -math.cos(2.0 * p.theta))
        for p in points
    ]
    if cfg.out_format is OutputFormat.JSON:
        text = _json_text([dict(zip(columns, row)) for row in rows])
    else:
        text = "\n".join([",".join(columns)] + [",".join(map(repr, row)) for row in rows]) + "\n"
    _emit(text, cfg.out_path)

    out = _summary_stream(cfg.out_path)
    try:
        fit = fit_visibility((p.theta, p.e_mean, p.e_std) for p in points)
        print(f"fitted visibility eta = {fit.eta:.6f} +- {fit.eta_error:.6f}", file=out)
    except ValueError as exc:
        print(f"visibility fit skipped: {exc}", file=out)
    return 0


def validation_checks() -> list[tuple[str, bool, str]]:
    """The validation battery: (name, passed, detail) per check."""
    checks: list[tuple[str, bool, str]] = []

    stack = [
        RECOMBINER,
        polarization_rotator(Port.C, 0.3),
        phase_shift(Port.B, 1.1),
        analyzer_transform(AnalyzerSetting(0.2, 0.9)),
        setup_transform(AnalyzerSetting(0.7, -0.4)),
    ]
    defect = max(t.unitarity_defect() for t in stack)
    checks.append(("unitarity", defect < 1e-12, f"max defect {defect:.3e} (tol 1e-12)"))

    out = apply(RECOMBINER, StateVector.from_basis(basis_state(aH=1, bH=1)))
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
    rho = density_matrix(mixture, 8)
    sigma = density_matrix(poisson_diagonal_mixture(0.2, 8), 8)
    distance = trace_distance(rho, sigma)
    checks.append(
        ("phase-average", distance < 1e-6, f"trace distance {distance:.3e} (tol 1e-6)")
    )

    spec = SourceSpec(0.05, 0.05)
    setting = AnalyzerSetting(0.0, math.pi / 8)
    detector = DetectorModel()
    residual = 0.0
    (tables,) = exact_rates(spec, (setting,), detector)
    for table, (config, _) in zip(tables, protocol(spec, detector)):
        coherent = coherent_outcome_table(config, setting, detector)
        residual = max(residual, float(np.abs(table - coherent).max() / coherent.max()))
    checks.append(
        (
            "two-photon-decomposition",
            residual < 1e-12,
            f"exact vs coherent tables: max relative residual {residual:.3e} (tol 1e-12)",
        )
    )

    points = sweep_correlation(spec, detector, (0.0, math.pi / 8, math.pi / 4, 1.0, 2.5))
    worst = max(abs(p.e_mean + math.cos(2.0 * p.theta)) for p in points)
    checks.append(("singlet-law", worst < 1e-9, f"max |E + cos 2t| = {worst:.3e} (tol 1e-9)"))
    return checks


def _cmd_validate(args: argparse.Namespace) -> int:
    checks = validation_checks()
    failed = 0
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_dump_state(args: argparse.Namespace) -> int:
    cfg = _load_json_only(args)
    mixture, discarded = two_mode_input(cfg.source)
    doc = {"discarded_weight": float(discarded), "components": mixture.to_json_obj()}
    _emit(_json_text(doc), cfg.out_path)
    return 0


def _cmd_dump_transform(args: argparse.Namespace) -> int:
    cfg = _load_json_only(args)
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
    except (ValueError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
