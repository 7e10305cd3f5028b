"""Command-line interface: seeded sweeps, analysis, and figure payloads.

All state flows through files so archived sweeps can be re-analyzed.  Exit
codes: 0 success, 2 flag/usage validation, 3 input-file validation, 4
statistical/analysis failure, 5 I/O failure.  Errors print one
machine-parseable line to stderr: ``dyadsim: error: <category>: <message>``.
"""

import argparse
import os
import sys
from pathlib import Path

from dyadsim import __version__, dynamics, report as report_mod, sweep as sweep_mod
from dyadsim.dynamics import ContextMatrix, ModelParams
from dyadsim.sweep import InvalidSweepError, SweepConfig

__all__ = ["parse_context", "build_parser", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_ANALYSIS = 4
EXIT_IO = 5

ENV_OUT_DIR = "DYADSIM_OUT_DIR"

_TOKEN_NAMES = ("s1", "o1", "o2", "s2")

DEFAULTS = {
    "seed": 42,
    "runs": 100,
    "turns": 500,
    "alpha": 0.1,
    "influence": 0.5,
    "noise": 0.5,
    "threshold": 0.25,
    "max_lag": 20,
    "bins": 40,
    "workers": 1,
}


def parse_context(text: str) -> ContextMatrix:
    """Parse ``s1,o1;o2,s2`` (tokens in {-1, 0, 1}, optional whitespace)."""
    rows = text.split(";")
    if len(rows) != 2:
        raise ValueError(
            f"context {text!r} must have two ';'-separated rows (s1,o1;o2,s2)"
        )
    tokens = []
    for row in rows:
        tokens.extend(row.split(","))
    if len(tokens) != 4:
        raise ValueError(f"context {text!r} must have four entries (s1,o1;o2,s2)")
    values = []
    for position, (name, token) in enumerate(zip(_TOKEN_NAMES, tokens), start=1):
        stripped = token.strip()
        try:
            value = int(stripped)
        except ValueError:
            raise ValueError(
                f"context token {position} ({name}) = {stripped!r} is not an integer"
            ) from None
        if value not in (-1, 0, 1):
            raise ValueError(
                f"context token {position} ({name}) = {stripped!r} is outside {{-1, 0, 1}}"
            )
        values.append(value)
    return ContextMatrix(*values)


def _context_arg(text: str) -> ContextMatrix:
    try:
        return parse_context(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


_COMMON_FLAGS = (  # flag, type, help
    ("--seed", int, "master seed (default 42)"),
    ("--runs", int, "runs per context (default 100)"),
    ("--turns", int, "turns per run (default 500)"),
    ("--alpha", float, "decay fraction (default 0.1)"),
    ("--influence", float, "transmission gain per context entry (default 0.5)"),
    ("--noise", float, "noise half-width (default 0.5)"),
    ("--threshold", float, "tail threshold on r (default 0.25)"),
    ("--config", Path, "key = value file mirroring the flags"),
    ("--out", Path, "output file or directory"),
)


def _add_common_flags(parser):
    for flag, kind, text in _COMMON_FLAGS:
        parser.add_argument(flag, type=kind, default=None, help=text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dyadsim",
        description="Two-agent coordination sweeps, metrics, and reports.",
        epilog=(
            "exit codes: 0 success, 2 flag validation, 3 input-file validation, "
            "4 analysis error, 5 I/O error. "
            f"${ENV_OUT_DIR} sets the default output directory."
        ),
    )
    parser.add_argument("--version", action="version", version=f"dyadsim {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("sweep", help="run the 81-context sweep and write the CSV")
    _add_common_flags(p)
    p.add_argument("--workers", type=int, default=None, help="accepted, no effect (default 1)")

    p = commands.add_parser("analyze", help="analyze a sweep CSV into report.json + table1.csv")
    _add_common_flags(p)
    p.add_argument("--input", type=Path, required=True, help="sweep CSV to analyze")

    p = commands.add_parser("simulate", help="simulate one seeded run and write its trajectory")
    _add_common_flags(p)
    p.add_argument("--context", type=_context_arg, required=True,
                   help='e.g. "1,0;1,-1"; write --context=-1,0;1,-1 when s1 is -1')

    p = commands.add_parser("xcorr", help="write mean cross-correlation CSVs for context batches")
    _add_common_flags(p)
    p.add_argument("--context", type=_context_arg, action="append",
                   help="repeatable; write --context=-1,0;1,-1 when s1 is -1")
    p.add_argument("--max-lag", type=int, default=None, help="largest lag (default 20)")

    p = commands.add_parser("lags", help="write turn-taking lag CSVs for context batches")
    _add_common_flags(p)
    p.add_argument("--context", type=_context_arg, action="append",
                   help="repeatable; write --context=-1,0;1,-1 when s1 is -1")
    p.add_argument("--max-lag", type=int, default=None, help="largest lag (default 20)")

    p = commands.add_parser("figures", help="write all figure panel payloads")
    _add_common_flags(p)
    p.add_argument("--input", type=Path, default=None, help="existing sweep CSV for the histogram")
    p.add_argument("--context", type=_context_arg, action="append",
                   help="repeatable; write --context=-1,0;1,-1 when s1 is -1")
    p.add_argument("--max-lag", type=int, default=None, help="largest lag (default 20)")
    p.add_argument("--bins", type=int, default=None, help="histogram bins (default 40)")
    p.add_argument("--workers", type=int, default=None, help="accepted, no effect (default 1)")

    return parser


def _read_config_file(path: Path) -> dict:
    """Config-file values as ``key -> (line number, raw text)``."""
    values = {}
    try:
        text = path.read_text()
    except OSError as exc:
        raise InvalidSweepError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidSweepError(f"config file line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in DEFAULTS:
            raise InvalidSweepError(f"config file line {lineno}: unknown key {key!r}")
        values[key] = (lineno, value)
    return values


_CAST_NAMES = {int: "an int", float: "a float"}


def _resolve(args, file_values: dict, key: str, cast):
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    if key not in file_values:
        return DEFAULTS[key]
    lineno, text = file_values[key]
    try:
        return cast(text)
    except ValueError:
        raise InvalidSweepError(
            f"config file line {lineno}: {key} = {text!r} is not {_CAST_NAMES[cast]}"
        ) from None


def _build_config(args) -> tuple[SweepConfig, dict]:
    """Sweep config from flags over config-file values over defaults, plus
    the file values for resolving the command's other keys."""
    file_values = _read_config_file(args.config) if args.config else {}
    params = ModelParams(
        alpha=_resolve(args, file_values, "alpha", float),
        influence=_resolve(args, file_values, "influence", float),
        noise_half_width=_resolve(args, file_values, "noise", float),
        turns=_resolve(args, file_values, "turns", int),
    )
    config = SweepConfig(
        master_seed=_resolve(args, file_values, "seed", int),
        runs_per_context=_resolve(args, file_values, "runs", int),
        params=params,
        tail_threshold=_resolve(args, file_values, "threshold", float),
    )
    return config, file_values


def _out_dir(args) -> Path:
    if args.out is not None:
        return args.out
    return Path(os.environ.get(ENV_OUT_DIR, "."))


def _error(category: str, message: str, code: int) -> int:
    text = " ".join(str(message).split())  # single line
    print(f"dyadsim: error: {category}: {text}", file=sys.stderr)
    return code


def _cmd_sweep(args) -> int:
    config, file_values = _build_config(args)
    workers = _resolve(args, file_values, "workers", int)
    table = sweep_mod.run_sweep(config, workers=workers)
    out = args.out if args.out is not None else _out_dir(args) / "sweep.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    sweep_mod.write_sweep_csv(table, out)
    print(f"wrote {out} ({len(table)} records)")
    return EXIT_OK


def _cmd_analyze(args) -> int:
    config, _ = _build_config(args)
    table = sweep_mod.read_sweep_csv(args.input, config)
    result = report_mod.analyze(table)
    for path in report_mod.write_report(result, _out_dir(args)):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    config, _ = _build_config(args)
    trajectory = dynamics.simulate(args.context, config.params, config.master_seed)
    out = args.out if args.out is not None else _out_dir(args) / "trajectory.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(dynamics.trajectory_csv_text(trajectory))
    print(f"wrote {out} ({len(trajectory)} states)")
    return EXIT_OK


def _panel_command(args, panel: str, rename_from: str, rename_to: str) -> int:
    config, file_values = _build_config(args)
    contexts = args.context if args.context else None
    max_lag = _resolve(args, file_values, "max_lag", int)
    payloads = report_mod.figure_data(
        panel, config=config, contexts=contexts, max_lag=max_lag
    )
    renamed = {
        name.replace(rename_from, rename_to, 1): text for name, text in payloads.items()
    }
    for path in report_mod.write_payloads(renamed, _out_dir(args)):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_figures(args) -> int:
    config, file_values = _build_config(args)
    if args.input is not None:
        table = sweep_mod.read_sweep_csv(args.input, config)
    else:
        workers = _resolve(args, file_values, "workers", int)
        table = sweep_mod.run_sweep(config, workers=workers)
    contexts = args.context or report_mod.DEFAULT_FIGURE_CONTEXTS
    max_lag = _resolve(args, file_values, "max_lag", int)
    bins = _resolve(args, file_values, "bins", int)
    payloads = {}
    payloads.update(report_mod.figure_data("r_histogram", table=table, bins=bins))
    for context in contexts:  # one seeded batch per context, alive for its panels only
        batches = {}
        for panel in ("ccf_panel", "lag_panel", "trajectory_panel"):
            payloads.update(report_mod.figure_data(
                panel, config=config, contexts=[context], max_lag=max_lag, batches=batches
            ))
    for path in report_mod.write_payloads(payloads, _out_dir(args)):
        print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "xcorr": lambda args: _panel_command(args, "ccf_panel", "fig6_ccf_", "ccf_"),
    "lags": lambda args: _panel_command(args, "lag_panel", "fig7_lags_", "lags_"),
    "figures": _cmd_figures,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)  # argparse enforces the choices
    except InvalidSweepError as exc:
        return _error("input", str(exc), EXIT_INPUT)
    except (report_mod.AnalysisError, dynamics.NonFiniteStateError) as exc:
        return _error("analysis", str(exc), EXIT_ANALYSIS)
    except ValueError as exc:
        return _error("validation", str(exc), EXIT_USAGE)
    except OSError as exc:
        return _error("io", str(exc), EXIT_IO)


if __name__ == "__main__":
    sys.exit(main())
