"""Command-line interface: seeded sweeps, analysis, and figure payloads.

All state flows through files so archived sweeps can be re-analyzed.  Exit
codes: 0 success, 2 flag/usage validation, 3 input-file validation, 4
statistical/analysis failure, 5 I/O failure.  Errors print one
machine-parseable line to stderr: ``dyadsim: error: <category>: <message>``.
"""

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from dyadsim import __version__, dynamics, sweep as sweep_mod
from dyadsim.dynamics import ContextMatrix, ModelParams, _checked_int
from dyadsim.metrics import _MAX_BINS, HISTOGRAM_BINS, LagSpec, _check_ccf_length
from dyadsim.sweep import AnalysisError, InvalidSweepError, SweepConfig

__all__ = ["parse_context", "build_parser", "main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_ANALYSIS = 4
EXIT_IO = 5

ENV_OUT_DIR = "DYADSIM_OUT_DIR"

_TOKEN_NAMES = ("s1", "o1", "o2", "s2")

# key -> (type, default, help) of every setting; the flag is the key with "-"
# for "_", and a --config file sets it as "key = value"
_KEYS = {
    "seed": (int, 42, "master seed, or simulate's run seed"),
    "runs": (int, SweepConfig.runs_per_context, "runs per context"),
    "turns": (int, ModelParams.turns, "turns per run"),
    "alpha": (float, ModelParams.alpha, "decay fraction"),
    "influence": (float, ModelParams.influence, "transmission gain per context entry"),
    "noise": (float, ModelParams.noise_half_width, "noise half-width"),
    "threshold": (float, SweepConfig.tail_threshold, "tail threshold on r"),
    "max_lag": (int, LagSpec.max_lag, "largest lag"),
    "bins": (int, HISTOGRAM_BINS, "histogram bins"),
    "workers": (int, 1, "accepted, no effect"),
}
# key -> the SweepConfig or ModelParams field it sets; a range error names the
# field, and is reported under its key
_FIELDS = {
    "seed": "master_seed", "runs": "runs_per_context", "turns": "turns", "alpha": "alpha",
    "influence": "influence", "noise": "noise_half_width", "threshold": "tail_threshold",
}
_PARAM_FIELDS = {f.name for f in dataclasses.fields(ModelParams)}
_CAST_NAMES = {int: "an int", float: "a float"}
_CONTEXT_HELP = "write --context=-1,0;1,-1 when s1 is -1"


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


def _add_keys(parser, *keys):
    for key in keys:
        kind, default, text = _KEYS[key]
        parser.add_argument("--" + key.replace("_", "-"), type=kind, default=None,
                            help=f"{text} (default {default})")


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

    def command(name, text, *keys):  # keys: the settings the command reads
        p = commands.add_parser(name, help=text)
        _add_keys(p, *keys)
        p.add_argument("--config", type=Path, default=None,
                       help="key = value file mirroring the flags")
        p.add_argument("--out", type=Path, default=None, help="output file or directory")
        return p

    command("sweep", "run the 81-context sweep and write the CSV", *_FIELDS, "workers")

    p = command("analyze", "analyze a sweep CSV into report.json + table1.csv", *_FIELDS)
    p.add_argument("--input", type=Path, required=True, help="sweep CSV to analyze")

    p = command("simulate", "simulate one seeded run and write its trajectory",
                "seed", "turns", "alpha", "influence", "noise")
    p.add_argument("--context", type=_context_arg, required=True,
                   help=f'e.g. "1,0;1,-1"; {_CONTEXT_HELP}')

    panel_keys = [key for key in _FIELDS if key != "threshold"]
    for name, text in (("xcorr", "write mean cross-correlation CSVs for context batches"),
                       ("lags", "write turn-taking lag CSVs for context batches")):
        p = command(name, text, *panel_keys, "max_lag")
        p.add_argument("--context", type=_context_arg, action="append",
                       help=f"repeatable; {_CONTEXT_HELP}")

    # threshold: --input checks the CSV's tail labels against it
    p = command("figures", "write all figure panel payloads", *_FIELDS, "max_lag", "bins")
    p.add_argument("--input", type=Path, default=None, help="existing sweep CSV for the histogram")
    p.add_argument("--context", type=_context_arg, action="append",
                   help=f"repeatable; {_CONTEXT_HELP}")

    return parser


def _read_config_file(path: Path) -> dict:
    """Config-file values as ``key -> (line number, raw text)``."""
    values = {}
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise InvalidSweepError(f"cannot decode config file {path}: {exc}") from None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidSweepError(f"config file line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _KEYS:
            raise InvalidSweepError(f"config file line {lineno}: unknown key {key!r}")
        if key in values:
            raise InvalidSweepError(
                f"config file line {lineno}: duplicate key {key!r} "
                f"(first on line {values[key][0]})"
            )
        values[key] = (lineno, value)
    return values


def _settings(args) -> tuple[dict, SweepConfig]:
    """Each key the command's parser defines, flag over config file over
    default, and the sweep config they make; library defaults fill the rest."""
    file_values = _read_config_file(args.config) if args.config else {}
    settings = {}
    for key, (kind, default, _) in _KEYS.items():
        if not hasattr(args, key):
            continue
        value = getattr(args, key)
        if value is None and key in file_values:
            lineno, text = file_values[key]
            try:
                value = kind(text)
            except ValueError:
                raise InvalidSweepError(
                    f"config file line {lineno}: {key} = {text!r} is not {_CAST_NAMES[kind]}"
                ) from None
        settings[key] = default if value is None else value
    fields = {_FIELDS[key]: value for key, value in settings.items() if key in _FIELDS}
    try:
        params = ModelParams(**{f: fields.pop(f) for f in _PARAM_FIELDS & fields.keys()})
        config = SweepConfig(params=params, **fields)
    except ValueError as exc:  # a library message starts with its field's name
        field, _, rest = str(exc).partition(" ")
        key = next((k for k, name in _FIELDS.items() if name == field), field)
        raise ValueError(f"{key} {rest}") from None
    for key in ("workers", "bins"):  # checked here, before any work
        if key in settings:
            settings[key] = _checked_int(key, settings[key])
    if settings.get("bins", 0) > _MAX_BINS:
        raise ValueError(f"bins must be at most {_MAX_BINS}")
    if "max_lag" in settings:
        settings["max_lag"] = LagSpec(settings["max_lag"]).max_lag
    if args.command in ("xcorr", "figures"):  # these cut CCFs of series of turns + 1 samples
        turns, lag = params.turns, settings["max_lag"]
        _check_ccf_length(turns + 1, lag, f": turns = {turns} is too few for max_lag = {lag}")
    return settings, config


def _out_dir(args) -> Path:
    if args.out is not None:
        return args.out
    return Path(os.environ.get(ENV_OUT_DIR, "."))


def _error(category: str, message: str, code: int) -> int:
    text = " ".join(str(message).split())  # single line
    print(f"dyadsim: error: {category}: {text}", file=sys.stderr)
    return code


def _out_file(args, name: str) -> Path:
    """A one-file command's output path (its parent created): --out, else name
    in the default output directory."""
    out = args.out if args.out is not None else _out_dir(args) / name
    out.parent.mkdir(parents=True, exist_ok=True)
    return out


def _cmd_sweep(args, settings, config) -> int:
    table = sweep_mod.run_sweep(config, workers=settings["workers"])
    out = _out_file(args, "sweep.csv")
    sweep_mod.write_sweep_csv(table, out)
    print(f"wrote {out} ({len(table)} records)")
    return EXIT_OK


def _cmd_analyze(args, settings, config) -> int:
    from dyadsim import report as report_mod

    table = sweep_mod.read_sweep_csv(args.input, config)
    result = report_mod.analyze(table)
    for path in report_mod.write_report(result, _out_dir(args)):
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_simulate(args, settings, config) -> int:
    from dyadsim import report as report_mod

    B1, B2 = dynamics.simulate_batch(args.context, config.params, [config.master_seed])
    trajectory = dynamics.Trajectory(args.context, config.master_seed, B1[0], B2[0])
    out = _out_file(args, "trajectory.csv")
    out.write_text(report_mod.trajectory_csv_text(trajectory), newline="")
    print(f"wrote {out} ({len(trajectory)} states)")
    return EXIT_OK


def _context_payloads(args, config, max_lag: int, *panels) -> dict:
    """The panels cut from each context's batch; each group is simulated once."""
    from dyadsim import report as report_mod

    payloads = {}
    contexts = args.context or report_mod.DEFAULT_FIGURE_CONTEXTS
    for batch in sweep_mod.context_batches(config, contexts):
        for panel in panels:
            payloads.update(report_mod.figure_data(panel, max_lag=max_lag, batch=batch))
        del batch  # so that a finished group is freed before the next is simulated
    return payloads


def _write_payloads(args, payloads) -> int:
    from dyadsim import report as report_mod

    for path in report_mod.write_payloads(payloads, _out_dir(args)):
        print(f"wrote {path}")
    return EXIT_OK


def _panel_command(args, settings, config, panel: str) -> int:
    payloads = _context_payloads(args, config, settings["max_lag"], panel)
    # named without the figure prefix: fig6_ccf_+100+1.csv -> ccf_+100+1.csv
    return _write_payloads(args, {n.split("_", 1)[1]: t for n, t in payloads.items()})


def _cmd_figures(args, settings, config) -> int:
    from dyadsim import report as report_mod

    if args.input is not None:
        table = sweep_mod.read_sweep_csv(args.input, config)
    else:
        table = sweep_mod.run_sweep(config)
    payloads = report_mod.figure_data("r_histogram", table=table, bins=settings["bins"])
    context_panels = report_mod.PANEL_NAMES[1:]  # every panel but the histogram
    payloads.update(_context_payloads(args, config, settings["max_lag"], *context_panels))
    return _write_payloads(args, payloads)


_COMMANDS = {
    "sweep": _cmd_sweep,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "xcorr": lambda *given: _panel_command(*given, "ccf_panel"),
    "lags": lambda *given: _panel_command(*given, "lag_panel"),
    "figures": _cmd_figures,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings, config = _settings(args)
        return _COMMANDS[args.command](args, settings, config)  # argparse enforces the choices
    except InvalidSweepError as exc:
        return _error("input", str(exc), EXIT_INPUT)
    except (AnalysisError, dynamics.NonFiniteStateError) as exc:
        return _error("analysis", str(exc), EXIT_ANALYSIS)
    except ValueError as exc:
        return _error("validation", str(exc), EXIT_USAGE)
    except OSError as exc:
        return _error("io", str(exc), EXIT_IO)
    except MemoryError as exc:  # numpy's refused allocation; a larger one is its ValueError
        return _error("validation", f"out of memory: {exc}", EXIT_USAGE)


if __name__ == "__main__":
    sys.exit(main())
