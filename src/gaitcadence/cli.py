"""Command-line interface: run, synth, tfr, and compare subcommands."""

from __future__ import annotations

import logging
import math
import sys
import traceback
from pathlib import Path

import click
import numpy as np

from . import __version__
from .analysis import BoutInterval, bland_altman, validate_bouts
from .config import SETTINGS, load_config
from .errors import CadenceError, ConfigError, DataFormatError, ParameterError
from .io import (export_tfr, load_trace_csv, write_bland_altman_csv,
                 write_labels_csv, write_triaxial_csv, TFR_FORMATS)
from .pipeline import (analyze_signal, analysis_grid, load_recording,
                       range_signal, run_pipeline)
from .signal import TriaxialRecord, VALID_LOCATIONS
from .tfr import GRID_KINDS, KIND_DSSST

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


def _config_options(fn):
    """Add ``--config`` and one flag per ``config.SETTINGS`` key to ``fn``."""
    for key, (name, parser, help_text) in reversed(SETTINGS.items()):
        if name == "band_lo_hz":
            fn = click.option("--band", metavar="LO:HI", help=help_text)(fn)
        elif name != "band_hi_hz":
            kind = click.Choice(VALID_LOCATIONS) if name == "location" else parser
            fn = click.option("--" + key.replace("_", "-"), name, type=kind,
                              help=help_text)(fn)
    return click.option("--config", "config_path", type=click.Path(),
                        help="Flat key=value config file.")(fn)


def _parse_option(option: str, form: str, text: str, sep: str, build):
    """``build(*fields)`` for the fields of ``text`` split at ``sep``.

    A wrong number of fields (``TypeError``), a field that is not a number
    (``ValueError``) or numbers that ``build`` rejects (``ParameterError``)
    raise ``ConfigError`` naming ``option`` and its ``form``.
    """
    try:
        return build(*text.split(sep))
    except (TypeError, ValueError) as exc:
        reason = f": {exc}" if isinstance(exc, ParameterError) else ""
        raise ConfigError(f"{option} expects {form}, got {text!r}{reason}") \
            from None


class _FiniteFloat(click.ParamType):
    """A float flag that rejects NaN and infinities, naming the flag."""

    name = "float"

    def convert(self, value, param, ctx):
        number = click.FLOAT.convert(value, param, ctx)
        if not math.isfinite(number):
            self.fail(f"{value!r} is not a finite number", param, ctx)
        return number


FINITE_FLOAT = _FiniteFloat()


def _floats(*fields) -> list[float]:
    values = [float(f) for f in fields]
    if not all(map(math.isfinite, values)):
        raise ParameterError("every field must be a finite number")
    return values


def _build_config(config_path, band, **kw):
    if band is not None:
        kw["band_lo_hz"], kw["band_hi_hz"] = _parse_option(
            "--band", "LO:HI in Hz", band, ":", lambda lo, hi: _floats(lo, hi))
    return load_config(config_path, **kw)


@click.group()
@click.version_option(version=__version__, prog_name="gaitcadence")
@click.option("-v", "--verbose", is_flag=True, help="Enable debug logging.")
def cli(verbose):
    """Gait cadence estimation from single-sensor accelerometry."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )


@cli.command()
@click.argument("input_csv", type=click.Path())
@click.argument("labels_csv", type=click.Path())
@click.option("-o", "--outdir", type=click.Path(), default="cadence_out",
              show_default=True, help="Output directory.")
@click.option("--export-tfr", "export_kinds", multiple=True,
              type=click.Choice(GRID_KINDS),
              help="Also export these per-bout TFR grids (repeatable).")
@click.option("--export-format", type=click.Choice(TFR_FORMATS), default="csv",
              show_default=True, help="Format for TFR exports.")
@_config_options
def run(input_csv, labels_csv, outdir, export_kinds, export_format,
        config_path, band, **kw):
    """Estimate per-bout cadence traces and summaries for a recording."""
    cfg = _build_config(config_path, band, **kw)
    report = run_pipeline(cfg, input_csv, labels_csv, outdir,
                          export_kinds=export_kinds,
                          export_format=export_format)
    for i, b in enumerate(report.bouts, start=1):
        mean = ("-" if b.mean_cadence_hz is None
                else f"{b.mean_cadence_hz:.3f} Hz")
        click.echo(f"bout {i:2d} [{b.start_s:8.2f}, {b.end_s:8.2f}] "
                   f"label={b.label} {b.status:7s} mean={mean} {b.message}")
    click.echo(f"{len(report.bouts)} bout(s) processed in "
               f"{report.elapsed_s:.1f} s; outputs in {outdir}")
    if any(b.status == "error" for b in report.bouts):
        raise DataFormatError("one or more bouts failed; see report.json")


@cli.command()
@click.option("--duration", type=FINITE_FLOAT, default=60.0, show_default=True,
              help="Total recording length in seconds.")
@click.option("--fs", type=FINITE_FLOAT, default=100.0, show_default=True,
              help="Sampling rate in Hz.")
@click.option("--bout", "bout_specs", multiple=True, metavar="START:END[:LABEL]",
              help="Walking bout in seconds (repeatable); default spans "
                   "the whole recording.")
@click.option("--if-hz", type=FINITE_FLOAT, default=1.0, show_default=True,
              help="Constant instantaneous frequency in Hz.")
@click.option("--if-ramp", type=str, default=None, metavar="LO:HI",
              help="Linear IF ramp across each bout (overrides --if-hz).")
@click.option("--alphas", type=str, default="0.5,1.0", show_default=True,
              help="Comma-separated harmonic coefficients (fundamental first); "
                   "rescaled to unit shape power.")
@click.option("--betas", type=str, default=None,
              help="Comma-separated harmonic phases in radians.")
@click.option("--alpha0", type=FINITE_FLOAT, default=0.4, show_default=True,
              help="Shape mean level before normalization.")
@click.option("--amp", type=FINITE_FLOAT, default=1.0, show_default=True,
              help="Amplitude modulation level.")
@click.option("--snr-db", type=FINITE_FLOAT, default=10.0, show_default=True,
              help="AR(1) noise level as SNR against the in-bout signal.")
@click.option("--rho", type=FINITE_FLOAT, default=0.3, show_default=True,
              help="AR(1) coefficient.")
@click.option("--baseline", type=FINITE_FLOAT, default=1.5, show_default=True,
              help="Constant x-axis offset standing in for gravity.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-csv", type=click.Path(), default="synthetic.csv",
              show_default=True, help="Triaxial CSV output path.")
@click.option("--out-labels", type=click.Path(), default="synthetic_labels.csv",
              show_default=True, help="Bout label CSV output path.")
@click.option("--out-truth", type=click.Path(), default=None,
              help="Optional ground-truth cadence CSV.")
def synth(duration, fs, bout_specs, if_hz, if_ramp, alphas, betas, alpha0,
          amp, snr_db, rho, baseline, seed, out_csv, out_labels, out_truth):
    """Generate a synthetic walking recording with known cadence."""
    # Here, not at the top: no other command needs the synthesis model.
    from .synth import (BoutModel, ConstantProfile, LinearProfile,
                        WalkingModelSpec, WaveShape, ar1_sd_for_snr,
                        synthesize_walk)

    alpha_vals = _parse_option("--alphas", "comma-separated floats", alphas,
                               ",", _floats)
    if betas is None:
        beta_vals = [0.8 * (j + 1) for j in range(len(alpha_vals))]
        shape = WaveShape(alpha_vals, beta_vals, alpha0)
    else:
        shape = _parse_option(
            "--betas", "one comma-separated float per alpha", betas, ",",
            lambda *b: WaveShape(alpha_vals, _floats(*b), alpha0))
    shape = shape.normalized()

    if if_ramp is not None:
        profile = _parse_option("--if-ramp", "LO:HI", if_ramp, ":",
                                lambda lo, hi: LinearProfile(*_floats(lo, hi)))
    else:
        profile = ConstantProfile(if_hz)

    intervals = [_parse_option("--bout", "START:END[:LABEL]", spec_str, ":",
                               lambda start, end, label="1": BoutInterval(
                                   float(start), float(end), int(label)))
                 for spec_str in bout_specs]
    # The label reader's rules: BoutInterval's and no overlaps.
    intervals = validate_bouts(intervals or [BoutInterval(0.0, duration, 1)])
    bouts = [BoutModel(start_s=b.start_s, end_s=b.end_s, if_profile=profile,
                       shape=shape, amp_profile=ConstantProfile(amp),
                       label=b.label)
             for b in intervals]

    spec = WalkingModelSpec(fs=fs, duration_s=duration, bouts=bouts,
                            noise_sd=0.0, noise_rho=rho)
    clean = synthesize_walk(spec, seed=seed)
    try:  # past about +-3080 dB the sd leaves the float range
        spec.noise_sd = ar1_sd_for_snr(clean.clean.samples,
                                       ~np.isnan(clean.truth_if), snr_db)
    except (OverflowError, ZeroDivisionError):
        spec.noise_sd = math.nan
    if not 0 < spec.noise_sd < math.inf:
        raise ConfigError(f"--snr-db {snr_db:g} needs a noise sd beyond the "
                          "float range")
    result = synthesize_walk(spec, seed=seed)

    n = len(result.signal)
    rec = TriaxialRecord(x=baseline + result.signal.samples, y=np.zeros(n),
                         z=np.zeros(n), fs=fs)
    write_triaxial_csv(out_csv, rec)
    write_labels_csv(out_labels, result.bouts)
    click.echo(f"wrote {out_csv} ({n} samples at {fs:g} Hz, "
               f"noise sd {spec.noise_sd:.4f}) and {out_labels}")
    if out_truth is not None:
        t = result.signal.times
        with Path(out_truth).open("w", newline="") as fh:
            fh.write("time_s,truth_if_hz,truth_cadence_hz\n")
            for ti, fi in zip(t, result.truth_if):
                if np.isnan(fi):
                    fh.write(f"{ti:.12g},,\n")
                else:
                    fh.write(f"{ti:.12g},{fi:.12g},{2 * fi:.12g}\n")
        click.echo(f"wrote {out_truth}")


@cli.command("tfr")
@click.argument("input_csv", type=click.Path())
@click.option("--kind", type=click.Choice(GRID_KINDS), default=KIND_DSSST,
              show_default=True, help="Which grid of the chain to export.")
@click.option("--format", "fmt", type=click.Choice(TFR_FORMATS), default="csv",
              show_default=True)
@click.option("-o", "--out", type=click.Path(), required=True,
              help="Output file path.")
@click.option("--start", type=float, default=None,
              help="Analyze from this time (seconds).")
@click.option("--end", type=float, default=None,
              help="Analyze up to this time (seconds).")
@_config_options
def tfr_cmd(input_csv, kind, fmt, out, start, end, config_path, band, **kw):
    """Compute one time-frequency grid of a recording and export it.

    Grids are materialized in full, so prefer a hop of several samples for
    long recordings. A --start/--end range that runs past the recording is
    clipped to it with a warning.
    """
    cfg = _build_config(config_path, band, **kw)
    sig = range_signal(load_recording(cfg, input_csv), start, end)
    analysis = analyze_signal(sig, cfg, collect=(kind,))
    export_tfr(analysis_grid(analysis, kind), out, fmt)
    click.echo(f"wrote {out} ({analysis.n_frames} frames x "
               f"{analysis.fft_half + 1} bins, kind={kind})")


@cli.command()
@click.argument("trace_a", type=click.Path())
@click.argument("trace_b", type=click.Path())
@click.option("-o", "--out", type=click.Path(), default=None,
              help="Write the agreement statistics to this CSV.")
@click.option("--ci", is_flag=True,
              help="Append normal-theory 95% confidence-interval columns.")
def compare(trace_a, trace_b, out, ci):
    """Bland-Altman agreement between two cadence trace files."""
    a, _ = load_trace_csv(trace_a)
    b, _ = load_trace_csv(trace_b)
    stats = bland_altman(a, b)
    click.echo(f"n={stats.n} mean_diff={stats.mean_diff:.4f} "
               f"sd_diff={stats.sd_diff:.4f} "
               f"LoA=[{stats.loa_low:.4f}, {stats.loa_high:.4f}]")
    if ci:
        lo, hi = stats.mean_ci()
        click.echo(f"mean 95% CI=[{lo:.4f}, {hi:.4f}] "
                   f"LoA CI margin={stats.loa_ci_margin():.4f}")
    if out is not None:
        write_bland_altman_csv(out, stats, with_ci=ci)
        click.echo(f"wrote {out}")


def main(argv=None) -> int:
    """Entry point with the documented exit codes.

    0 success, 1 usage/config error, 2 data error, 3 internal error.
    """
    try:
        cli(args=argv, standalone_mode=False)
        return EXIT_OK
    except (ConfigError, ParameterError) as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_CONFIG
    except click.ClickException as exc:
        exc.show()
        return EXIT_CONFIG
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return EXIT_INTERNAL
    except (DataFormatError, FileNotFoundError, IsADirectoryError) as exc:
        click.echo(f"data error: {exc}", err=True)
        return EXIT_DATA
    except CadenceError as exc:
        click.echo(f"error: {exc}", err=True)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
