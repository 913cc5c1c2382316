"""Experiment runner: simulate | measure-pn | sweep-k | stream.

Configuration is a single JSON document, checked on load against
CONFIG_TABLE whatever the subcommand; unknown and repeated keys are rejected.
Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .channel import (ChannelConfig, PhaseNoiseConfig, PhaseNoiseModel, _check_tone,
                      single_tone_probe)
# run_frame is called through this binding: the benchmark hooks cli.run_frame.
from .link import _add_powers, _chunks, map_chunks, run_frame
from .linklayer import _stream_bytes, frame_payload_bytes
from .metrics import (gaussian_fit_in_place, phase_pdf, psd_welch, series_csv_text, wrap_phase,
                      write_csv_header, write_series_csv)
from .modulation import Modulation, evm_db_from_powers
from .ofdm import N_PREAMBLE_SYMBOLS, OfdmConfig
from .receiver import genie_evm_db


class ConfigError(Exception):
    pass


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_tap(value) -> bool:
    return _is_number(value) or (isinstance(value, list) and len(value) == 2
                                 and all(map(_is_number, value)))


def _one_of(enum) -> tuple:
    names = [member.value for member in enum]
    return (lambda value: value in names), f"one of {names}"


# A kind is (test, description).
INT = (lambda v: isinstance(v, int) and not isinstance(v, bool)), "an integer"
NUMBER = _is_number, "a number"
NUMBER_OR_NULL = (lambda v: v is None or _is_number(v)), "a number or null"
BOOL = (lambda v: isinstance(v, bool)), "a boolean"
TAPS = ((lambda v: isinstance(v, list) and v != [] and all(map(_is_tap, v))),
        "a non-empty array of numbers or [re, im] pairs")

# Every config key: (dotted path, kind, default, minimum). Ranges that
# OfdmConfig, ChannelConfig, _check_tone and frame_payload_bytes enforce are
# not repeated here; load_config turns their ValueError into a ConfigError.
CONFIG_TABLE = (
    ("phy.n_fft", INT, 64, None),
    ("phy.cp_len", INT, 16, None),
    ("phy.sample_rate_hz", NUMBER, 25.0e6, None),
    ("phy.k_guard", INT, 3, None),
    ("phy.used_band", INT, 26, None),
    ("channel.taps", TAPS, [1.0], None),
    ("channel.snr_db", NUMBER_OR_NULL, 35.0, None),       # null: no noise
    ("channel.cfo_hz", NUMBER, 0.0, None),
    ("channel.sigma", NUMBER, 0.26, None),
    ("channel.bandwidth_hz", NUMBER, 1.0e6, None),
    ("channel.phase_noise_model", _one_of(PhaseNoiseModel), "filtered_gaussian", None),
    ("modulation", _one_of(Modulation), "qpsk", None),
    ("n_frames", INT, 200, 0),
    ("n_payload_symbols", INT, 12, 1),
    ("pnc_enabled", BOOL, True, None),
    ("seed", INT, 0, 0),
    ("probe.tone_hz", NUMBER_OR_NULL, None, None),        # null: fs / 8
    ("probe.n_samples", INT, 1_000_000, 4096),            # for the PSD estimate
)
DEFAULTS = {path: default for path, _, default, _ in CONFIG_TABLE}
SECTIONS = {path.partition(".")[0] for path in DEFAULTS if "." in path}

# The longest probe or frame row, in samples: at 2**27 a probe already holds
# 1.5 GB and a frame row 2 GiB per complex copy; longer is a mistyped size.
MAX_ROW_SAMPLES = 1 << 27


class Config(NamedTuple):
    """A checked config: every value by dotted path, defaults resolved, and
    the objects a run is built from."""
    values: dict
    ofdm: OfdmConfig
    channel: ChannelConfig
    modulation: Modulation
    tone_hz: float


def _finite(parse):
    """JSON number hook: parse, then reject values with no finite float."""
    def hook(text: str):
        try:
            value = parse(text)
            if math.isfinite(float(value)):
                return value
        except (ValueError, OverflowError):
            pass
        raise ConfigError(f"config number {text[:24]} is not finite")
    return hook


# What a key given twice in one JSON object maps to: _document_values rejects it.
_REPEATED = object()


def _object(pairs) -> dict:
    """JSON object hook: the object's keys, a repeated one mapped to _REPEATED."""
    obj = {}
    for key, value in pairs:
        obj[key] = _REPEATED if key in obj else value
    return obj


def _read_document(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh, parse_float=_finite(float), parse_int=_finite(int),
                            parse_constant=_finite(float), object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _document_values(doc: dict, prefix: str = "") -> dict:
    """The document's values by dotted path."""
    values = {}
    for key, value in doc.items():
        path = prefix + key
        if "." in key or (path not in DEFAULTS and path not in SECTIONS):
            raise ConfigError(f"unknown config key: {path}")
        if value is _REPEATED:
            raise ConfigError(f"config key {path} is given more than once")
        if path not in SECTIONS:
            values[path] = value
        elif isinstance(value, dict):
            values.update(_document_values(value, path + "."))
        else:
            raise ConfigError(f"{path} must be an object")
    return values


def load_config(args) -> Config:
    """Check the document at args.config, with args.seed (text) in place of
    its seed, against CONFIG_TABLE, and build what args.command runs on."""
    v = {**DEFAULTS, **_document_values({} if args.config is None
                                        else _read_document(args.config))}
    if args.seed is not None:
        try:
            v["seed"] = int(args.seed)
        except ValueError:   # left as text for the seed row to reject
            v["seed"] = args.seed
    for path, (test, expected), _, minimum in CONFIG_TABLE:
        value = v[path]
        if minimum is not None:
            expected = "a non-negative integer" if minimum == 0 else f"{expected} >= {minimum}"
        if not test(value) or (minimum is not None and value < minimum):
            raise ConfigError(f"{path} must be {expected}, got {value!r}")
    try:
        ofdm = OfdmConfig(v["phy.n_fft"], v["phy.k_guard"], v["phy.used_band"], v["phy.cp_len"])
        fs = float(v["phy.sample_rate_hz"])
        phase_noise = PhaseNoiseConfig(sigma=float(v["channel.sigma"]),
                                       bandwidth_hz=float(v["channel.bandwidth_hz"]),
                                       model=PhaseNoiseModel(v["channel.phase_noise_model"]))
        snr_db = v["channel.snr_db"]
        channel = ChannelConfig(
            taps=tuple(complex(*t) if isinstance(t, list) else complex(t)
                       for t in v["channel.taps"]),
            snr_db=math.inf if snr_db is None else float(snr_db), phase_noise=phase_noise,
            cfo_hz=float(v["channel.cfo_hz"]), sample_rate_hz=fs)
        tone_hz = fs / 8.0 if v["probe.tone_hz"] is None else float(v["probe.tone_hz"])
        _check_tone(tone_hz, fs)
        modulation = Modulation(v["modulation"])
        if args.command == "stream":
            frame_payload_bytes(ofdm, modulation, v["n_payload_symbols"])
    except ValueError as exc:
        raise ConfigError(str(exc))
    for key, n in [("probe.n_samples", v["probe.n_samples"]), ("n_payload_symbols",
                   (N_PREAMBLE_SYMBOLS + v["n_payload_symbols"]) * ofdm.symbol_len)]:
        if n > MAX_ROW_SAMPLES:
            raise ConfigError(f"{key} gives rows of {n} samples, over {MAX_ROW_SAMPLES}")
    if args.command == "sweep-k" and v["n_frames"] < 1:
        raise ConfigError("sweep-k needs n_frames >= 1 for a mean EVM")
    # L taps spread a symbol over L - 1 extra samples, which the CP absorbs
    # while L - 1 <= cp_len.
    if args.command != "measure-pn" and len(channel.taps) - 1 > ofdm.cp_len:
        warnings.warn(f"channel has {len(channel.taps)} taps but cp_len={ofdm.cp_len}; "
                      "inter-symbol interference will not be absorbed")
    return Config(v, ofdm, channel, modulation, tone_hz)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _json_text(name: str, obj) -> str:
    """Strict JSON text of an artifact; a NaN or infinite value raises."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        raise ValueError(f"{name} not written: {exc}") from None


def cmd_simulate(args, cfg: Config) -> int:
    out = _out_dir(args)
    v, ofdm_cfg, modulation = cfg.values, cfg.ofdm, cfg.modulation
    n_frames, n_sym, seed = v["n_frames"], v["n_payload_symbols"], v["seed"]
    chunks = _chunks(n_frames)

    def chunk(c: int) -> tuple:
        """Chunk c's frame powers; the sums of its genie EVM, its pilot phase
        std, its residual phase less each row's mean, and that residual's
        square; its erasure count; and its evm.csv and constellation.csv text."""
        rows = chunks[c]
        stack = run_frame(modulation, ofdm_cfg, cfg.channel, v["pnc_enabled"], n_sym, seed, rows)
        report = stack.report
        genie = genie_evm_db(report.points, stack.tx_bits, report.erased, modulation)
        d = wrap_phase(stack.theta_true_bodies - stack.theta_est)
        d -= d.mean(axis=-1, keepdims=True)
        sums = np.array([genie.sum(), report.residual_phase_std.sum(), d.sum(),
                         np.square(d, out=d).sum()])   # d squared after its sum
        return ((report.error_power, report.reference_power), sums,
                int(report.n_erased.sum()),
                series_csv_text([np.arange(rows.start, rows.stop), report.evm_db,
                                 report.residual_phase_std]),
                series_csv_text([report.points.real, report.points.imag]))

    # A run keeps running totals, added chunk by chunk, left to right: the
    # frames' powers and chunk()'s sums; the rest of a chunk is dropped there.
    powers, sums, n_erased = np.zeros(2), np.zeros(4), 0
    staged = {name: out / f".{name}.partial" for name in ("evm.csv", "constellation.csv")}
    try:
        with open(staged["evm.csv"], "w", newline="") as evm_fh, \
                open(staged["constellation.csv"], "w", newline="") as points_fh:
            write_csv_header(evm_fh, ["frame", "evm_db", "residual_phase_std"])
            write_csv_header(points_fh, ["re", "im"])
            for chunk_powers, chunk_sums, erased, evm_text, points_text in map_chunks(
                    chunk, len(chunks)):
                _add_powers(powers, *chunk_powers)
                sums += chunk_sums
                n_erased += erased
                evm_fh.write(evm_text)
                points_fh.write(points_text)

        genie, pilot_std, residual, residual_sq = sums
        n_residual = n_frames * n_sym * ofdm_cfg.n_fft
        summary = {
            "n_frames": n_frames,
            "n_payload_symbols": n_sym,
            "modulation": modulation.value,
            "pnc_enabled": v["pnc_enabled"],
            "seed": seed,
            "k_guard": ofdm_cfg.k_guard,
            "evm_db": evm_db_from_powers(*powers),
            "evm_db_genie_mean": float(genie / n_frames) if n_frames else None,
            "residual_phase_std": float(pilot_std / n_frames) if n_frames else None,
            # sqrt(E[x^2] - E[x]^2): each row's mean is removed, so E[x]^2 is
            # rounding noise, which may pass E[x^2] only where the residual is.
            "residual_phase_std_true": math.sqrt(max(residual_sq / n_residual
                                                     - (residual / n_residual) ** 2, 0.0))
            if n_frames else None,
            "n_erased": n_erased,
        }
        # Serialized before the CSVs are put in place: a result that is not
        # finite fails here and leaves no artifact.
        summary_text = _json_text("summary.json", summary)
        for name, path in staged.items():
            path.replace(out / name)
    except BaseException:
        for path in staged.values():
            path.unlink(missing_ok=True)
        raise
    (out / "summary.json").write_text(summary_text)
    print(f"simulate: {n_frames} frames, evm_db={summary['evm_db']}")
    return 0


def cmd_measure_pn(args, cfg: Config) -> int:
    out = _out_dir(args)
    n_samples, fs = cfg.values["probe.n_samples"], cfg.channel.sample_rate_hz
    phase = single_tone_probe(cfg.tone_hz, n_samples, cfg.channel, cfg.values["seed"])
    psd = psd_welch(phase, fs)
    centers, density = phase_pdf(phase)
    fit = gaussian_fit_in_place(phase)   # the last reader: it overwrites the phase

    fit_text = _json_text("pn_fit.json", {
        "mean": fit.mean, "std": fit.std, "sample_count": fit.sample_count,
    })
    write_series_csv(out / "pn_pdf.csv", ["bin_center", "density"], [centers, density])
    write_series_csv(out / "pn_psd.csv", ["freq_hz", "power_db"], [psd.freqs_hz, psd.power_db])
    (out / "pn_fit.json").write_text(fit_text)
    print(f"measure-pn: {n_samples} samples, fitted std={fit.std:.6g} rad")
    return 0


def cmd_sweep_k(args, cfg: Config) -> int:
    v = cfg.values
    try:
        k_values = [int(k) for k in args.k_list.split(",") if k.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad --k-list {args.k_list!r}: must be comma-separated integers")
    if not k_values:
        raise ConfigError("--k-list is empty")
    if len(set(k_values)) < len(k_values):
        raise ConfigError(f"bad --k-list {args.k_list!r}: a guard count is given more than once")
    try:
        ofdm_cfgs = [replace(cfg.ofdm, k_guard=k) for k in k_values]
    except ValueError as exc:
        raise ConfigError(str(exc))
    out = _out_dir(args)

    chunks = _chunks(v["n_frames"])
    n_chunks = len(chunks)

    last = None

    def chunk(j: int) -> tuple:
        """Chunk j % n_chunks of the run at the (j // n_chunks)-th K: its
        two power arrays. Its stack stays in `last` until the next chunk's
        is made: freed first, its pages went back to the OS and were
        faulted in again, about 15,000 more minor faults a sweep."""
        nonlocal last
        k_index, c = divmod(j, n_chunks)
        last = run_frame(cfg.modulation, ofdm_cfgs[k_index], cfg.channel, v["pnc_enabled"],
                         v["n_payload_symbols"], v["seed"], chunks[c])
        return last.report.error_power, last.report.reference_power

    results, powers = [], np.zeros(2)   # powers: the K's running totals
    for j, chunk_powers in enumerate(map_chunks(chunk, len(k_values) * n_chunks)):
        _add_powers(powers, *chunk_powers)
        if j % n_chunks == n_chunks - 1:
            k = k_values[j // n_chunks]
            results.append((k, evm_db_from_powers(*powers)))
            powers[:] = 0.0
            print(f"sweep-k: K={k} mean_evm_db={results[-1][1]}")

    # A result that is not finite fails here, before ksweep.csv is opened.
    for k, evm in results:
        if evm is not None and not math.isfinite(evm):
            raise ValueError(f"ksweep.csv not written: mean EVM at K={k} is {evm}")
    write_series_csv(out / "ksweep.csv", ["k_guard", "mean_evm_db"],
                     [np.array([r[0] for r in results], dtype=int),
                      np.array([r[1] for r in results], dtype=float)])
    return 0


def stream_bytes(*args, **kwargs) -> tuple:
    """linklayer.stream_bytes with its chunks run by link.map_chunks, which
    may fork; cmd_stream calls it through this name, which the benchmark
    hooks."""
    return _stream_bytes(*args, **kwargs, fork=True)


def cmd_stream(args, cfg: Config) -> int:
    if args.input == "-":
        data = sys.stdin.buffer.read()
    else:
        try:   # before the output directory is made, which a bad path leaves empty
            data = Path(args.input).read_bytes()
        except OSError as exc:
            raise ConfigError(f"cannot read input: {exc}")
    out = _out_dir(args)

    v = cfg.values
    recovered, report = stream_bytes(
        data, cfg.ofdm, cfg.channel, cfg.modulation, pnc_enabled=v["pnc_enabled"],
        seed=v["seed"], n_payload_symbols=v["n_payload_symbols"])
    # Serialized first: a report that is not finite fails here, before the
    # recovered bytes are written.
    report_text = _json_text("stream_report.json", asdict(report))
    output = Path(args.output) if args.output else out / "recovered.bin"
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_bytes(recovered)
    (out / "stream_report.json").write_text(report_text)
    print(f"stream: {report.packets_sent} packets, per={report.per:.6g}, "
          f"mean_evm_db={report.mean_evm_db}")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH", default=None,
                        help="JSON config (defaults used when omitted)")
    parser.add_argument("--seed", default=None, metavar="U64",
                        help="override the config seed")
    parser.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: ./out)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwavelink",
        description="OFDM link simulator with pilot-aided phase noise cancellation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run frames, write evm.csv/constellation.csv/summary.json")
    _add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("measure-pn", help="single-tone probe, write pn_pdf/pn_psd/pn_fit")
    _add_common(p)
    p.set_defaults(func=cmd_measure_pn)

    p = sub.add_parser("sweep-k", help="mean EVM versus guard bandwidth K, write ksweep.csv")
    _add_common(p)
    p.add_argument("--k-list", default="0,1,2,3,4,6,8", metavar="K0,K1,...",
                   help="comma-separated guard counts (default: 0,1,2,3,4,6,8)")
    p.set_defaults(func=cmd_sweep_k)

    p = sub.add_parser("stream", help="stream a file over the link, write stream_report.json")
    _add_common(p)
    p.add_argument("--input", default="-", metavar="PATH",
                   help="input file ('-' reads stdin; default)")
    p.add_argument("--output", default=None, metavar="PATH",
                   help="recovered bytes destination (default: <out>/recovered.bin)")
    p.set_defaults(func=cmd_stream)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, load_config(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
