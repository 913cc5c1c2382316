"""Experiment runner: simulate | measure-pn | sweep-k | stream.

Configuration is a single JSON document validated on load; unknown keys are
rejected. Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from pathlib import Path

import numpy as np

from .channel import (ChannelConfig, PhaseNoiseConfig, PhaseNoiseModel, _check_tone,
                      single_tone_probe)
from .link import (CHUNK_FRAMES, aggregate_evm_db, frame_bits_rng, frame_channel_cfg,
                   run_frame, run_seeded_frames)
from .linklayer import stream_bytes
from .metrics import (append_series_csv, gaussian_fit, extract_tone_phase, phase_pdf,
                      psd_welch, std_in_place, wrap_phase, write_csv_header,
                      write_phase_pdf_csv, write_psd_csv, write_series_csv)
from .modulation import Modulation, evm_db_from_powers
from .ofdm import OfdmConfig, build_plan, frame_capacity_bits
from .receiver import genie_evm_db


class ConfigError(Exception):
    pass


DEFAULT_CONFIG = {
    "phy": {
        "n_fft": 64,
        "cp_len": 16,
        "sample_rate_hz": 25.0e6,
        "k_guard": 3,
        "used_band": 26,
    },
    "channel": {
        "taps": [1.0],
        "snr_db": 35.0,
        "cfo_hz": 0.0,
        "sigma": 0.26,
        "bandwidth_hz": 1.0e6,
        "phase_noise_model": "filtered_gaussian",
    },
    "modulation": "qpsk",
    "n_frames": 200,
    "n_payload_symbols": 12,
    "pnc_enabled": True,
    "seed": 0,
    "probe": {
        "tone_hz": None,
        "n_samples": 1_000_000,
    },
}


def _merge_config(defaults: dict, user: dict, path: str = "") -> dict:
    merged = copy.deepcopy(defaults)
    for key, value in user.items():
        where = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {where}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{where} must be an object")
            merged[key] = _merge_config(defaults[key], value, where)
        else:
            merged[key] = value
    return merged


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


def load_config(path, seed_override=None) -> dict:
    """Merged config; numbers must be finite and the seed a non-negative integer."""
    if path is None:
        user = {}
    else:
        try:
            with open(path) as fh:
                user = json.load(fh, parse_float=_finite(float), parse_int=_finite(int),
                                 parse_constant=_finite(float))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
        except OSError as exc:
            raise ConfigError(f"cannot read config: {exc}")
        if not isinstance(user, dict):
            raise ConfigError("config root must be a JSON object")
    cfg = _merge_config(DEFAULT_CONFIG, user)
    if seed_override is not None:
        cfg["seed"] = seed_override
    seed = cfg["seed"]
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed!r}")
    return cfg


def _require_number(cfg: dict, section: str, key: str, integer: bool = False):
    value = cfg[section][key] if section else cfg[key]
    where = f"{section}.{key}" if section else key
    kinds = (int,) if integer else (int, float)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ConfigError(f"{where} must be {'an integer' if integer else 'a number'}")
    return value


def build_ofdm_config(cfg: dict) -> OfdmConfig:
    phy = cfg["phy"]
    for key in ("n_fft", "cp_len", "k_guard", "used_band"):
        _require_number(cfg, "phy", key, integer=True)
    _require_number(cfg, "phy", "sample_rate_hz")
    try:
        plan = build_plan(phy["n_fft"], phy["k_guard"], phy["used_band"])
        return OfdmConfig(plan=plan, cp_len=phy["cp_len"],
                          sample_rate_hz=float(phy["sample_rate_hz"]))
    except ValueError as exc:
        raise ConfigError(str(exc))


def _parse_taps(raw) -> tuple:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("channel.taps must be a non-empty array")
    taps = []
    for item in raw:
        if isinstance(item, (int, float)) and not isinstance(item, bool):
            taps.append(complex(item))
        elif (isinstance(item, list) and len(item) == 2
              and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in item)):
            taps.append(complex(item[0], item[1]))
        else:
            raise ConfigError("channel.taps entries must be numbers or [re, im] pairs")
    return tuple(taps)


def build_channel_config(cfg: dict, seed: int) -> ChannelConfig:
    ch = cfg["channel"]
    snr = ch["snr_db"]
    if snr is None:
        snr = math.inf
    elif isinstance(snr, bool) or not isinstance(snr, (int, float)):
        raise ConfigError("channel.snr_db must be a number or null")
    _require_number(cfg, "channel", "sigma")
    _require_number(cfg, "channel", "bandwidth_hz")
    _require_number(cfg, "channel", "cfo_hz")
    try:
        model = PhaseNoiseModel(ch["phase_noise_model"])
    except ValueError:
        raise ConfigError(
            f"channel.phase_noise_model must be one of "
            f"{[m.value for m in PhaseNoiseModel]}"
        )
    try:
        pn = PhaseNoiseConfig(sigma=float(ch["sigma"]),
                              bandwidth_hz=float(ch["bandwidth_hz"]), model=model)
        return ChannelConfig(taps=_parse_taps(ch["taps"]), snr_db=float(snr),
                             phase_noise=pn, cfo_hz=float(ch["cfo_hz"]), seed=seed,
                             sample_rate_hz=float(cfg["phy"]["sample_rate_hz"]))
    except ValueError as exc:
        raise ConfigError(str(exc))


def build_modulation(cfg: dict) -> Modulation:
    try:
        return Modulation(cfg["modulation"])
    except ValueError:
        raise ConfigError(
            f"modulation must be one of {[m.value for m in Modulation]}"
        )


def _validate_run_params(cfg: dict, ofdm_cfg: OfdmConfig) -> None:
    n_frames = _require_number(cfg, "", "n_frames", integer=True)
    n_sym = _require_number(cfg, "", "n_payload_symbols", integer=True)
    if n_frames < 0:
        raise ConfigError("n_frames must be >= 0")
    if n_sym < 1:
        raise ConfigError("n_payload_symbols must be >= 1")
    if not isinstance(cfg["pnc_enabled"], bool):
        raise ConfigError("pnc_enabled must be a boolean")
    taps = cfg["channel"]["taps"]
    # L taps spread a symbol over L - 1 extra samples, which the CP absorbs
    # while L - 1 <= cp_len.
    if isinstance(taps, list) and len(taps) - 1 > ofdm_cfg.cp_len:
        import warnings
        warnings.warn(
            f"channel has {len(taps)} taps but cp_len={ofdm_cfg.cp_len}; "
            "inter-symbol interference will not be absorbed"
        )


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


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.seed)
    ofdm_cfg = build_ofdm_config(cfg)
    modulation = build_modulation(cfg)
    _validate_run_params(cfg, ofdm_cfg)
    channel_cfg = build_channel_config(cfg, seed=cfg["seed"])
    out = _out_dir(args)

    n_frames = cfg["n_frames"]
    n_sym = cfg["n_payload_symbols"]
    capacity = frame_capacity_bits(ofdm_cfg, modulation, n_sym)
    # A run keeps per-frame scalars and each frame's residual phase over its
    # payload bodies, whose exact std goes into summary.json (taken in the
    # array's own buffer); a chunk's reports, points and traces are dropped
    # once its rows are written.
    evm, pilot_std, genie = np.empty(n_frames), np.empty(n_frames), np.empty(n_frames)
    powers = np.empty((n_frames, 2))   # each frame's error and reference power
    residual = np.empty((n_frames, n_sym * ofdm_cfg.plan.n_fft))
    n_erased = 0
    staged = {name: out / f".{name}.partial" for name in ("evm.csv", "constellation.csv")}
    try:
        with open(staged["evm.csv"], "w", newline="") as evm_fh, \
                open(staged["constellation.csv"], "w", newline="") as points_fh:
            write_csv_header(evm_fh, ["frame", "evm_db", "residual_phase_std"])
            write_csv_header(points_fh, ["re", "im"])
            for start in range(0, n_frames, CHUNK_FRAMES):
                rows = slice(start, min(start + CHUNK_FRAMES, n_frames))
                # One run_frame call per frame: the benchmark's run_s clock
                # starts at the first one (bench/child.py).
                results = [run_frame(
                    frame_bits_rng(cfg["seed"], i).integers(0, 2, capacity, dtype=np.uint8),
                    modulation, ofdm_cfg, frame_channel_cfg(channel_cfg, cfg["seed"], i),
                    cfg["pnc_enabled"], n_sym) for i in range(rows.start, rows.stop)]
                reports = [r.report for r in results]
                evm[rows] = [r.evm_db for r in reports]
                pilot_std[rows] = [r.residual_phase_std for r in reports]
                powers[rows] = [(r.error_power, r.reference_power) for r in reports]
                n_erased += sum(r.n_erased for r in reports)
                points = np.stack([r.points for r in reports]).reshape(len(reports), n_sym, -1)
                genie[rows] = genie_evm_db(points, np.stack([r.tx_bits for r in results]),
                                           np.stack([r.erased for r in reports]), modulation)
                d = wrap_phase(np.stack([r.theta_true_bodies for r in results])
                               - np.stack([r.theta_est for r in results]))
                residual[rows] = d - d.mean(axis=-1, keepdims=True)
                append_series_csv(evm_fh, [np.arange(rows.start, rows.stop), evm[rows],
                                           pilot_std[rows]])
                append_series_csv(points_fh, [points.real, points.imag])

        summary = {
            "n_frames": n_frames,
            "n_payload_symbols": n_sym,
            "modulation": modulation.value,
            "pnc_enabled": cfg["pnc_enabled"],
            "seed": cfg["seed"],
            "k_guard": ofdm_cfg.plan.k_guard,
            # Left-to-right power sums over the frames, as aggregate_evm_db's.
            "evm_db": evm_db_from_powers(sum(powers[:, 0].tolist()),
                                         sum(powers[:, 1].tolist())),
            "evm_db_genie_mean": float(genie.mean()) if n_frames else None,
            "residual_phase_std": float(pilot_std.mean()) if n_frames else None,
            "residual_phase_std_true": std_in_place(residual) if n_frames else None,
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


def cmd_measure_pn(args) -> int:
    cfg = load_config(args.config, args.seed)
    ofdm_cfg = build_ofdm_config(cfg)
    channel_cfg = build_channel_config(cfg, seed=cfg["seed"])
    tone = cfg["probe"]["tone_hz"]
    if tone is None:
        tone = cfg["phy"]["sample_rate_hz"] / 8.0
    elif isinstance(tone, bool) or not isinstance(tone, (int, float)):
        raise ConfigError("probe.tone_hz must be a number or null")
    try:
        _check_tone(tone, channel_cfg.sample_rate_hz)
    except ValueError as exc:
        raise ConfigError(f"probe.tone_hz: {exc}")
    n_samples = _require_number(cfg, "probe", "n_samples", integer=True)
    if n_samples < 4096:
        raise ConfigError("probe.n_samples must be >= 4096 for the PSD estimate")
    out = _out_dir(args)

    # Only the received buffer is kept, and only until its phase is taken.
    y = single_tone_probe(float(tone), n_samples, channel_cfg)[0]
    phase = extract_tone_phase(y, float(tone), channel_cfg.sample_rate_hz)
    del y
    fit = gaussian_fit(phase)
    centers, density = phase_pdf(phase)
    psd = psd_welch(phase, channel_cfg.sample_rate_hz)

    fit_text = _json_text("pn_fit.json", {
        "mean": fit.mean, "std": fit.std, "sample_count": fit.sample_count,
    })
    write_phase_pdf_csv(centers, density, out / "pn_pdf.csv")
    write_psd_csv(psd, out / "pn_psd.csv")
    (out / "pn_fit.json").write_text(fit_text)
    print(f"measure-pn: {n_samples} samples, fitted std={fit.std:.6g} rad")
    return 0


def cmd_sweep_k(args) -> int:
    cfg = load_config(args.config, args.seed)
    modulation = build_modulation(cfg)
    base_ofdm = build_ofdm_config(cfg)
    _validate_run_params(cfg, base_ofdm)
    if cfg["n_frames"] < 1:
        raise ConfigError("sweep-k needs n_frames >= 1 for a mean EVM")
    channel_cfg = build_channel_config(cfg, seed=cfg["seed"])
    try:
        k_values = [int(v) for v in args.k_list.split(",") if v.strip() != ""]
    except ValueError:
        raise ConfigError(f"bad --k-list {args.k_list!r}: must be comma-separated integers")
    if not k_values:
        raise ConfigError("--k-list is empty")
    out = _out_dir(args)

    phy = cfg["phy"]
    results = []
    for k in k_values:
        try:
            plan = build_plan(phy["n_fft"], k, phy["used_band"])
        except ValueError as exc:
            raise ConfigError(str(exc))
        ofdm_cfg = OfdmConfig(plan=plan, cp_len=phy["cp_len"],
                              sample_rate_hz=float(phy["sample_rate_hz"]))
        reports = (r.report for r in run_seeded_frames(
            modulation, ofdm_cfg, channel_cfg, cfg["pnc_enabled"],
            cfg["n_payload_symbols"], cfg["seed"], cfg["n_frames"]))
        results.append((k, aggregate_evm_db(reports)))
        print(f"sweep-k: K={k} mean_evm_db={results[-1][1]}")

    # A result that is not finite fails here, before ksweep.csv is opened.
    for k, evm in results:
        if evm is not None and not math.isfinite(evm):
            raise ValueError(f"ksweep.csv not written: mean EVM at K={k} is {evm}")
    write_series_csv(out / "ksweep.csv", ["k_guard", "mean_evm_db"],
                     [np.array([r[0] for r in results], dtype=int),
                      np.array([r[1] for r in results], dtype=float)])
    return 0


def cmd_stream(args) -> int:
    cfg = load_config(args.config, args.seed)
    ofdm_cfg = build_ofdm_config(cfg)
    modulation = build_modulation(cfg)
    _validate_run_params(cfg, ofdm_cfg)
    channel_cfg = build_channel_config(cfg, seed=cfg["seed"])
    out = _out_dir(args)

    if args.input == "-":
        data = sys.stdin.buffer.read()
    else:
        data = Path(args.input).read_bytes()

    recovered, report = stream_bytes(
        data, ofdm_cfg, channel_cfg, modulation,
        pnc_enabled=cfg["pnc_enabled"], seed=cfg["seed"],
        n_payload_symbols=cfg["n_payload_symbols"],
    )
    # Serialized first: a report that is not finite fails here, before the
    # recovered bytes are written.
    report_text = _json_text("stream_report.json", {
        "packets_sent": report.packets_sent,
        "packets_ok": report.packets_ok,
        "packets_crc_fail": report.packets_crc_fail,
        "per": report.per,
        "goodput_bits_per_channel_use": report.goodput_bits_per_channel_use,
        "mean_evm_db": report.mean_evm_db,
    })
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
    parser.add_argument("--seed", type=int, default=None, metavar="U64",
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
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
