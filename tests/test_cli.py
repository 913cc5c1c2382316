import argparse
import inspect
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import mmwavelink
from mmwavelink import ChannelConfig, PhaseNoiseConfig, stream_bytes
from mmwavelink.cli import (CONFIG_TABLE, DEFAULTS, MAX_ROW_SAMPLES, ConfigError,
                            load_config, main)

CLEAN = {
    "channel": {"snr_db": None, "sigma": 0.0, "phase_noise_model": "none"},
    "n_frames": 3,
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_summary(out_dir):
    with open(out_dir / "summary.json") as fh:
        return json.load(fh)


def test_simulate_impairment_free(tmp_path):
    cfg = write_cfg(tmp_path, CLEAN)
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["evm_db"] <= -100.0
    assert summary["n_erased"] == 0
    assert summary["n_frames"] == 3
    assert (out / "evm.csv").exists()
    assert (out / "constellation.csv").exists()
    evm_rows = (out / "evm.csv").read_text().strip().splitlines()
    assert evm_rows[0] == "frame,evm_db,residual_phase_std"
    assert len(evm_rows) == 4


def test_simulate_seed_override(tmp_path):
    cfg = write_cfg(tmp_path, {"n_frames": 1, "seed": 5})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "123"]) == 0
    assert read_summary(out)["seed"] == 123


def test_simulate_defaults_without_config(tmp_path):
    cfg = write_cfg(tmp_path, {"n_frames": 2})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["modulation"] == "qpsk"
    assert summary["k_guard"] == 3
    assert summary["pnc_enabled"] is True


def test_simulate_zero_frames(tmp_path):
    cfg = write_cfg(tmp_path, {"n_frames": 0})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    summary = read_summary(out)
    assert summary["evm_db"] is None
    assert summary["residual_phase_std"] is None
    assert (out / "evm.csv").read_text().strip() == "frame,evm_db,residual_phase_std"


def test_pnc_toggle_changes_evm(tmp_path):
    out_on = tmp_path / "on"
    out_off = tmp_path / "off"
    cfg_on = write_cfg(tmp_path, {"n_frames": 10}, "on.json")
    cfg_off = write_cfg(tmp_path, {"n_frames": 10, "pnc_enabled": False}, "off.json")
    assert main(["simulate", "--config", cfg_on, "--out", str(out_on)]) == 0
    assert main(["simulate", "--config", cfg_off, "--out", str(out_off)]) == 0
    evm_on = read_summary(out_on)["evm_db"]
    evm_off = read_summary(out_off)["evm_db"]
    assert evm_on <= evm_off - 10.0


def test_unknown_config_key_rejected(tmp_path):
    cfg = write_cfg(tmp_path, {"channel": {"snr": 20}})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


def test_malformed_json_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 1


COMMANDS = ["simulate", "measure-pn", "sweep-k", "stream"]


def command_argv(tmp_path, command, cfg, out):
    """argv of `command` on config file `cfg`; stream reads a small input file."""
    argv = [command, "--config", cfg, "--out", str(out)]
    if command == "stream":
        src = tmp_path / "input.bin"
        src.write_bytes(b"payload")
        argv += ["--input", str(src)]
    return argv


INVALID_VALUES = [
    {"modulation": "8psk"},
    {"phy": {"n_fft": 60}},
    {"phy": {"k_guard": 26}},
    {"channel": {"phase_noise_model": "wiener"}},
    {"channel": {"snr_db": "high"}},
    {"n_frames": -1},
    {"n_payload_symbols": 0},
    {"pnc_enabled": 1},
    {"n_frames": -5, "pnc_enabled": "yes"},
    {"probe": {"n_samples": 1024}},
    {"probe": {"tone_hz": 2e7}},
    {"phy": 64},
    {"phy.n_fft": 64},
    {"channel": {"taps": []}},
    {"channel": {"taps": [1.0, [0.5]]}},
    # Finite in the JSON, but the tap energy or the noise power is not.
    {"channel": {"taps": [1e200, 1e200]}},
    {"channel": {"snr_db": -1e308}},
    # A CFO at or beyond fs/2 (12.5 MHz at the default rate) aliases.
    {"channel": {"cfo_hz": 1e308}},
    {"channel": {"cfo_hz": 12.5e6}},
    {"channel": {"cfo_hz": -2e7}},
    # OfdmConfig's own rule; the sample rate's is ChannelConfig's.
    {"phy": {"cp_len": 64}},
    {"phy": {"sample_rate_hz": 0}},
]


# Every subcommand checks every key, including those it never reads. The
# simulate cases are named patch0, patch1, ... so that their ids stay stable.
@pytest.mark.parametrize("command, patch", [
    pytest.param(command, patch, id=f"{command}-patch{i}".removeprefix("simulate-"))
    for command in COMMANDS for i, patch in enumerate(INVALID_VALUES)])
def test_invalid_config_values_exit_1(tmp_path, command, patch):
    out = tmp_path / "o"
    assert main(command_argv(tmp_path, command, write_cfg(tmp_path, patch), out)) == 1
    assert not out.exists()


@pytest.mark.parametrize("text", [
    '{"channel": {"sigma": NaN}}',
    '{"channel": {"cfo_hz": Infinity}}',
    '{"phy": {"sample_rate_hz": -Infinity}}',
    '{"channel": {"taps": [1.0, [0.5, 1e400]]}}',
    '{"probe": {"tone_hz": 1e400}}',
    '{"channel": {"sigma": 1' + "0" * 400 + '}}',
], ids=["nan", "infinity", "minus-infinity", "tap-overflow", "float-overflow",
        "int-overflow"])
@pytest.mark.parametrize("command", ["simulate", "measure-pn"])
def test_non_finite_config_numbers_exit_1(tmp_path, capsys, text, command):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "o"
    assert main([command, "--config", str(path), "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, key", [
    ('{"n_frames": 1, "n_frames": 3, "channel": {"snr_db": 20}, "channel": {"sigma": 0.1}}',
     "n_frames"),
    ('{"channel": {"snr_db": 20}, "channel": {"sigma": 0.1}}', "channel"),
    ('{"channel": {"snr_db": 20, "sigma": 0.1, "snr_db": 30}}', "channel.snr_db"),
    ('{"probe": {"tone_hz": null, "tone_hz": 1e6}}', "probe.tone_hz"),
], ids=["top-level", "section", "nested", "nested-null"])
@pytest.mark.parametrize("command", COMMANDS)
def test_repeated_config_key_exit_1(tmp_path, capsys, text, key, command):
    # JSON leaves a repeated key to the parser; taking the last value would
    # drop the user's earlier one, and a repeated section its whole body.
    path = tmp_path / "cfg.json"
    path.write_text(text)
    out = tmp_path / "o"
    assert main(command_argv(tmp_path, command, str(path), out)) == 1
    assert f"config key {key} is given more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def unbounded_sigma(monkeypatch):
    """Lift the config's sigma bound, so that a sigma of 1e308 overflows the
    phase process to NaN at run time: a run that fails after its output
    directory is made."""
    monkeypatch.setattr(mmwavelink.channel, "MAX_PN_SIGMA", float("inf"))


def test_overflowing_sigma_leaves_no_nan_summary(tmp_path, unbounded_sigma):
    # The run must fail rather than write a summary.json holding NaN, and must
    # not leave the CSVs of the failed run, or their staged parts, behind
    # either. 20 frames: the CSV rows of a whole chunk are staged before the
    # failure.
    cfg = write_cfg(tmp_path, {"channel": {"sigma": 1e308}, "n_frames": 20})
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main(["simulate", "--config", cfg, "--out", str(out)]) != 0
    assert not list(out.iterdir())


def test_overflowing_sigma_sweep_k_leaves_no_csv(tmp_path, capsys, unbounded_sigma):
    cfg = write_cfg(tmp_path, {"channel": {"sigma": 1e308}, "n_frames": 2})
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main(["sweep-k", "--config", cfg, "--out", str(out), "--k-list", "0,3"]) == 2
    assert "ksweep.csv not written" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_overflowing_sigma_stream_leaves_no_file(tmp_path, capsys, unbounded_sigma):
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(200)))
    cfg = write_cfg(tmp_path, {"channel": {"sigma": 1e308}})
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main(["stream", "--config", cfg, "--out", str(out), "--input", str(src)]) == 2
    assert "stream_report.json not written" in capsys.readouterr().err
    assert not list(out.iterdir())


def test_stream_frame_without_room_for_a_packet_is_config_error(tmp_path, capsys):
    # One BPSK payload symbol carries 46 bits, 5 whole bytes: not even a
    # packet's 10 bytes of header and CRC. Nothing is written.
    src = tmp_path / "input.bin"
    src.write_bytes(b"payload")
    cfg = write_cfg(tmp_path, {"modulation": "bpsk", "n_payload_symbols": 1})
    out = tmp_path / "o"
    assert main(["stream", "--config", cfg, "--out", str(out), "--input", str(src)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# A finite sigma of 1e307 or more overflows the draw under either model.
@pytest.mark.parametrize("channel", [{"bandwidth_hz": 0.0}, {"bandwidth_hz": 12.5e6},
                                     {"sigma": -0.1}, {"bandwidth_hz": 1e-300},
                                     {"bandwidth_hz": 5e-324}, {"sigma": 1e307},
                                     {"sigma": 1.7e308},
                                     {"sigma": 1e307, "phase_noise_model": "random_walk"},
                                     {"sigma": 1.7e308, "phase_noise_model": "random_walk"}],
                         ids=["zero-bandwidth", "nyquist-bandwidth", "negative-sigma",
                              "underflowing-bandwidth", "zero-corner", "overflowing-sigma",
                              "largest-sigma", "overflowing-walk-sigma", "largest-walk-sigma"])
@pytest.mark.parametrize("command", ["simulate", "measure-pn", "sweep-k", "stream"])
def test_invalid_phase_noise_is_config_error(tmp_path, capsys, channel, command):
    # Rejected while the channel config is built: exit 1, no output directory.
    src = tmp_path / "input.bin"
    src.write_bytes(b"payload")
    out = tmp_path / "o"
    argv = [command, "--config", write_cfg(tmp_path, {"channel": channel}),
            "--out", str(out)]
    if command == "stream":
        argv += ["--input", str(src)]
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_readme_example_config_is_the_table_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Example config", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]

    def flatten(doc, prefix=""):
        for key, value in doc.items():
            if isinstance(value, dict):
                yield from flatten(value, f"{prefix}{key}.")
            else:
                yield prefix + key, value

    assert dict(flatten(json.loads(block))) == DEFAULTS
    # The key table lists every row, in the table's order.
    assert re.findall(r"^\| `([\w.]+)` \|", readme, re.M) == [row[0] for row in CONFIG_TABLE]


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    stack = namespace["stack"]
    assert stack.report.bits.shape == stack.tx_bits.shape == (4, 1104)
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_artifacts_table_names_the_files_written(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("## Artifacts", 1)[1].split("\n\n", 2)[1]
    listed = {row.split("|")[1].strip(): set(re.findall(r"`([\w.]+\.\w+)`", row.split("|")[2]))
              for row in table.splitlines()[2:]}
    assert listed == run_all_artifacts(tmp_path, "readme")[1]


def test_readme_exit_codes_match_main(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = re.search(r"^Exit codes: (.*)\.$", readme, re.M).group(1)
    codes = dict(item.split(" ", 1)[::-1] for item in line.split(", "))
    assert line in mmwavelink.cli.__doc__
    assert main(["simulate", "--config", write_cfg(tmp_path, CLEAN),
                 "--out", str(tmp_path / "ok")]) == int(codes["success"])
    assert main(["simulate", "--config", write_cfg(tmp_path, {"n_frames": -1}),
                 "--out", str(tmp_path / "bad")]) == int(codes["configuration error"])

    def fail(args, cfg):
        raise RuntimeError("boom")

    monkeypatch.setattr(mmwavelink.cli, "cmd_simulate", fail)
    assert main(["simulate", "--out", str(tmp_path / "err")]) == int(codes["runtime error"])
    assert "error: boom" in capsys.readouterr().err


def test_library_defaults_are_the_table_defaults():
    # The library's defaulted fields and keywords against CONFIG_TABLE's
    # defaults for the same keys: one default, two places that state it.
    channel, phase_noise = ChannelConfig(), PhaseNoiseConfig()
    assert channel.phase_noise == phase_noise
    stream = {name: p.default for name, p in inspect.signature(stream_bytes).parameters.items()}
    library = {
        "phy.sample_rate_hz": channel.sample_rate_hz,
        "channel.taps": list(channel.taps),
        "channel.snr_db": channel.snr_db,
        "channel.cfo_hz": channel.cfo_hz,
        "channel.sigma": phase_noise.sigma,
        "channel.bandwidth_hz": phase_noise.bandwidth_hz,
        "channel.phase_noise_model": phase_noise.model.value,
        "modulation": stream["modulation"].value,
        "pnc_enabled": stream["pnc_enabled"],
        "seed": stream["seed"],
        "n_payload_symbols": stream["n_payload_symbols"],
    }
    assert library == {key: DEFAULTS[key] for key in library}


def test_json_artifacts_are_strict(tmp_path):
    out = tmp_path / "o"
    assert main(["simulate", "--config", write_cfg(tmp_path, CLEAN), "--out", str(out)]) == 0

    def reject(name):
        raise AssertionError(f"non-finite JSON constant {name}")

    json.loads((out / "summary.json").read_text(), parse_constant=reject)


def test_negative_seed_is_config_error(tmp_path, capsys):
    out = tmp_path / "o"
    # --seed text goes through the config's seed row: text that is not an
    # integer is a config error (exit 1), not an argparse usage error (exit 2).
    for seed in ("-1", "abc", "1.5"):
        assert main(["simulate", "--seed", seed, "--out", str(out)]) == 1
    cfg = write_cfg(tmp_path, {"seed": -1, "n_frames": 1})
    for command in ("simulate", "measure-pn", "sweep-k"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.count("config error: seed must be a non-negative integer") == 6
    assert "expected non-negative integer" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [1.5, True, "7"])
def test_non_integer_seed_is_config_error(tmp_path, seed):
    cfg = write_cfg(tmp_path, {"seed": seed})
    assert main(["measure-pn", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("n_taps, expect_isi", [(17, False), (18, True)])
def test_isi_warning_boundary(tmp_path, n_taps, expect_isi):
    # cp_len=16 absorbs a delay spread of 16 samples, that is 17 taps.
    taps = [1.0] + [0.2] * (n_taps - 1)
    cfg = write_cfg(tmp_path, {**CLEAN, "channel": {**CLEAN["channel"], "taps": taps},
                               "n_frames": 1})
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    isi = [w for w in caught if "inter-symbol interference" in str(w.message)]
    assert bool(isi) == expect_isi
    evm = read_summary(out)["evm_db"]
    assert (evm <= -100.0) == (not expect_isi)


def test_measure_pn_clean_tone(tmp_path):
    cfg = write_cfg(tmp_path, {
        "channel": {"snr_db": None, "sigma": 0.0},
        "probe": {"n_samples": 8192},
    })
    out = tmp_path / "out"
    assert main(["measure-pn", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "pn_fit.json") as fh:
        fit = json.load(fh)
    assert fit["std"] < 1e-6
    assert fit["sample_count"] == 8192
    assert (out / "pn_pdf.csv").exists()
    assert (out / "pn_psd.csv").exists()


def test_measure_pn_rejects_short_probe(tmp_path):
    cfg = write_cfg(tmp_path, {"probe": {"n_samples": 1024}})
    assert main(["measure-pn", "--config", cfg, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("tone_hz", [2e7, -2e7, 12.5e6, -12.5e6])
def test_measure_pn_tone_at_or_past_nyquist_is_config_error(tmp_path, capsys, tone_hz):
    # fs is 25 MHz: a tone at or past +-fs/2 aliases, so the probe cannot run.
    cfg = write_cfg(tmp_path, {"probe": {"tone_hz": tone_hz, "n_samples": 8192}})
    out = tmp_path / "o"
    assert main(["measure-pn", "--config", cfg, "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


# 1e11 probe samples would be 745 GiB of phase, and 1e8 payload symbols a
# frame row of 8e9 samples: each is refused before anything is allocated.
@pytest.mark.parametrize("patch, key", [({"probe": {"n_samples": 10 ** 11}}, "probe.n_samples"),
                                        ({"n_payload_symbols": 10 ** 8}, "n_payload_symbols")])
@pytest.mark.parametrize("command", COMMANDS)
def test_absurd_row_sizes_exit_1(tmp_path, capsys, command, patch, key):
    out = tmp_path / "o"
    argv = command_argv(tmp_path, command, write_cfg(tmp_path, patch), out)
    tracemalloc.start()
    try:
        assert main(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert key in err and str(MAX_ROW_SAMPLES) in err
    assert peak < 1 << 20
    assert not out.exists()


@pytest.mark.parametrize("longest, too_long, rows", [
    ({"probe": {"n_samples": MAX_ROW_SAMPLES}}, {"probe": {"n_samples": MAX_ROW_SAMPLES + 1}},
     MAX_ROW_SAMPLES + 1),
    ({"n_payload_symbols": MAX_ROW_SAMPLES // 80 - 2, "n_frames": 1},
     {"n_payload_symbols": MAX_ROW_SAMPLES // 80 - 1, "n_frames": 1},
     (MAX_ROW_SAMPLES // 80 + 1) * 80)])
def test_row_size_limit_is_inclusive(tmp_path, longest, too_long, rows):
    # The longest rows load; one more sample, or one more 80-sample symbol,
    # does not. The limit is on a row alone: simulate has none on n_frames.
    args = argparse.Namespace(config=write_cfg(tmp_path, longest), seed=None, command="simulate")
    load_config(args)
    args.config = write_cfg(tmp_path, too_long)
    with pytest.raises(ConfigError, match=f"rows of {rows} samples"):
        load_config(args)


def simulate_peak_bytes(tmp_path, n_frames: int) -> int:
    """The traced peak of one simulate run of n_frames at the default PHY."""
    argv = ["simulate", "--config", write_cfg(tmp_path, {"n_frames": n_frames}),
            "--out", str(tmp_path / f"o{n_frames}")]
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_does_not_grow_with_n_frames(tmp_path, monkeypatch):
    # A run keeps running sums, not per-frame arrays, and writes each
    # chunk's CSV text as it comes, so ten times the frames hold no more:
    # a (n_frames, n_payload_symbols * n_fft) residual phase array would
    # hold 8.6 MiB more at 1,600 frames. One CPU keeps every chunk in this
    # process, where tracemalloc sees it.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    simulate_peak_bytes(tmp_path, 16)   # caches and imports
    short, long = simulate_peak_bytes(tmp_path, 160), simulate_peak_bytes(tmp_path, 1600)
    assert long - short < 1 << 20, (short, long)


@pytest.mark.parametrize("k_guard", [0, 3])
def test_noiseless_simulate_residual_std_is_finite(tmp_path, k_guard):
    # One tap, no noise, no phase noise: the residual phase is zero up to
    # rounding, and its std, taken from running sums, must still be a finite
    # number >= 0, not a NaN from the square root of a rounded difference.
    cfg = write_cfg(tmp_path, {**CLEAN, "phy": {"k_guard": k_guard}, "n_frames": 37})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    std = read_summary(out)["residual_phase_std_true"]
    assert isinstance(std, float) and math.isfinite(std) and std >= 0.0


def test_sweep_k_zero_frames_is_config_error(tmp_path, capsys):
    # No frame means no mean EVM: nothing to write into ksweep.csv.
    cfg = write_cfg(tmp_path, {"n_frames": 0})
    out = tmp_path / "o"
    assert main(["sweep-k", "--config", cfg, "--out", str(out), "--k-list", "0"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_k_writes_rows(tmp_path):
    cfg = write_cfg(tmp_path, {"n_frames": 2})
    out = tmp_path / "out"
    assert main(["sweep-k", "--config", cfg, "--out", str(out),
                 "--k-list", "0,3"]) == 0
    rows = (out / "ksweep.csv").read_text().strip().splitlines()
    assert rows[0] == "k_guard,mean_evm_db"
    assert len(rows) == 3
    assert rows[1].startswith("0,") and rows[2].startswith("3,")


def test_sweep_k_rejects_bad_lists(tmp_path):
    cfg = write_cfg(tmp_path, {"n_frames": 1})
    out = str(tmp_path / "o")
    assert main(["sweep-k", "--config", cfg, "--out", out, "--k-list", "0,x"]) == 1
    assert main(["sweep-k", "--config", cfg, "--out", out, "--k-list", ""]) == 1
    assert main(["sweep-k", "--config", cfg, "--out", out, "--k-list", "26"]) == 1


def test_sweep_k_rejects_a_repeated_k(tmp_path, capsys):
    # A repeated K would run again and write a second row for it.
    cfg = write_cfg(tmp_path, {"n_frames": 2})
    out = tmp_path / "o"
    assert main(["sweep-k", "--config", cfg, "--out", str(out), "--k-list", "3,0,3"]) == 1
    assert "3" in capsys.readouterr().err
    assert not (out / "ksweep.csv").exists()


def test_stream_round_trip(tmp_path):
    data = bytes(np.random.default_rng(40).integers(0, 256, 400, dtype=np.uint8))
    src = tmp_path / "input.bin"
    src.write_bytes(data)
    cfg = write_cfg(tmp_path, {"channel": CLEAN["channel"]})
    out = tmp_path / "out"
    dst = tmp_path / "recovered.bin"
    assert main(["stream", "--config", cfg, "--out", str(out),
                 "--input", str(src), "--output", str(dst)]) == 0
    assert dst.read_bytes() == data
    with open(out / "stream_report.json") as fh:
        report = json.load(fh)
    assert report["packets_sent"] == 4
    assert report["packets_ok"] == 4
    assert report["per"] == 0.0


def test_stream_default_output_location(tmp_path):
    src = tmp_path / "input.bin"
    src.write_bytes(b"payload bytes")
    cfg = write_cfg(tmp_path, {"channel": CLEAN["channel"]})
    out = tmp_path / "out"
    assert main(["stream", "--config", cfg, "--out", str(out),
                 "--input", str(src)]) == 0
    assert (out / "recovered.bin").read_bytes() == b"payload bytes"


@pytest.mark.parametrize("name", ["nope.bin", "."], ids=["missing", "directory"])
def test_stream_unreadable_input_is_config_error(tmp_path, capsys, name):
    # The input is read before the output directory is made.
    out = tmp_path / "o"
    assert main(["stream", "--out", str(out), "--input", str(tmp_path / name)]) == 1
    assert "config error: cannot read input" in capsys.readouterr().err
    assert not out.exists()


CFO_TAPS = [1.0, [0.3, 0.2], 0.1]


def test_cfo_is_not_corrected_by_the_frame_commands(tmp_path):
    # README's CFO limit: no receiver stage removes the CFO, so simulate's EVM
    # falls with it, stream loses every packet at 120 kHz, and every run exits 0.
    evm = []
    for cfo_hz in (0.0, 50e3, 120e3):
        cfg = write_cfg(tmp_path, {"channel": {"taps": CFO_TAPS, "cfo_hz": cfo_hz},
                                   "n_frames": 40, "seed": 3})
        out = tmp_path / f"simulate-{cfo_hz:g}"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        evm.append(read_summary(out)["evm_db"])
    assert evm == pytest.approx([-24.3, -11.6, -5.9], abs=0.05)
    src = tmp_path / "input.bin"
    src.write_bytes(bytes(range(256)) * 4)
    out = tmp_path / "out"
    assert main(["stream", "--config", cfg, "--out", str(out), "--input", str(src)]) == 0
    with open(out / "stream_report.json") as fh:
        report = json.load(fh)
    assert report["packets_ok"] == 0 and report["packets_crc_fail"] == report["packets_sent"]
    assert main(["sweep-k", "--config", cfg, "--out", str(out), "--k-list", "0,3"]) == 0


def test_measure_pn_reports_a_cfo_ramp_as_phase_noise(tmp_path):
    # README's CFO limit: the probe removes only its phase's mean, so the fit
    # is the ramp's spread, 2 pi f n / fs over sqrt(12), and not sigma = 0.26.
    n, cfo_hz = 200_000, 2000.0
    cfg = write_cfg(tmp_path, {"channel": {"cfo_hz": cfo_hz}, "probe": {"n_samples": n},
                               "seed": 3})
    out = tmp_path / "out"
    assert main(["measure-pn", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "pn_fit.json") as fh:
        std = json.load(fh)["std"]
    ramp = 2 * np.pi * cfo_hz * n / 25e6 / np.sqrt(12)
    assert round(std, 2) == 29.03 and round(ramp, 2) == 29.02


def run_all_artifacts(tmp_path, tag):
    """Run every subcommand into one directory; returns it and the names of
    the files each subcommand added."""
    cfg = write_cfg(tmp_path, {"n_frames": 4, "probe": {"n_samples": 8192}},
                    f"{tag}.json")
    out = tmp_path / tag
    src = tmp_path / f"{tag}.bin"
    src.write_bytes(bytes(np.random.default_rng(41).integers(0, 256, 200,
                                                             dtype=np.uint8)))
    written = {}
    for command, *extra in (["simulate"], ["measure-pn"], ["sweep-k", "--k-list", "0,3"],
                            ["stream", "--input", str(src)]):
        before = set(os.listdir(out)) if out.exists() else set()
        assert main([command, "--config", cfg, "--out", str(out), *extra]) == 0
        written[command] = set(os.listdir(out)) - before
    return out, written


def test_artifacts_are_deterministic(tmp_path):
    a, _ = run_all_artifacts(tmp_path, "a")
    b, _ = run_all_artifacts(tmp_path, "b")
    names = ["evm.csv", "constellation.csv", "summary.json", "pn_pdf.csv",
             "pn_psd.csv", "pn_fit.json", "ksweep.csv", "stream_report.json",
             "recovered.bin"]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def load_toml(path):
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(path, "rb") as fh:
        return tomllib.load(fh)


def test_console_script_runs(tmp_path):
    # Run the [project.scripts] target the way the generated wrapper does, in
    # a fresh interpreter that imports this checkout's package, so the test
    # needs no installed script and no stale script on PATH can stand in.
    pyproject = load_toml(Path(__file__).resolve().parents[1] / "pyproject.toml")
    module, attr = pyproject["project"]["scripts"]["mmwavelink"].split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = Path(mmwavelink.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(package_root), env.get("PYTHONPATH")]))
    cfg = write_cfg(tmp_path, CLEAN)
    out = tmp_path / "out"
    proc = subprocess.run([sys.executable, "-c", code, "simulate",
                           "--config", cfg, "--out", str(out)],
                          capture_output=True, text=True, cwd=tmp_path,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "simulate:" in proc.stdout
    assert (out / "summary.json").exists()


def test_public_names_resolve():
    # Every exported name exists, and so does each name the benchmark binds
    # by name (bench/child.py and bench/spans.py).
    namespace = {}
    exec("from mmwavelink import *", namespace)
    assert len(set(mmwavelink.__all__)) == len(mmwavelink.__all__)
    assert set(mmwavelink.__all__) <= namespace.keys()
    for module, name in [(mmwavelink.cli, "run_frame"), (mmwavelink.cli, "stream_bytes"),
                         (mmwavelink.cli, "single_tone_probe"),
                         (mmwavelink.channel, "PhaseNoiseProcess")]:
        assert callable(getattr(module, name)), name
    # OfdmConfig holds the symbol layout on its own.
    for name in ("SubcarrierPlan", "build_plan"):
        assert not hasattr(mmwavelink, name) and not hasattr(mmwavelink.ofdm, name), name


def simulate_run_frame_calls(tmp_path, monkeypatch) -> list:
    """The (start, stop) frame range of each cli.run_frame call of a 37-frame
    simulate, in the order each process made them. Each call appends its
    range to a file, so that calls in a forked chunk worker count too."""
    log = tmp_path / "run_frame_calls.txt"
    original = mmwavelink.cli.run_frame

    def counted(*args, **kwargs):
        frames = args[-1]
        with open(log, "a") as fh:
            fh.write(f"{frames.start} {frames.stop}\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(mmwavelink.cli, "run_frame", counted)
    cfg = write_cfg(tmp_path, {"n_frames": 37, "n_payload_symbols": 2})
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    return [tuple(map(int, line.split())) for line in log.read_text().splitlines()]


def test_simulate_run_frame_calls_one_per_chunk(tmp_path, monkeypatch):
    # simulate runs each CHUNK_FRAMES chunk as one call of the name
    # cli.run_frame, which the benchmark hooks (bench/child.py) to start its
    # run clock; per-frame calls, or a call that bypasses the name, fail here.
    # With 2 or more CPUs a forked worker makes some of the calls, so the
    # ranges are compared by start.
    ranges = simulate_run_frame_calls(tmp_path, monkeypatch)
    assert sorted(ranges) == [(0, 16), (16, 32), (32, 37)]


def test_simulate_run_frame_calls_in_order_in_process(tmp_path, monkeypatch):
    # With one CPU every chunk runs in this process, one call per chunk in
    # chunk order.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    ranges = simulate_run_frame_calls(tmp_path, monkeypatch)
    assert ranges == [(0, 16), (16, 32), (32, 37)]
