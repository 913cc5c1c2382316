"""Golden artifacts: SHA-256 of every file `simulate`, `sweep-k` and `stream`
write for three small seeded configs, of the `measure-pn` files for two, and
of one command's files for each config in ONE_COMMAND_CONFIGS.

The hashes pin the exact bytes, so a refactor or speed-up that changes any
decoded bit, EVM digit or CSV formatting fails here. To regenerate after an
intended change of behaviour, run `PYTHONPATH=src python tests/test_golden.py`
and paste the printed table over GOLDEN.
"""

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

from mmwavelink.cli import main

CONFIGS = {
    # QPSK over three-tap multipath with PNC on.
    "qpsk_multipath_pnc": {
        "channel": {"taps": [1.0, [0.3, 0.2], 0.1], "snr_db": 30.0, "sigma": 0.26},
        "phy": {"k_guard": 3},
        "modulation": "qpsk", "pnc_enabled": True,
        "n_frames": 5, "n_payload_symbols": 6, "seed": 11,
    },
    # 64-QAM with PNC off and no guard bins.
    "qam64_nopnc": {
        "channel": {"taps": [1.0, 0.2], "snr_db": 35.0, "sigma": 0.03},
        "phy": {"k_guard": 0},
        "modulation": "qam64", "pnc_enabled": False,
        "n_frames": 5, "n_payload_symbols": 6, "seed": 12,
    },
    # Carrier frequency offset with random-walk phase noise.
    "qpsk_cfo": {
        "channel": {"cfo_hz": 5000.0, "snr_db": 30.0, "sigma": 0.1,
                    "phase_noise_model": "random_walk"},
        "modulation": "qpsk", "pnc_enabled": True,
        "n_frames": 5, "n_payload_symbols": 6, "seed": 13,
    },
}

# The probe is 2**16 samples, 4 of the channel's 2**14-sample blocks, each a
# 256 KiB complex temporary: at numpy's threshold for reusing temporaries,
# like the blocks of the benchmark's 2 M-sample probe, so the pinned bytes
# cover the order of the channel's complex products there.
PROBE_CONFIGS = {
    "probe_multipath": {
        "channel": {"taps": [1.0, 0.2], "snr_db": 30.0, "sigma": 0.26},
        "probe": {"n_samples": 65536},
        "seed": 14,
    },
    # 3 * 2**16 + 1234 samples with CFO: 12 of the channel's 2**14-sample
    # blocks, the last one holding an odd tail, and 4 of np.histogram's
    # 65,536-sample blocks in the PDF.
    "probe_blocks_cfo": {
        "channel": {"taps": [1.0, 0.2], "snr_db": 30.0, "sigma": 0.26,
                    "cfo_hz": 2000.0},
        "probe": {"n_samples": 3 * 65536 + 1234},
        "seed": 15,
    },
}

# Configs pinned for one command each.
ONE_COMMAND_CONFIGS = {
    # The benchmark's stream config: 16 KiB make 36 packets, two full
    # 16-frame chunks and a 4-frame one, and each full chunk's (16, 1120)
    # complex stack is past numpy's 256 KiB threshold for reusing temporaries.
    "qam64_stream_chunks": ("stream", {
        "channel": {"taps": [1.0, [0.3, 0.2], 0.1], "snr_db": 35.0, "sigma": 0.03,
                    "bandwidth_hz": 1.0e6},
        "phy": {"k_guard": 0}, "modulation": "qam64", "pnc_enabled": False,
        "n_payload_symbols": 12, "seed": 16,
    }),
    # Frames of (2 + 205) * 80 = 16,560 samples with CFO: each frame row alone
    # is past that threshold (2**14 complex samples).
    "qpsk_long_rows_cfo": ("simulate", {
        "channel": {"taps": [1.0, [0.3, 0.2], 0.1], "snr_db": 30.0, "sigma": 0.26,
                    "cfo_hz": 5000.0},
        "modulation": "qpsk", "pnc_enabled": True,
        "n_frames": 2, "n_payload_symbols": 205, "seed": 17,
    }),
    # 37 frames: two full 16-frame chunks of `link.CHUNK_FRAMES` and a
    # 5-frame one, so every `simulate` artifact crosses chunk boundaries.
    "qpsk_multipath_pnc_chunks": ("simulate", {
        "channel": {"taps": [1.0, [0.3, 0.2], 0.1], "snr_db": 30.0, "sigma": 0.26},
        "phy": {"k_guard": 3},
        "modulation": "qpsk", "pnc_enabled": True,
        "n_frames": 37, "n_payload_symbols": 6, "seed": 18,
    }),
    # 20 frames of 64-QAM with PNC off: one full chunk and a 4-frame one, the
    # residual phase taken against the oracle track.
    "qam64_nopnc_chunks": ("simulate", {
        "channel": {"taps": [1.0, 0.2], "snr_db": 35.0, "sigma": 0.03},
        "phy": {"k_guard": 0},
        "modulation": "qam64", "pnc_enabled": False,
        "n_frames": 20, "n_payload_symbols": 6, "seed": 19,
    }),
}

K_LIST = "0,2,3"
STREAM_BYTES = 700
# Stream input sizes that differ from STREAM_BYTES.
STREAM_SIZES = {"qam64_stream_chunks": 16 * 1024}

GOLDEN = {
    "qam64_nopnc": {
        "simulate": {
            "constellation.csv":
                "9ead6a4db95de45bfcf354f1e27b9306bac564f1589c38b7f2b14ef1c5d8d440",
            "evm.csv":
                "f346d81fb2a072a71baa86eb5bd3f1e14a410f1424b5217810708b139590174d",
            "summary.json":
                "7f13a172e466249e2b0a7a78ae96f7b18b6206a163de36e542ffc17ac0a88780",
        },
        "sweep-k": {
            "ksweep.csv":
                "3e5980e87d42ade584decea16efdafff7da44eeeb2e9e04758e26d7e1be0cf3b",
        },
        "stream": {
            "recovered.bin":
                "2c827b4a22720a2e3d10e104015227cc078e2281c9713871fa65202236706651",
            "stream_report.json":
                "b3f0e3de874c408cfddf2dab0f3164ada158642d73afe0eca3990d07f3124c76",
        },
    },
    "qam64_nopnc_chunks": {
        "simulate": {
            "constellation.csv":
                "53397ebac66bbd88f5f58598f7af4ea7cba326c834b969b66b2b3ee972b92119",
            "evm.csv":
                "9af36eef6eb7275c1fb534753f4678975aa4a38ceee2bc100f4089e44ec42050",
            "summary.json":
                "c07c276e9047a8e28abb2b60861d47f78925aa3001287b5e266165cde643c72e",
        },
    },
    "qam64_stream_chunks": {
        "stream": {
            "recovered.bin":
                "f4a23222019ba9dd6e0259a5e19c8c77e49d77ad71b56f8edc465b2fec2c8b62",
            "stream_report.json":
                "0fd42595c1233725219c4ee47223c4fb71983ed76663b6e469ca58a70dc400ee",
        },
    },
    "probe_blocks_cfo": {
        "measure-pn": {
            "pn_fit.json":
                "6d651e04193d066ba4076a86dd89c97dc66aff3420ab9fb87eaa129593cc03c7",
            "pn_pdf.csv":
                "135fb1400762b776c169c2fdc3ccbba68f74619571dfcaadaa7733baebed6925",
            "pn_psd.csv":
                "14fda6d0803139b9ced5c4c5aae07fa50f9e5c783e183acf80b709ee8e542e5f",
        },
    },
    "probe_multipath": {
        "measure-pn": {
            "pn_fit.json":
                "37fe06f821162d81f839b4b8b6c65db46abac2c60f4f5f8503ad1e39e5bb78d8",
            "pn_pdf.csv":
                "6a4c74ee4b7f657067382a78bbd785d336b2025339369f32d2fcc70a2d2fec8d",
            "pn_psd.csv":
                "c4b8f4e6292aa397810d52ad3bb1729e33992b2dd7b03a35d287987816e7511a",
        },
    },
    "qpsk_cfo": {
        "simulate": {
            "constellation.csv":
                "50a40bfb0eb2a51d54b03c1413e8c75ec644afa01cfa584192cd55deef2a5968",
            "evm.csv":
                "8087a1e10417b33918f7c213613728d18edc920f58ca18acf0c9f6b57e90a41c",
            "summary.json":
                "f93c3789f7987816094e76afc0209e7509be478ac721d18ce1dd44daf88f8245",
        },
        "sweep-k": {
            "ksweep.csv":
                "a0622949c09d3a7435eb8abfd9ba482b322858d1ef7dc307841ae78ce0e9e8a4",
        },
        "stream": {
            "recovered.bin":
                "89756052cfdb75d241fe7cab7ad75826f2507b819010926c6407033d1ba3abea",
            "stream_report.json":
                "61babfd1fb8328fd7aa615c5630c1a2f4f59fedc3e539ed6b0a968453dde02c2",
        },
    },
    "qpsk_long_rows_cfo": {
        "simulate": {
            "constellation.csv":
                "c21bff76cca6844fdf808fd260d43767aa271af4533b86bdf0d7b225f5e46413",
            "evm.csv":
                "2ad2f3ff965585704859b43e86eb714dd028466acf6b05453afccb6279f181bb",
            "summary.json":
                "11a7c06d8002b0024a0ae8d5c895e8a3a04f84aa72b71f3326cefac5694afa56",
        },
    },
    "qpsk_multipath_pnc": {
        "simulate": {
            "constellation.csv":
                "fc5a7d916d7337e549359d3089000f9a9b593bf0d9374eb9d9d6c83a8387e3b0",
            "evm.csv":
                "82dbd080d22e5108db5adf118359cf1866229026ee1101d2277ca334a72c4e28",
            "summary.json":
                "15d7850589de2140adf6910cf84567c8ce36efc62b33754a6052af3c2478a34a",
        },
        "sweep-k": {
            "ksweep.csv":
                "0cb550f3c1d3dfd2ce1890c5b66a92a4cc24f270a3a0eae2f4f703c2a4bddaa4",
        },
        "stream": {
            "recovered.bin":
                "5c834dee4aafe03c8b1e11a01da87d460286770c10d81ce73c8b03a08b509f34",
            "stream_report.json":
                "6f92a2cfcd0bb91d1d553832e965b72962292f8e5b84132fcbed37ff8716eeb2",
        },
    },
    "qpsk_multipath_pnc_chunks": {
        "simulate": {
            "constellation.csv":
                "58669e1724afb1fc73b3e83e9c3893b872e07ad434e3bf687920840ae203a08d",
            "evm.csv":
                "26719b401be65a4a4008c6e290677194e1be848613a35c51accda87e4699b641",
            "summary.json":
                "11f947ce1718d51fc312d30a7516aa2c06995b22f9f08f1ff2a52943fec6d6e0",
        },
    },
}


def run_command(tmp_path: Path, name: str, command: str) -> dict:
    """Run one CLI command on a named config; returns {artifact: sha256}."""
    extra = {name: cfg for name, (_, cfg) in ONE_COMMAND_CONFIGS.items()}
    config = {**CONFIGS, **PROBE_CONFIGS, **extra}[name]
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / f"{name}-{command}"
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if command == "sweep-k":
        argv += ["--k-list", K_LIST]
    elif command == "stream":
        data_path = tmp_path / f"{name}.bin"
        data_path.write_bytes(random.Random(config["seed"]).randbytes(
            STREAM_SIZES.get(name, STREAM_BYTES)))
        argv += ["--input", str(data_path)]
    assert main(argv) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", ["simulate", "sweep-k", "stream"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_artifacts(tmp_path, name, command):
    assert run_command(tmp_path, name, command) == GOLDEN[name][command]


@pytest.mark.parametrize("name", sorted(PROBE_CONFIGS))
def test_golden_measure_pn(tmp_path, name):
    assert run_command(tmp_path, name, "measure-pn") == GOLDEN[name]["measure-pn"]


@pytest.mark.parametrize("name", sorted(ONE_COMMAND_CONFIGS))
def test_golden_one_command(tmp_path, name):
    command = ONE_COMMAND_CONFIGS[name][0]
    assert run_command(tmp_path, name, command) == GOLDEN[name][command]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        table = {name: {command: run_command(Path(tmp), name, command)
                        for command in ("simulate", "sweep-k", "stream")}
                 for name in sorted(CONFIGS)}
        table.update({name: {"measure-pn": run_command(Path(tmp), name, "measure-pn")}
                      for name in sorted(PROBE_CONFIGS)})
        table.update({name: {command: run_command(Path(tmp), name, command)}
                      for name, (command, _) in sorted(ONE_COMMAND_CONFIGS.items())})
    json.dump(table, sys.stdout, indent=4, sort_keys=True)
    print()
