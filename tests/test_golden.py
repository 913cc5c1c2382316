"""Golden artifacts: SHA-256 of every file `simulate`, `sweep-k` and `stream`
write for three small seeded configs, of the `measure-pn` files for two, and
of one command's files for each config in ONE_COMMAND_CONFIGS.

The hashes pin the exact bytes, so a refactor or speed-up that changes any
decoded bit, EVM digit or CSV formatting fails here. GOLDEN_VALUES pins the
numbers of the JSON artifacts and the EVMs of ksweep.csv, floats within 1e-9
relative and integers exactly, so that a hash that moves can be told apart:
with its values held, only rounding moved. To regenerate after an intended
change of behaviour, run `PYTHONPATH=src python tests/test_golden.py` and
paste the two printed tables over GOLDEN and GOLDEN_VALUES.
"""

import csv
import hashlib
import json
import math
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
    # A run seed past 2**64, three 32-bit words: each frame's derived seed and
    # bits come from five words of SeedSequence entropy, one past its pool of
    # four, where the other seeds give three.
    "qpsk_wide_seed": ("simulate", {
        "channel": {"taps": [1.0, [0.3, 0.2], 0.1], "snr_db": 30.0, "sigma": 0.26},
        "modulation": "qpsk", "pnc_enabled": True,
        "n_frames": 5, "n_payload_symbols": 6, "seed": 2**64 + 5,
    }),
    # A probe seed of five 32-bit words: the channel's two streams hash it
    # with no zero padding before their spawn keys, six words each.
    "probe_wide_seed": ("measure-pn", {
        "channel": {"taps": [1.0, 0.2], "snr_db": 30.0, "sigma": 0.26},
        "probe": {"n_samples": 16384},
        "seed": 2**130 + 7,
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
                "e90c65846d35788e13add2ac77fc2109d4dece3ab48d625a616ad9ec10cdfa80",
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
    "probe_wide_seed": {
        "measure-pn": {
            "pn_fit.json":
                "6856beb5702f80cbf3e0e6a079915906aeca63616f5670f14b5ce0451c415e86",
            "pn_pdf.csv":
                "7a28624c37348e6b3b3d2cb00c6f3662198aadddef21a211f6e136501b371d5a",
            "pn_psd.csv":
                "e3a8d101648dbf666e2ac5a7cdd27ed0c82cc372658110b302cc1c1aba0d47c0",
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
                "2b555874f6ff6660078d5d3fbc3bb28435a85d8835eee6be3a74d61258d8a595",
        },
    },
    "qpsk_wide_seed": {
        "simulate": {
            "constellation.csv":
                "204e4137ed7bde6e277b6e5df14b49476432b20aca8492b488cbff15b0face0c",
            "evm.csv":
                "3f4f1f3dc0a12930bf92475a6b0cebd16e4600b9f80bf81966dbdd527e02ef9b",
            "summary.json":
                "e91926cb8bca2f6111c94630d6b6ecc31b4c22046f3c9cdc65b44445c4c0d23c",
        },
    },
}


# The numbers artifact_values reads from each run's artifacts.
GOLDEN_VALUES = {
    "probe_blocks_cfo": {
        "measure-pn": {
            "std": 28.705097123852557
        }
    },
    "probe_multipath": {
        "measure-pn": {
            "std": 0.2547231511924008
        }
    },
    "qam64_nopnc": {
        "simulate": {
            "evm_db": -29.25272786072143,
            "evm_db_genie_mean": -29.562589499463392,
            "residual_phase_std": 0.0197418210863715,
            "residual_phase_std_true": 0.011716600405467542
        },
        "stream": {
            "goodput_bits_per_channel_use": 2.1875,
            "mean_evm_db": -29.448708240701936,
            "packets_crc_fail": 0,
            "packets_ok": 4,
            "packets_sent": 4,
            "per": 0.0
        },
        "sweep-k": {
            "mean_evm_db K=0": -29.25272786,
            "mean_evm_db K=2": -29.36668827,
            "mean_evm_db K=3": -29.55931457
        }
    },
    "qam64_nopnc_chunks": {
        "simulate": {
            "evm_db": -28.189095734138494,
            "evm_db_genie_mean": -28.827343949066687,
            "residual_phase_std": 0.024401061925339838,
            "residual_phase_std_true": 0.011193308735113119
        }
    },
    "qam64_stream_chunks": {
        "stream": {
            "goodput_bits_per_channel_use": 2.9781746031746033,
            "mean_evm_db": -26.812610833240377,
            "packets_crc_fail": 3,
            "packets_ok": 33,
            "packets_sent": 36,
            "per": 0.08333333333333337
        }
    },
    "probe_wide_seed": {
        "measure-pn": {
            "std": 0.27496429435251646
        }
    },
    "qpsk_cfo": {
        "simulate": {
            "evm_db": -20.73567793433427,
            "evm_db_genie_mean": -20.81767743600471,
            "residual_phase_std": 0.003724244940100218,
            "residual_phase_std_true": 0.18673837301707144
        },
        "stream": {
            "goodput_bits_per_channel_use": 0.7291666666666666,
            "mean_evm_db": -20.063408444893646,
            "packets_crc_fail": 0,
            "packets_ok": 12,
            "packets_sent": 12,
            "per": 0.0
        },
        "sweep-k": {
            "mean_evm_db K=0": -22.38063031,
            "mean_evm_db K=2": -21.91162641,
            "mean_evm_db K=3": -20.73567793
        }
    },
    "qpsk_long_rows_cfo": {
        "simulate": {
            "evm_db": -21.47432402762479,
            "evm_db_genie_mean": -21.474324140626514,
            "residual_phase_std": 0.00497289462407419,
            "residual_phase_std_true": 1.7747972842404445
        }
    },
    "qpsk_multipath_pnc": {
        "simulate": {
            "evm_db": -22.158442982470973,
            "evm_db_genie_mean": -22.385457741581142,
            "residual_phase_std": 0.002397074291660385,
            "residual_phase_std_true": 0.06865571892129473
        },
        "stream": {
            "goodput_bits_per_channel_use": 0.7291666666666666,
            "mean_evm_db": -22.462657676716972,
            "packets_crc_fail": 0,
            "packets_ok": 12,
            "packets_sent": 12,
            "per": 0.0
        },
        "sweep-k": {
            "mean_evm_db K=0": -21.72050742,
            "mean_evm_db K=2": -22.09179297,
            "mean_evm_db K=3": -22.15844298
        }
    },
    "qpsk_multipath_pnc_chunks": {
        "simulate": {
            "evm_db": -21.64865036708527,
            "evm_db_genie_mean": -22.022953067507526,
            "residual_phase_std": 0.0030120327275220678,
            "residual_phase_std_true": 0.0705460249410425
        }
    },
    "qpsk_wide_seed": {
        "simulate": {
            "evm_db": -22.237189383483443,
            "evm_db_genie_mean": -22.328366308607723,
            "residual_phase_std": 0.0017931251882095504,
            "residual_phase_std_true": 0.05749320383709465
        }
    }
}


# Floats are held to this relative tolerance; integers (and None) exactly.
VALUE_REL_TOL = 1e-9
SUMMARY_VALUES = ("evm_db", "evm_db_genie_mean", "residual_phase_std",
                  "residual_phase_std_true")


def artifact_values(out: Path) -> dict:
    """The numbers GOLDEN_VALUES pins, from the artifacts in out."""
    values = {}
    if (out / "summary.json").exists():
        summary = json.loads((out / "summary.json").read_text())
        values.update({key: summary[key] for key in SUMMARY_VALUES})
    if (out / "stream_report.json").exists():
        values.update(json.loads((out / "stream_report.json").read_text()))
    if (out / "pn_fit.json").exists():
        values["std"] = json.loads((out / "pn_fit.json").read_text())["std"]
    if (out / "ksweep.csv").exists():
        with open(out / "ksweep.csv", newline="") as fh:
            values.update({f"mean_evm_db K={row['k_guard']}": float(row["mean_evm_db"])
                           for row in csv.DictReader(fh)})
    return values


def assert_values(got: dict, expected: dict) -> None:
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, float):
            assert isinstance(got[key], float) and math.isclose(
                got[key], value, rel_tol=VALUE_REL_TOL, abs_tol=0.0), (key, got[key], value)
        else:
            assert got[key] == value and type(got[key]) is type(value), (key, got[key], value)


def run_command(tmp_path: Path, name: str, command: str) -> tuple:
    """Run one CLI command on a named config; returns ({artifact: sha256},
    its artifact_values)."""
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
    hashes = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
              for p in sorted(out.iterdir())}
    return hashes, artifact_values(out)


def check_golden(tmp_path: Path, name: str, command: str) -> None:
    hashes, values = run_command(tmp_path, name, command)
    # Values first: a hash that moves with its values held moved in rounding only.
    assert_values(values, GOLDEN_VALUES[name][command])
    assert hashes == GOLDEN[name][command]


@pytest.mark.parametrize("command", ["simulate", "sweep-k", "stream"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_artifacts(tmp_path, name, command):
    check_golden(tmp_path, name, command)


@pytest.mark.parametrize("name", sorted(PROBE_CONFIGS))
def test_golden_measure_pn(tmp_path, name):
    check_golden(tmp_path, name, "measure-pn")


@pytest.mark.parametrize("name", sorted(ONE_COMMAND_CONFIGS))
def test_golden_one_command(tmp_path, name):
    check_golden(tmp_path, name, ONE_COMMAND_CONFIGS[name][0])


if __name__ == "__main__":
    import tempfile

    runs = [(name, command) for name in sorted(CONFIGS)
            for command in ("simulate", "sweep-k", "stream")]
    runs += [(name, "measure-pn") for name in sorted(PROBE_CONFIGS)]
    runs += [(name, command) for name, (command, _) in sorted(ONE_COMMAND_CONFIGS.items())]
    hashes, values = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, command in runs:
            result = run_command(Path(tmp), name, command)
            hashes.setdefault(name, {})[command] = result[0]
            values.setdefault(name, {})[command] = result[1]
    for title, table in (("GOLDEN", hashes), ("GOLDEN_VALUES", values)):
        print(f"{title} = ", end="")
        json.dump(table, sys.stdout, indent=4, sort_keys=True)
        print()
