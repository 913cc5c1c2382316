"""Measured EVM against closed-form models of the link.

PNC off, AWGN half: on a flat channel without phase noise, the error of a
payload point is the AWGN on its subcarrier plus that of the least-squares
channel estimate, which averages the two training symbols, so it has 1.5
times the noise power per subcarrier. The channel scales the AWGN to the
frame's mean power per sample, which the 2 (26 - K) + 1 used subcarriers of
the 64 share, so EVM = -SNR + 10 log10(1.5 P), P = (2 (26 - K) + 1) / 64.

Measured phase PSD: the probe's phase is theta plus the AWGN's phase. theta
is white Gaussian noise through the shaping filter H, scaled to variance
sigma^2, so its density is sigma^2 |H(f)|^2 / (E fs), E being H's impulse
response energy. At high SNR the AWGN adds the phase Im(w / s) with variance
10^(-SNR/10) / 2, white, so a density of 10^(-SNR/10) / (2 fs).
"""

import math

import numpy as np
import pytest
from scipy import signal

from mmwavelink import (ChannelConfig, Modulation, OfdmConfig, PhaseNoiseConfig,
                        PhaseNoiseModel, aggregate_evm_db, build_plan, run_seeded_frames)
from mmwavelink.channel import PN_CORNER_RATIO
from mmwavelink.cli import DEFAULTS, main

FS = 25.0e6
TOLERANCE_DB = 0.1


def awgn_evm_db(snr_db: float, k_guard: int) -> float:
    used_share = (2 * (26 - k_guard) + 1) / 64
    return -snr_db + 10.0 * math.log10(1.5 * used_share)


@pytest.mark.parametrize("snr_db", [20.0, 30.0])
@pytest.mark.parametrize("k_guard", [0, 3, 8])
def test_pnc_off_awgn_evm_matches_model(k_guard, snr_db):
    ofdm_cfg = OfdmConfig(plan=build_plan(64, k_guard, 26), cp_len=16, sample_rate_hz=FS)
    channel = ChannelConfig(taps=(1.0,), snr_db=snr_db,
                            phase_noise=PhaseNoiseConfig(model=PhaseNoiseModel.NONE))
    stacks = list(run_seeded_frames(Modulation.QPSK, ofdm_cfg, channel, False, 12, 3, 200))
    evm = aggregate_evm_db(*[np.concatenate([getattr(s.report, name) for s in stacks])
                             for name in ("error_power", "reference_power")])
    assert abs(evm - awgn_evm_db(snr_db, k_guard)) <= TOLERANCE_DB, (evm, k_guard, snr_db)


# Bands of |f| for the PSD check, none holding DC, where each segment's mean
# is removed: theta's hump (more than 20 times the floor), its roll-off and
# the AWGN floor (theta below 4e-4 of it).
PSD_BANDS_HZ = {"hump": (20e3, 250e3), "roll-off": (250e3, 1.5e6), "floor": (1.5e6, FS / 2)}
# Derived from run seeds 0-15 of the default measure-pn (1e6 samples, 487
# Hann segments, so each bin's estimate has a spread of about 0.2 dB): the
# band means of measured less model dB reached 0.11 (hump, per-seed sd
# 0.035, as a 1e6-sample theta's own power varies by about 2 % from seed to
# seed), 0.046 (roll-off) and 0.014 dB (floor), and single bins 0.85 dB.
# The bounds are about 6 sd of the hump's mean, a 6 % power error, and 7.5
# times the per-bin spread.
PSD_BAND_MEAN_TOLERANCE_DB = 0.25
PSD_BIN_TOLERANCE_DB = 1.5


def test_measure_pn_psd_matches_model(tmp_path):
    assert main(["measure-pn", "--out", str(tmp_path)]) == 0
    freqs, power_db = np.loadtxt(tmp_path / "pn_psd.csv", delimiter=",", skiprows=1).T
    fs = DEFAULTS["phy.sample_rate_hz"]
    sos = signal.butter(3, DEFAULTS["channel.bandwidth_hz"] / PN_CORNER_RATIO, fs=fs,
                        output="sos")
    energy = np.sum(signal.sosfilt(sos, np.eye(1, 1 << 16)[0]) ** 2)
    response = np.abs(signal.sosfreqz(sos, worN=freqs, fs=fs)[1]) ** 2
    model = (DEFAULTS["channel.sigma"] ** 2 * response / energy
             + 10.0 ** (-DEFAULTS["channel.snr_db"] / 10.0) / 2.0) / fs
    error_db = power_db - 10.0 * np.log10(model)
    for name, (lo, hi) in PSD_BANDS_HZ.items():
        band = (np.abs(freqs) >= lo) & (np.abs(freqs) <= hi)
        assert abs(error_db[band].mean()) <= PSD_BAND_MEAN_TOLERANCE_DB, name
    assert np.max(np.abs(error_db[np.abs(freqs) >= PSD_BANDS_HZ["hump"][0]])) \
        <= PSD_BIN_TOLERANCE_DB
