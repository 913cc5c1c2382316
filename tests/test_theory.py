"""Measured EVM against closed-form models of the link.

PNC off, AWGN half: on a flat channel without phase noise, the error of a
payload point is the AWGN on its subcarrier plus that of the least-squares
channel estimate, which averages the two training symbols, so it has 1.5
times the noise power per subcarrier. The channel scales the AWGN to the
frame's mean power per sample, which the 2 (26 - K) + 1 used subcarriers of
the 64 share, so EVM = -SNR + 10 log10(1.5 P), P = (2 (26 - K) + 1) / 64.
"""

import math

import numpy as np
import pytest

from mmwavelink import (ChannelConfig, Modulation, OfdmConfig, PhaseNoiseConfig,
                        PhaseNoiseModel, aggregate_evm_db, build_plan, run_seeded_frames)

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
