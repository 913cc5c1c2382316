"""OFDM link simulator with pilot-aided oscillator phase noise cancellation."""

from .modulation import (EVM_FLOOR_DB, Modulation, demap_hard, evm_db, evm_db_from_powers,
                         map_bits, slice_indices)
from .ofdm import (Frame, OfdmConfig, SubcarrierPlan, build_frame, build_frames, build_plan,
                   demodulate_symbol, frame_capacity_bits, modulate_symbol, pad_bits,
                   training_bins)
from .channel import (ChannelConfig, PhaseNoiseConfig, PhaseNoiseModel,
                      PhaseNoiseProcess, apply_channel, single_tone_probe)
from .pnc import PhaseEstimate, cancel, estimate_phase, pnc_symbol
from .receiver import (ChannelEstimate, DecodeReport, decode_frame, decode_frames,
                       equalize, estimate_channel_ls, genie_evm_db)
from .link import (CHUNK_FRAMES, FrameResult, aggregate_evm_db, derived_seed,
                   frame_bits_rng, frame_channel_cfg, run_frame, run_frames,
                   run_seeded_frames)
from .metrics import (GaussianFit, PhaseTrackingReport, PsdEstimate,
                      band_power_fraction, extract_tone_phase, gaussian_fit,
                      phase_pdf, phase_tracking_report, psd_welch, wrap_phase)
from .linklayer import (Packet, PacketStatus, StreamReport, depacketize,
                        make_packet, packetize, stream_bytes, verify_packet)

__version__ = "0.1.0"

__all__ = [
    "EVM_FLOOR_DB", "Modulation", "map_bits", "demap_hard", "slice_indices", "evm_db",
    "evm_db_from_powers",
    "SubcarrierPlan", "OfdmConfig", "Frame", "build_plan", "modulate_symbol",
    "demodulate_symbol", "build_frame", "build_frames", "frame_capacity_bits", "pad_bits",
    "training_bins",
    "PhaseNoiseModel", "PhaseNoiseConfig", "PhaseNoiseProcess", "ChannelConfig",
    "apply_channel", "single_tone_probe",
    "PhaseEstimate", "estimate_phase", "cancel", "pnc_symbol",
    "ChannelEstimate", "DecodeReport", "estimate_channel_ls", "equalize",
    "decode_frame", "decode_frames", "genie_evm_db",
    "CHUNK_FRAMES", "FrameResult", "run_frame", "run_frames", "run_seeded_frames",
    "frame_channel_cfg", "frame_bits_rng", "derived_seed", "aggregate_evm_db",
    "GaussianFit", "PsdEstimate", "PhaseTrackingReport", "extract_tone_phase",
    "gaussian_fit", "psd_welch", "band_power_fraction", "phase_pdf",
    "phase_tracking_report", "wrap_phase",
    "Packet", "PacketStatus", "StreamReport", "packetize", "depacketize",
    "make_packet", "verify_packet", "stream_bytes",
]
