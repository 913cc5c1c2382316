"""OFDM link simulator with pilot-aided oscillator phase noise cancellation."""

from .modulation import (EVM_FLOOR_DB, Modulation, demap_hard, evm_db, evm_db_from_powers,
                         map_bits, slice_indices)
from .ofdm import (OfdmConfig, SubcarrierPlan, build_frames, build_plan, frame_capacity_bits,
                   modulate_symbol, training_bins)
from .channel import (ChannelConfig, PhaseNoiseConfig, PhaseNoiseModel,
                      PhaseNoiseProcess, apply_channel, single_tone_probe)
from .pnc import PhaseEstimate, cancel, estimate_phase
from .receiver import (ChannelEstimate, DecodeReport, decode_frames, equalize,
                       estimate_channel_ls, genie_evm_db)
from .link import (CHUNK_FRAMES, FrameStack, aggregate_evm_db, derived_seed,
                   frame_bits_rng, run_frame, run_frames, run_seeded_frames)
from .metrics import (GaussianFit, PsdEstimate, band_power_fraction, gaussian_fit,
                      phase_pdf, psd_welch, wrap_phase)
from .linklayer import (Packet, PacketStatus, StreamReport, depacketize,
                        make_packet, packetize, stream_bytes, verify_packet)

__version__ = "0.1.0"

__all__ = [
    "EVM_FLOOR_DB", "Modulation", "map_bits", "demap_hard", "slice_indices", "evm_db",
    "evm_db_from_powers",
    "SubcarrierPlan", "OfdmConfig", "build_plan", "modulate_symbol", "build_frames",
    "frame_capacity_bits", "training_bins",
    "PhaseNoiseModel", "PhaseNoiseConfig", "PhaseNoiseProcess", "ChannelConfig",
    "apply_channel", "single_tone_probe",
    "PhaseEstimate", "estimate_phase", "cancel",
    "ChannelEstimate", "DecodeReport", "estimate_channel_ls", "equalize",
    "decode_frames", "genie_evm_db",
    "CHUNK_FRAMES", "FrameStack", "run_frame", "run_frames", "run_seeded_frames",
    "frame_bits_rng", "derived_seed", "aggregate_evm_db",
    "GaussianFit", "PsdEstimate", "gaussian_fit", "psd_welch",
    "band_power_fraction", "phase_pdf", "wrap_phase",
    "Packet", "PacketStatus", "StreamReport", "packetize", "depacketize",
    "make_packet", "verify_packet", "stream_bytes",
]
