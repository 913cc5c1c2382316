"""OFDM link simulator with pilot-aided oscillator phase noise cancellation."""

from .modulation import (EVM_FLOOR_DB, Modulation, evm_db_from_powers, indices_to_bits,
                         map_bits, slice_indices)
from .ofdm import (PILOT_INDEX, PILOT_VALUE, OfdmConfig, build_frames, frame_capacity_bits,
                   modulate_symbol, symbol_bodies, training_bins)
from .channel import (ChannelConfig, PhaseNoiseConfig, PhaseNoiseModel,
                      PhaseNoiseProcess, apply_channel, single_tone_probe)
from .pnc import PhaseEstimate, cancel, estimate_phase
from .receiver import (ChannelEstimate, DecodeReport, decode_frames, equalize,
                       estimate_channel_ls, genie_evm_db)
from .link import (CHUNK_FRAMES, FrameStack, aggregate_evm_db, frame_bits_rng, run_frame,
                   run_frames)
from .metrics import (GaussianFit, PsdEstimate, gaussian_fit_in_place, phase_pdf, psd_welch,
                      wrap_phase)
from .linklayer import (Packet, PacketStatus, StreamReport, depacketize,
                        make_packet, packetize, stream_bytes, verify_packet)

__version__ = "0.1.0"

__all__ = [
    "EVM_FLOOR_DB", "Modulation", "map_bits", "slice_indices", "indices_to_bits",
    "evm_db_from_powers",
    "PILOT_INDEX", "PILOT_VALUE", "OfdmConfig", "modulate_symbol", "symbol_bodies",
    "build_frames", "frame_capacity_bits", "training_bins",
    "PhaseNoiseModel", "PhaseNoiseConfig", "PhaseNoiseProcess", "ChannelConfig",
    "apply_channel", "single_tone_probe",
    "PhaseEstimate", "estimate_phase", "cancel",
    "ChannelEstimate", "DecodeReport", "estimate_channel_ls", "equalize",
    "decode_frames", "genie_evm_db",
    "CHUNK_FRAMES", "FrameStack", "run_frame", "run_frames",
    "frame_bits_rng", "aggregate_evm_db",
    "GaussianFit", "PsdEstimate", "gaussian_fit_in_place", "psd_welch", "phase_pdf",
    "wrap_phase",
    "Packet", "PacketStatus", "StreamReport", "packetize", "depacketize",
    "make_packet", "verify_packet", "stream_bytes",
]
