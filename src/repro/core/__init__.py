"""Micro Blossom core: accelerator model, primal module, decoder front-end."""

from .accelerator import MicroBlossomAccelerator, PreMatch
from .decoder import MicroBlossomDecoder, MicroBlossomOutcome
from .dual import DEFAULT_DUAL_SCALE, DualGraphState
from .instructions import (
    Instruction,
    Opcode,
    decode_instruction,
    encode_instruction,
)
from .interface import (
    Conflict,
    DualPhaseError,
    Finished,
    GrowLength,
    GROW,
    HOLD,
    IntegralityError,
    Obstacle,
    SHRINK,
)
from .primal import PrimalModule, PrimalNode

__all__ = [
    "MicroBlossomAccelerator",
    "PreMatch",
    "MicroBlossomDecoder",
    "MicroBlossomOutcome",
    "DEFAULT_DUAL_SCALE",
    "DualGraphState",
    "Instruction",
    "Opcode",
    "decode_instruction",
    "encode_instruction",
    "Conflict",
    "DualPhaseError",
    "Finished",
    "GrowLength",
    "GROW",
    "HOLD",
    "IntegralityError",
    "Obstacle",
    "SHRINK",
    "PrimalModule",
    "PrimalNode",
]
