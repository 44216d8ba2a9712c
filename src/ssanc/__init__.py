"""Spatially selective active-noise-control design and simulation toolkit.

Designs multichannel FIR control filters that cancel noise from unwanted
directions while preserving a desired source, simulates the resulting
system on synthetic or measured impulse responses, and sweeps the
target-signal delay to map the noise-reduction / distortion / effort
trade-off.
"""

from ssanc.convmat import build_conv_matrix, build_q
from ssanc.scene import MicSignals, Scene, load_scene_wav, render_mics, synth_scene
from ssanc.reir import ReIRSet, design_min_phase_highpass, estimate_reirs
from ssanc.solver import DesignContext, DesignParams, DesignResult, kkt_oracle
from ssanc.simulate import RunResult, apply_control, realize_target
from ssanc.metrics import (
    MetricBundle,
    control_effort,
    evaluate_run,
    noise_reduction,
    quality_proxy,
    speech_distortion_index,
)
from ssanc.sweep import SweepConfig, SweepRow, cli_main, run_sweep

__version__ = "0.1.0"

__all__ = [
    "build_conv_matrix",
    "build_q",
    "Scene",
    "MicSignals",
    "synth_scene",
    "load_scene_wav",
    "render_mics",
    "ReIRSet",
    "estimate_reirs",
    "design_min_phase_highpass",
    "DesignContext",
    "DesignParams",
    "DesignResult",
    "kkt_oracle",
    "RunResult",
    "apply_control",
    "realize_target",
    "MetricBundle",
    "noise_reduction",
    "speech_distortion_index",
    "control_effort",
    "quality_proxy",
    "evaluate_run",
    "SweepConfig",
    "SweepRow",
    "run_sweep",
    "cli_main",
]
