"""Simulator of a 128-path variable-delay interferometer with active
phase stabilization and RRDPS key-rate math."""

from .calibration import (
    CALIB_STEP,
    AmbiguousPhaseError,
    CalibrationAborted,
    CalibrationConfig,
    CalibResult,
    InitialStepPlan,
    least_squares_phase,
    phase_to_compensation_code,
    run_calibration,
)
from .controller import (
    CLOSED_LOOP,
    OPEN_LOOP,
    QKD_SLOT,
    TABLE_ENTRY,
    DelaySummary,
    ExperimentReport,
    FrameSchedule,
    RunSettings,
    bootstrap_table,
    run_experiment,
    run_qkd_stage,
    run_stabilization_stage,
)
from .drift import DriftConfig, DriftState, advance, initial_state, true_phase
from .hardware import (
    DelaySelector,
    DetectorConfig,
    DetectorCounts,
    PmConfig,
    dac_to_voltage,
    sample_counts,
    select_delay,
    voltage_for_phase,
    voltage_to_code,
    voltage_to_phase,
)
from .keyrate import KeyRateParams, binary_entropy, error_threshold, key_rate
from .optics import (
    PortIntensities,
    UndefinedVisibilityError,
    canonical_phase,
    port_intensities,
    visibility,
)
from .plant import Plant, PlantConfig

__version__ = "0.1.0"
