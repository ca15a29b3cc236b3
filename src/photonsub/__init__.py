"""Stochastic simulator and analysis toolkit for a saturable single-photon absorber."""

from .absorber import (
    AbsorberParams,
    EnsembleResult,
    ShotRecord,
    merge,
    simulate_shot,
    substream,
)
from .analytic import (
    mean_out,
    p_no_absorption,
)
from .bloch import (
    DephasingFit,
    PhysicsParams,
    conversion_probability,
    fit_dephasing,
    ground_rydberg_linewidth,
    raman_decay_rate,
    scattering_probability,
    susceptibility_lorentzian,
    transmission,
    transmission_spectrum,
)
from .config import RunConfig, load_config
from .detector import DetectorConfig, detect_ions, detect_pulse
from .experiment import (
    CascadeResult,
    run_point,
    simulate_cascade,
)
from .pulses import PulseSpec, tukey_envelope
from .stats import (
    G2Accumulator,
    G2Matrix,
    PulseShape,
    mandel_q,
    mandel_q_sem,
    photon_deficit,
    pulse_shape,
    q_over_mean,
    q_over_mean_sem,
)

__version__ = "0.1.0"
