"""Spectrum sensing under noise-power uncertainty.

Detectors for deciding whether a licensed transmitter occupies a band,
from plain energy detection through Bayesian average/generalized
likelihood-ratio tests that estimate the unknown noise power from the
roll-off (excess-bandwidth) region of the occupied spectrum, plus their
closed-form performance and a reproducible Monte Carlo harness.
"""

from .analysis import (
    AveragedProbability,
    MomentPair,
    PosteriorPrecision,
    ProposedMoments,
    average_over_prior,
    map_noise_power,
    pd_alrd1,
    pd_alrd2_clt,
    pd_opt,
    pfa_alrd1,
    pfa_alrd2_clt,
    pfa_alrd2_exact,
    pfa_opt,
    posterior_update,
    proposed_statistic_moments,
    traditional_statistic_moments,
)
from .detectors import (
    DETECTORS,
    ThresholdSpec,
    detector,
    lr_glrd1_value,
    lr_glrd2_value,
    mu_glrd1,
    phi_statistic,
    rho_glrd2,
    t_alrd1,
    t_alrd2,
    t_opt,
)
from .errors import ConfigError, NumericFailure
from .montecarlo import (
    EmpiricalCdf,
    RocPoint,
    calibrate,
    calibration_cdfs,
    roc_sweep_channels,
    roc_sweep_multi,
    wilson_interval,
)
from .numerics import (
    RngStream,
    complex_gaussian,
    gamma_sample,
    q_function,
    q_inverse,
    reg_lower_gamma,
    reg_upper_gamma,
)
from .observation import (
    BandGeometry,
    band_geometry,
    split_bands,
    spectrum_bins,
    squared_envelope,
)
from .signals import (
    AWGN,
    H0,
    H1,
    MODEL,
    NAKAGAMI,
    RAYLEIGH,
    WAVEFORM,
    ChannelSpec,
    NoisePrior,
    ScenarioConfig,
    SignalSpec,
    channel_gain,
    draw_noise_power,
    generate_bins,
    generate_time_block,
    raised_cosine_profile,
)

__version__ = "0.1.0"
