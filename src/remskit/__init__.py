"""remskit: circuit-theoretic far-field modeling of reconfigurable
electromagnetic structures.

Sampled far-field kernels on spherical direction grids, multiport
scattering algebra with Touchstone I/O, closed-form gain operators for the
frontend / tuning-network / radiating-structure chain, far-field channel
synthesis, power and gain metrics, kernel extraction from plane-wave
response data, and joint impedance-tuning / zero-forcing beamforming.
"""

from .errors import ModelError, NumericsError
from .farfield import (
    Direction,
    DirectionGrid,
    FarFieldPattern,
    antipodal_mirror,
    direction_from_vector,
    inner_product,
    intensity,
    make_latlon_grid,
    total_power,
    zero_pattern,
)
from .radiating import (
    PlaneWaveResponseSet,
    RadiatingStructure,
    ReciprocityReport,
    apply_receive,
    apply_scatter,
    apply_transmit,
    check_reciprocity,
    dipole_array,
    extract_rx_kernel,
    extract_scatter_kernel,
    hertzian_dipole,
    isotropic_radiator,
    random_reciprocal_structure,
    read_response_file,
    rotate_structure,
    structure_from_responses,
    synthesize_plane_wave_responses,
    synthetic_coupling,
    wavenumber,
    write_response_file,
)
from .network import (
    RFFrontend,
    TouchstoneData,
    TuningNetwork,
    feedthrough_reflector_fixed,
    inline_tuning,
    parse_touchstone,
    read_touchstone,
    reduce_terminated_ports,
    reflection_coefficient,
    through_tuning,
    touchstone_to_text,
    write_touchstone,
)
from .solver import (
    GainOperators,
    ReconfigurableBuilder,
    ReMSModel,
    SolveResult,
    directivity,
    gain_operators,
    matching_efficiency,
    radiation_efficiency,
    rems_gain,
    solve_direct,
    tuning_efficiency,
)
from .channel import cascade_unilateral, far_channel, propagation_matrix
from .beamform import (
    BeamformProblem,
    BeamformResult,
    coordinate_ascent,
    geometric_schedule,
    h_co,
    objective,
    quasi_powers,
    x_copol,
    zf_precoder,
)
from .scene import Scene

__version__ = "0.1.0"
