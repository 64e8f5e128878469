"""Far-field channels between separated radiating structures.

The link between two structures reduces to 2x2 polarization algebra along
the connecting line: a free-space propagation matrix, the transmit and
receive kernels evaluated on the line of sight, and a multi-bounce loop
built from the two reduced scattering kernels. A unilateral cascade chains
single-bounce hops across intermediate scatterers. A caller's displacement
is read through _textio.real_vector, which refuses a malformed one by name.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ModelError
from ._textio import real_vector
from .farfield import direction_from_vector
from .network import checked_inv
from .radiating import RadiatingStructure, wavenumber

FAR_FIELD_GUIDELINE_WAVELENGTHS = 10.0


def propagation_matrix(distance: float, frequency: float) -> np.ndarray:
    """2x2 line-of-sight propagation operator over `distance` meters.

    Maps the departing far-field 2-vector at the source to the incident
    plane-wave 2-vector at the destination, in the destination's basis at
    the arrival direction. The sign flip on the phi component accounts for
    the antipodal basis relation between the two view directions.
    """
    k = wavenumber(frequency)
    if not 0.0 < k * distance < math.inf:  # also a finite distance whose phase overflows
        raise ModelError(f"propagation distance must be positive and finite, got {distance}, k*d {k * distance}")
    near = FAR_FIELD_GUIDELINE_WAVELENGTHS * (2.0 * math.pi / k)  # in m
    if distance < near:
        warnings.warn(f"separation {distance:.4g} m is below {FAR_FIELD_GUIDELINE_WAVELENGTHS:g} wavelengths "
                      f"({near:.4g} m); far-field channel accuracy degrades", stacklevel=2)
    c = (2.0 * math.pi / (1j * k)) * np.exp(-1j * k * distance) / distance
    return np.diag([c, -c])


def _check_pair(s1: RadiatingStructure, s2: RadiatingStructure):
    if s1.frequency != s2.frequency:
        raise ModelError(
            f"structures operate at different frequencies: {s1.frequency} vs {s2.frequency}"
        )


def _hop(displacement, frequency: float, where: str):
    """(departure, arrival, propagation matrix) of the line of sight along displacement `where`."""
    disp, d = real_vector(displacement, where)
    if d == 0.0:
        raise ModelError(f"structures are co-located: {where} is zero")
    return direction_from_vector(disp), direction_from_vector(-disp), propagation_matrix(d, frequency)


def far_channel(tx: RadiatingStructure, rx: RadiatingStructure, displacement) -> np.ndarray:
    """Port-to-port channel matrix (rx ports x tx ports) across free space.

    displacement points from the tx structure to the rx structure, in m.
    The multi-bounce loop between the two reduced scattering kernels is
    resolved exactly; an ill-conditioned loop raises NumericsError.
    """
    _check_pair(tx, rx)
    d_fwd, d_bwd, c = _hop(displacement, tx.frequency, "displacement")
    loop = tx.scatter_at(d_fwd, d_fwd) @ c @ rx.scatter_at(d_bwd, d_bwd) @ c
    core = checked_inv(np.eye(2) - loop, "far-field bounce loop") @ tx.tx_at(d_fwd)  # (2, m_tx)
    return rx.rx_at(d_bwd).T @ c @ core


def cascade_unilateral(stages, displacements) -> np.ndarray:
    """Single-pass channel through a chain of scatterers.

    stages[0] transmits, stages[-1] receives, and every stage in between
    contributes only its reduced scattering kernel evaluated on the two
    line-of-sight directions. displacements[j] points from stage j to
    stage j+1. Multi-bounce terms and the mirror (direct illumination
    passing a stage untouched) are excluded by construction.
    """
    stages = list(stages)
    if len(stages) < 2:
        raise ModelError("cascade needs at least a transmit and a receive stage")
    if len(displacements) != len(stages) - 1:
        raise ModelError(f"{len(stages)} stages need {len(stages) - 1} displacements, got {len(displacements)}")
    for s in stages[1:]:
        _check_pair(stages[0], s)

    hops = [_hop(disp, stages[0].frequency, f"displacements[{j}]") for j, disp in enumerate(displacements)]
    acc = hops[0][2] @ stages[0].tx_at(hops[0][0])
    for stage, (_, arrive, _), (depart, _, c) in zip(stages[1:-1], hops, hops[1:]):
        acc = c @ (stage.scatter_at(depart, arrive) @ acc)
    return stages[-1].rx_at(hops[-1][1]).T @ acc
