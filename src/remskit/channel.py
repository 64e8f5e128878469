"""Far-field channels between separated radiating structures.

The link between two structures reduces to 2x2 polarization algebra along
the connecting line: a free-space propagation matrix, the transmit and
receive kernels evaluated on the line of sight, and a multi-bounce loop
built from the two reduced scattering kernels. A unilateral cascade chains
single-bounce hops across intermediate scatterers.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ModelError
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
    if distance <= 0.0:
        raise ModelError(f"propagation distance must be positive, got {distance}")
    k = wavenumber(frequency)
    lam = 2.0 * math.pi / k
    if distance < FAR_FIELD_GUIDELINE_WAVELENGTHS * lam:
        warnings.warn(
            f"separation {distance:.4g} m is below {FAR_FIELD_GUIDELINE_WAVELENGTHS:g} "
            f"wavelengths ({FAR_FIELD_GUIDELINE_WAVELENGTHS * lam:.4g} m); "
            "far-field channel accuracy degrades",
            stacklevel=2,
        )
    c = (2.0 * math.pi / (1j * k)) * np.exp(-1j * k * distance) / distance
    return np.diag([c, -c])


def _check_pair(s1: RadiatingStructure, s2: RadiatingStructure):
    if s1.frequency != s2.frequency:
        raise ModelError(
            f"structures operate at different frequencies: {s1.frequency} vs {s2.frequency}"
        )


def far_channel(tx: RadiatingStructure, rx: RadiatingStructure, displacement) -> np.ndarray:
    """Port-to-port channel matrix (rx ports x tx ports) across free space.

    displacement points from the tx structure to the rx structure, in m.
    The multi-bounce loop between the two reduced scattering kernels is
    resolved exactly; an ill-conditioned loop raises NumericsError.
    """
    _check_pair(tx, rx)
    disp = np.asarray(displacement, dtype=float)
    d = float(np.linalg.norm(disp))
    if d == 0.0:
        raise ModelError("structures are co-located")
    d_fwd = direction_from_vector(disp)
    d_bwd = direction_from_vector(-disp)

    c = propagation_matrix(d, tx.frequency)
    t1 = tx.tx_at(d_fwd)  # (2, m_tx)
    r2 = rx.rx_at(d_bwd)  # (2, m_rx)
    loop = tx.scatter_at(d_fwd, d_fwd) @ c @ rx.scatter_at(d_bwd, d_bwd) @ c
    core = checked_inv(np.eye(2) - loop, "far-field bounce loop") @ t1
    return r2.T @ c @ core


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
        raise ModelError(
            f"{len(stages)} stages need {len(stages) - 1} displacements, "
            f"got {len(displacements)}"
        )
    for s in stages[1:]:
        _check_pair(stages[0], s)

    hops = []
    for disp in displacements:
        disp = np.asarray(disp, dtype=float)
        d = float(np.linalg.norm(disp))
        if d == 0.0:
            raise ModelError("consecutive stages are co-located")
        hops.append((direction_from_vector(disp), direction_from_vector(-disp), d))

    freq = stages[0].frequency
    d_out, _, d0 = hops[0]
    acc = propagation_matrix(d0, freq) @ stages[0].tx_at(d_out)
    for j in range(1, len(stages) - 1):
        _, arrive, _ = hops[j - 1]
        depart, _, dj = hops[j]
        acc = stages[j].scatter_at(depart, arrive) @ acc
        acc = propagation_matrix(dj, freq) @ acc
    _, arrive_last, _ = hops[-1]
    return stages[-1].rx_at(arrive_last).T @ acc
