"""Desk-scale numerical lab for two-mode squeezed vacuum experiments:
homodyne-readout simulation, EPR and inseparability criteria, iterative
maximum-likelihood tomography, and entanglement metrics."""

__version__ = "0.1.0"

# one fixed import order for every command; the order each command needs
# raised peak RSS by 0.45 MB (reproduce fig_s3) to 0.8 MB (reproduce fig3)
from . import fock, states, homodyne, criteria, tomography, metrics, pipelines
