"""Physical constants and unit conversions.

All energies inside the package are expressed as frequencies in GHz
(energy / h).  Rates named ``g`` or ``gamma`` are ordinary frequencies
(MHz or 1/us as documented at each site); the factor 2*pi enters only
where an angular quantity is actually formed, e.g. inside Hamiltonian
assembly or Lorentzian linewidth expressions.

CODATA values are taken from :mod:`scipy.constants`.
"""

from scipy.constants import e as E_CHARGE  # elementary charge [C]
from scipy.constants import epsilon_0 as EPS0  # vacuum permittivity [F/m]
from scipy.constants import h as H_PLANCK  # Planck constant [J s]
from scipy.constants import hbar as HBAR  # reduced Planck constant [J s]

# One GHz of transition frequency, as an energy  [J]
J_PER_GHZ = H_PLANCK * 1e9

# One e*Angstrom of electric dipole moment  [C m]
CM_PER_EA = E_CHARGE * 1e-10

# Handy scale factors
MHZ = 1e6  # Hz
MHZ_PER_GHZ = 1e3  # couplings are quoted in MHz, energies in GHz
