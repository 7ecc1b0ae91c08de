"""Physical constants and unit conversions.

All energies inside the package are expressed as frequencies in GHz
(energy / h).  Rates named ``g`` or ``gamma`` are ordinary frequencies
(MHz or 1/us as documented at each site); the factor 2*pi enters only
where an angular quantity is actually formed, e.g. inside Hamiltonian
assembly or Lorentzian linewidth expressions.

The constants are written out rather than imported from
:mod:`scipy.constants`, whose import costs a quarter of a second, and are
equal to its values bit for bit:

- ``E_CHARGE`` and ``H_PLANCK`` are exact by definition of the 2019 SI;
- ``HBAR`` is ``H_PLANCK / (2 pi)`` evaluated in double precision;
- ``EPS0`` is the CODATA 2022 recommended value.
"""

import math

E_CHARGE = 1.602176634e-19  # elementary charge [C]
H_PLANCK = 6.62607015e-34  # Planck constant [J s]
HBAR = H_PLANCK / (2 * math.pi)  # reduced Planck constant [J s]
EPS0 = 8.8541878188e-12  # vacuum permittivity [F/m]

# One GHz of transition frequency, as an energy  [J]
J_PER_GHZ = H_PLANCK * 1e9

# One e*Angstrom of electric dipole moment  [C m]
CM_PER_EA = E_CHARGE * 1e-10

# Handy scale factors
MHZ = 1e6  # Hz
MHZ_PER_GHZ = 1e3  # couplings are quoted in MHz, energies in GHz
