"""DoF toolkit for the two-user, two-subband MISO downlink with imperfect CSIT.

Import from the modules (``dofsim.schemes``, ``dofsim.linkmc``, ...); the
package itself exports only ``__version__``.
"""

__version__ = "0.1.0"
