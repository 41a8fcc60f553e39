"""The paper's primary contribution: three secure-join delivery protocols.

* :mod:`~repro.core.request` — the common MMM request phase (Listing 1)
* :mod:`~repro.core.das` — DAS delivery (Listing 2)
* :mod:`~repro.core.commutative` — commutative delivery (Listing 3)
* :mod:`~repro.core.private_matching` — private matching (Listing 4)
* :mod:`~repro.core.steps` — the one loop over all four step tables
* :mod:`~repro.core.runner` — end-to-end orchestration
* :mod:`~repro.core.federation` — federation wiring
"""

from repro.core.commutative import CommutativeConfig
from repro.core.das import DASConfig
from repro.core.federation import Federation
from repro.core.private_matching import PMConfig
from repro.core.result import MediationResult, RunFailure
from repro.core.runner import PROTOCOLS, reference_join, run_join_query

__all__ = [
    "CommutativeConfig",
    "DASConfig",
    "Federation",
    "MediationResult",
    "PMConfig",
    "PROTOCOLS",
    "RunFailure",
    "reference_join",
    "run_join_query",
]
