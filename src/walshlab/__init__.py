"""Boolean-function spectra toolkit: GF(2^n) arithmetic, Walsh transforms,
Kloosterman sums, and exhaustive verification of two five-valued-spectrum
function families."""

__version__ = "0.1.0"

from .boolfun import algebraic_degree, anf  # noqa: F401
from .constructions import build_f, build_g, find_lambda, verify_theorem  # noqa: F401
from .gf2n import create_ctx, create_field, default_ctx, default_field  # noqa: F401
from .kloosterman import kloosterman_sum, scan, unit_circle_sum  # noqa: F401
from .walsh import classify, distribution, nonlinearity, wht_fast  # noqa: F401
