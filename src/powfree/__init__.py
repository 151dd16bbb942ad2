"""Exact toolkit for power-free words.

Detection of fractional-power violations, exact counting of threshold-free
words over k-letter alphabets, machine-checked rational lower-bound
certificates, and the extension-census audit behind them.

The package republishes the __all__ of each module but cache, whose
CacheEntry rows stay internal.
"""

from . import analyze, bounds, counting, errors, words
from .analyze import *
from .bounds import *
from .cache import CountCache
from .counting import *
from .errors import *
from .words import *

__version__ = "0.1.0"

__all__ = [*analyze.__all__, *bounds.__all__, "CountCache", *counting.__all__, *errors.__all__,
           *words.__all__, "__version__"]
