import sys
from pathlib import Path

from hypothesis.internal.conjecture import providers

sys.path.insert(0, str(Path(__file__).parent))

# Hypothesis mixes the numeric literals of every loaded local module into the
# examples it draws, so an edit of the package that adds or removes a literal
# would move the examples of a derandomized property.  Draw none of them.  The
# hook is private, so a Hypothesis release without it stops the run here.
if not hasattr(providers, "_get_local_constants"):
    raise RuntimeError("hypothesis has no _get_local_constants to pin the drawn examples")
providers._get_local_constants = lambda: providers.Constants()
