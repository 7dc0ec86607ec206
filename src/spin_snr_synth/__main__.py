"""Entry point of ``python -m spin_snr_synth`` and the ``spin-snr-synth`` script.

No CLI path multiplies matrices, so numpy's OpenBLAS gets one thread
instead of one per core, whose start-up costs CPU time on every run that
loads numpy. The package imports no numpy, so the setting is in place
before the array commands load it; a value set by the user wins.
"""

import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
