"""What a CLI user pays before any work: import ``spectra_shape.cli`` (numpy
and scipy with it) and load and validate the config. ``run.py`` times this
script from outside, interpreter start-up included.

    python3 bench/setup_probe.py CONFIG
"""

import sys

from spectra_shape import cli  # noqa: F401
from spectra_shape import harness

harness.load_config(sys.argv[1])
