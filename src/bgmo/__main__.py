"""``python -m bgmo``: the ``bgmo`` command line, ``cli.main``."""

import sys

from .cli import main

sys.exit(main())
