"""`python -m utrees`: the utrees command line (see cli.main)."""

import sys

from .cli import main

sys.exit(main())
