"""`python -m fractal_trees`: the command-line front end."""

import sys

from .cli import main

sys.exit(main())
