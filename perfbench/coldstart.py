"""Answer one CLI query in a fresh interpreter, as a command-line user would.

Usage: python3 coldstart.py <homspace source dir> <homspace argv...>
"""

import sys

sys.path.insert(0, sys.argv[1])
from homspace import cli  # noqa: E402

sys.exit(cli.run(sys.argv[2:]))
