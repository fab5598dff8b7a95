"""Entry point: ``python -m repro <subcommand>``."""

import sys

from repro.cli import main

# The __main__ guard is load-bearing: multiprocessing's spawn start method
# re-imports the parent's main module in every worker, and without the
# guard each runner worker would recursively re-run the CLI.
if __name__ == "__main__":
    sys.exit(main())
