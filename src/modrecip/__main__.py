import sys

from .cli import main

# sweep worker processes started by spawn or forkserver import this module
# again under another name; only the real entry point runs the CLI
if __name__ == "__main__":
    sys.exit(main())
