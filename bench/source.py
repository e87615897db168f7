"""Where the tpflag sources are, and how a process of the benchmark finds them.

The benchmark always runs the package from the ``src`` tree next to it,
never an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def have_sources() -> bool:
    return (SRC / "tpflag" / "__init__.py").is_file()


def use_sources():
    """Put the source tree first on this process's import path."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    """Environment for a child Python process that imports tpflag."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env
