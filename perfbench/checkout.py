"""Make the zxparam sources of this checkout importable, and only those.

The benchmark sits in ``perfbench/`` next to ``src/``; it never relies on an
installed copy, so a run always measures the tree it was checked out with.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def use_checkout_sources() -> None:
    """Put ``src/`` first on ``sys.path``; exit with status 2 if it is absent
    or if ``zxparam`` resolves anywhere else."""
    if not (SRC / "zxparam" / "__init__.py").is_file():
        sys.exit(f"perfbench: no zxparam sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import zxparam

    if Path(zxparam.__file__).resolve().parent != SRC / "zxparam":
        sys.exit(f"perfbench: zxparam imported from {zxparam.__file__}, not from {SRC}")
