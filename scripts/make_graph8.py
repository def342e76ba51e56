"""Regenerate tests/data/graph8.g6: one graph6 line per isomorphism
class of order 8, sorted, used by the streamed verification tests.

Run from the repository root:  python3 scripts/make_graph8.py
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# hamcert lives under src/; the class generator under tests/
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from hamcert.graph6 import to_graph6  # noqa: E402
from tests._canon import ISO_CLASS_COUNTS, iso_classes  # noqa: E402


def main() -> None:
    started = time.monotonic()
    reps = iso_classes(8)
    expected = ISO_CLASS_COUNTS[8]
    if len(reps) != expected:
        raise SystemExit(f"generator produced {len(reps)} classes, expected {expected}")
    lines = sorted(to_graph6(g) for g in reps)
    out = ROOT / "tests" / "data" / "graph8.g6"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="ascii")
    print(f"wrote {len(lines)} classes to {out} in {time.monotonic() - started:.1f}s")


if __name__ == "__main__":
    main()
