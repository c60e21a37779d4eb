"""Fresh-process set-up samples for the in-process workloads.

    python perfbench/child.py ready [--mesh N]
    python perfbench/child.py fill --cache-dir DIR [--mesh N]

``ready`` does what a process pays before its first study: ``import repro``,
``make_technology()`` and the test-chip cell build.  ``fill`` also fills an
empty disk cache with the test chip's extraction, the set-up of the warm
Fig-8 campaign.  The parent times the process from spawn to exit.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("step", choices=("ready", "fill"))
    parser.add_argument("--mesh", type=int, required=True)
    parser.add_argument("--cache-dir", default=None)
    args = parser.parse_args()

    from workloads import fill_warm_cache, make_ready

    technology, cell = make_ready()
    if args.step == "fill":
        fill_warm_cache(args.cache_dir, technology, cell, args.mesh)


if __name__ == "__main__":
    main()
