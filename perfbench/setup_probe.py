"""Time govshapes set-up in a fresh interpreter.

    python3 -I perfbench/setup_probe.py SRC_DIR PROFILE...

Measures ``import govshapes``, ``corpus.default_registry()`` and composing
the named profiles in CPU time of the main thread, and prints one JSON object
with the three times in ms. Interpreter start-up is not included.
"""

import json
import sys
import time


def main() -> None:
    src, profiles = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    t0 = time.thread_time()
    import govshapes
    t1 = time.thread_time()
    registry = govshapes.corpus.default_registry()
    t2 = time.thread_time()
    for profile in profiles:
        registry.composed(profile)
    t3 = time.thread_time()
    print(json.dumps({"import_ms": (t1 - t0) * 1e3, "registry_ms": (t2 - t1) * 1e3,
                      "compose_ms": (t3 - t2) * 1e3}))


if __name__ == "__main__":
    main()
