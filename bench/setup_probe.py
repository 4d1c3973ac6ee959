"""Time humsearch's set-up in a fresh process.

Usage: python3 bench/setup_probe.py MANIFEST

Imports ``humsearch.cli`` and, when the workload has a song DB, builds it
with one ``humsearch db add`` per song, then prints ``{"setup_s": ...}``.
Only the stdlib is imported before the clock starts.
"""

import contextlib
import io
import json
import os
import sys
import time


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest["db"] and os.path.exists(manifest["db"]):
        os.remove(manifest["db"])
    sys.path.insert(0, manifest["src"])
    start = time.perf_counter()
    from humsearch import cli
    for argv in manifest["db_add"]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            print(f"setup failed: humsearch {' '.join(argv[:2])} exited {code}",
                  file=sys.stderr)
            return 1
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
