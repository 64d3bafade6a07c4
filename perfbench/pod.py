"""The pod server of the service workload, run as its own process.

    python3 perfbench/pod.py STORE_DIR [LEDGER_JSON]

Runs ``repro serve`` with its shipped settings on an ephemeral port until
SIGTERM; its first line on stdout names the port.  Given LEDGER_JSON it also
keeps the per-layer ledger (``ledger.py``): SIGUSR1 clears it when the
client's measured window starts, and at shutdown its totals are written to
LEDGER_JSON, which the client adds to its own.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ledger import Ledger, install  # noqa: E402 — needs the sources on the path
from repro.cli import main as repro_main  # noqa: E402


def main(argv: "list[str]") -> int:
    store_dir = argv[0]
    ledger_path = Path(argv[1]) if len(argv) > 1 else None
    ledger = None
    if ledger_path is not None:
        ledger = Ledger()
        install(ledger)

        def reset(signum, frame) -> None:
            ledger.reset()
            print("ledger reset", flush=True)

        signal.signal(signal.SIGUSR1, reset)
    code = repro_main(["serve", "--store-dir", store_dir, "--port", "0"])
    if ledger is not None:
        ledger.restore()
        ledger.dump(ledger_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
