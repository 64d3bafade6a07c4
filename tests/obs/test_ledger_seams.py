"""The benchmark's per-layer ledger still finds every seam it patches.

``perfbench/ledger.py`` wraps the analyser's layer entry points by name, and
looks each one up among its owner's own attributes.  Deleting or renaming
one of them breaks ``perfbench/run.py --trace 1`` and nothing else, so this
test installs the ledger, checks that every seam was replaced by a wrapper,
and restores it.
"""

import importlib.util
from pathlib import Path

LEDGER_PATH = Path(__file__).resolve().parents[2] / "perfbench" / "ledger.py"


def load_ledger_module():
    spec = importlib.util.spec_from_file_location("perfbench_ledger", LEDGER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_patches_every_seam_and_restore_puts_each_back():
    ledger_module = load_ledger_module()
    ledger = ledger_module.Ledger()
    try:
        ledger_module.install(ledger)
        patched = list(ledger._patches)
        assert patched
        for owner, name, original in patched:
            assert vars(owner)[name] is not original, (owner, name)
    finally:
        ledger.restore()
    for owner, name, original in patched:
        assert vars(owner)[name] is original, (owner, name)
