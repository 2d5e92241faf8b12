"""Check every recorded `balacyc sweep` report digest in one process.

For each seed in perfbench/sweep_digests.json this runs
`balacyc sweep --seed S --format json --out FILE` through cli.main and
compares the sha256 of FILE with the recorded digest. The digest file is
only read. Exits 0 when all match, 1 otherwise.

Run from the repository root:

    PYTHONPATH=src python3 scripts/check_sweep_digests.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from balacyc import cli

DIGESTS = Path(__file__).resolve().parent.parent / "perfbench" / "sweep_digests.json"


def main() -> int:
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "sweep.json"
        for seed, expected in sorted(digests.items(), key=lambda kv: int(kv[0])):
            out.unlink(missing_ok=True)
            code = cli.main(["sweep", "--seed", seed, "--format", "json", "--out", str(out)])
            digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
            if code != 0 or digest != expected:
                bad.append(seed)
                print(f"seed {seed}: exit {code}, sha256 {digest}, recorded {expected}")
    print(f"{len(digests) - len(bad)}/{len(digests)} sweep digests match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
