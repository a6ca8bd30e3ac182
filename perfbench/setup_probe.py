"""One set-up sample in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Prints {"import_s": ..., "inputs_s": ..., "scale": ...} as its last line,
unscaled seconds and the factor that converts them to the nominal host.
"""

import json
import sys
from pathlib import Path

from run import setup

if __name__ == "__main__":
    import_s, inputs_s, scale, _ = setup(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
    print(json.dumps({"import_s": import_s, "inputs_s": inputs_s, "scale": scale}))
