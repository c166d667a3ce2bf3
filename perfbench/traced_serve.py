"""``repro serve`` with spans around the serving layers.

Usage: ``PERFBENCH_SPANS=<out.json> python perfbench/traced_serve.py serve ...``
(any ``repro`` CLI arguments).  Wraps the public functions listed in
:func:`spans.install_serving`, runs :func:`repro.cli.main`, and writes
the recorded spans to ``$PERFBENCH_SPANS`` when the server exits.
"""

from __future__ import annotations

import os
import sys

from spans import Recorder, install_serving


def main() -> int:
    out = os.environ["PERFBENCH_SPANS"]
    rec = Recorder()
    install_serving(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[1:])
    finally:
        rec.dump(out)


if __name__ == "__main__":
    sys.exit(main())
