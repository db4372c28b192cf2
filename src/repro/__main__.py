"""``python -m repro``: the command line (see :mod:`repro.runtime.cli`)."""

from repro.runtime.cli import main

if __name__ == "__main__":
    raise SystemExit(main())
