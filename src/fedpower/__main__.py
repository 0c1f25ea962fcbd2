"""``python -m fedpower``: the ``fedpower`` command."""

from .cli import main

raise SystemExit(main())
