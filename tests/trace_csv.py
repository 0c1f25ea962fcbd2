"""Test helper: read a rendered trace CSV back into its parts."""

from __future__ import annotations

import json

INT_COLUMNS = {"t": int, "comm_count": int}  # every other trace column is a float


def parse_trace(text: str) -> dict:
    """Parse a rendered trace CSV back into config, per-repeat records, and
    the summary line. Round-trips everything ``CsvTrace.render`` emits for
    kind="trace"."""
    config = None
    seed = None
    columns = None
    repeats: list[dict] = []
    summary: dict = {}
    for line in text.splitlines():
        if line.startswith("# config="):
            config = json.loads(line[len("# config="):])
        elif line.startswith("# seed="):
            seed = int(line[len("# seed="):])
        elif line.startswith("# repeat="):
            head = line[2:].split()
            fields = dict(part.split("=", 1) for part in head if "=" in part)
            repeats.append(
                {
                    "repeat": int(fields["repeat"]),
                    "seed": int(fields["seed"]),
                    "eta": float(fields["eta"]),
                    "records": [],
                }
            )
        elif line.startswith("# summary"):
            for part in line[len("# summary"):].split():
                key, _, val = part.partition("=")
                summary[key] = float(val)
        elif line.startswith("#") or not line.strip():
            continue
        elif columns is None:
            columns = line.split(",")
        else:
            record = {
                key: INT_COLUMNS.get(key, float)(cell)
                for key, cell in zip(columns, line.split(","))
            }
            repeats[-1]["records"].append(record)
    return {"config": config, "seed": seed, "columns": columns, "repeats": repeats, "summary": summary}
