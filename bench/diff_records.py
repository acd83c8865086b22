#!/usr/bin/env python3
"""Lists every leaf that differs between two BENCH JSON records.

    python3 bench/diff_records.py OLD.json NEW.json

Walks both documents and prints one line per leaf that differs, as
`path: old -> new`; a leaf present on one side only prints `<missing>` for
the other. Wall-time fields are skipped, because they differ between any
two runs: `wall_*` (wall_seconds, wall_overhead_pct), `*_per_sec`, `argv`
and `hardware_concurrency`. List elements are named by their `name`,
`rate` or `interval_s` field when they have one, so a cell reads as
`ladders[name=warm].points[rate=0.4].executed_events`.

Exits 0 when nothing else differs, 1 when something does, 2 on bad usage
or an unreadable file.
"""

import json
import sys

LABEL_KEYS = ("name", "rate", "interval_s")
MISSING = object()  # the side of a leaf that only the other record has


def skipped(key):
    return (key.startswith("wall_") or key.endswith("_per_sec")
            or key in ("argv", "hardware_concurrency"))


def label(index, old, new):
    for item in (old, new):
        if isinstance(item, dict):
            for key in LABEL_KEYS:
                value = item.get(key)
                if value is not None and not isinstance(value, (dict, list)):
                    return "[%s=%s]" % (key, value)
    return "[%d]" % index


def diff(old, new, path, out):
    if isinstance(old, dict) and isinstance(new, dict):
        for key in list(old) + [k for k in new if k not in old]:
            if skipped(key):
                continue
            sub = "%s.%s" % (path, key) if path else key
            diff(old.get(key, MISSING), new.get(key, MISSING), sub, out)
    elif isinstance(old, list) and isinstance(new, list):
        for i in range(max(len(old), len(new))):
            a = old[i] if i < len(old) else MISSING
            b = new[i] if i < len(new) else MISSING
            diff(a, b, path + label(i, a, b), out)
    elif old != new:
        out.append("%s: %s -> %s" % (path, show(old), show(new)))


def show(value):
    if value is MISSING:
        return "<missing>"
    return json.dumps(value)


def main(argv):
    if len(argv) != 3:
        print("usage: diff_records.py OLD.json NEW.json", file=sys.stderr)
        return 2
    docs = []
    for path in argv[1:]:
        try:
            with open(path) as f:
                docs.append(json.load(f))
        except (OSError, ValueError) as e:
            print("cannot read %s: %s" % (path, e), file=sys.stderr)
            return 2
    out = []
    diff(docs[0], docs[1], "", out)
    for line in out:
        print(line)
    print("%d leaves differ" % len(out) if out else "no leaf differs")
    return 1 if out else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
