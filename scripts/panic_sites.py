#!/usr/bin/env python3
"""Hold the workspace's unwrap/expect/panic! sites under a ceiling.

Reads the JSON messages of

    cargo clippy --workspace --message-format=json -- \
        -W clippy::unwrap_used -W clippy::expect_used -W clippy::panic

on stdin (non-test lib and bin code only) and counts each site once, by
the primary span of its lint message: in total, and outside
`crates/bench` and `vendor/`. Exits 1 when either count is above its
ceiling below, so a change that adds a site must remove another. Lower
the ceilings when a change removes sites.
"""

import json
import sys

CEILING_TOTAL = 116
CEILING_PRODUCT = 67

LINTS = {"clippy::unwrap_used", "clippy::expect_used", "clippy::panic"}
EXEMPT = ("crates/bench/", "vendor/")


def main():
    sites = set()
    for line in sys.stdin:
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") != "compiler-message":
            continue
        diag = msg["message"]
        if (diag.get("code") or {}).get("code") not in LINTS:
            continue
        for span in diag["spans"]:
            if span["is_primary"]:
                sites.add((span["file_name"], span["line_start"], span["column_start"]))
    total = len(sites)
    product = sum(1 for (path, _, _) in sites if not path.startswith(EXEMPT))
    print(f"panic sites: {total} in total (ceiling {CEILING_TOTAL}), "
          f"{product} outside crates/bench and vendor/ (ceiling {CEILING_PRODUCT})")
    if total > CEILING_TOTAL or product > CEILING_PRODUCT:
        print("error: more unwrap/expect/panic! sites than the ceiling allows", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
