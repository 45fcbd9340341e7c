#!/usr/bin/env python3
"""Regenerate census_reference.json: the census triples up to BOUND.

Taken from the pure-Python census path; the part up to the oracle cap is
cross-checked against brute_oracle before anything is written.  Run from the
repository root:

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

import json
import sys

from foursq.search import ORACLE_MAX_BOUND, brute_oracle, search_triples

from expect import REFERENCE

BOUND = 55_000


def main() -> int:
    triples = [t[:3] for t in search_triples(BOUND, force_pure=True).triples]
    oracle = [t[:3] for t in brute_oracle(ORACLE_MAX_BOUND).triples]
    if [t for t in triples if t[2] <= ORACLE_MAX_BOUND] != oracle:
        print("census disagrees with brute_oracle", file=sys.stderr)
        return 1
    rows = ",\n".join(f"    {json.dumps(list(t))}" for t in triples)
    REFERENCE.write_text(
        f'{{\n  "bound": {BOUND},\n  "oracle_checked_to": {ORACLE_MAX_BOUND},\n'
        f'  "triples": [\n{rows}\n  ]\n}}\n')
    print(f"{len(triples)} triples up to {BOUND} written to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
