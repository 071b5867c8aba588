"""One fixed corpus through the library, one sha256 per output.

identity_sweep.json pins the hash of every output below over the whole
corpus, so a claim that a change keeps the library's outputs
byte-identical can be checked again at any later commit.  A change that
alters an output on purpose regenerates the file with

    PYTHONPATH=src python3 tests/test_identity_sweep.py

and names each hash that changed.  The CLI's bytes are pinned apart, by
test_reference_reports.py and cli_digests.json.
"""

import hashlib
import json
from pathlib import Path

from gt_toolkit.actions import count_invariants
from gt_toolkit.hilbert import hf_reduced, surface_profile
from gt_toolkit.resolution import betti_table, series_from_betti
from gt_toolkit.semigroups import _classes, semigroup_of_action
from gt_toolkit.togliatti import classify
from gt_toolkit.toricideal import minimal_generators

from surfaces import action_classes, surface_triples

HASHES = Path(__file__).with_name("identity_sweep.json")


def corpus():
    """The action classes with 3 variables and d <= 30, 4 with d <= 10,
    5 with d <= 7 and 6 with d <= 5, and the surfaces with d <= 20."""
    actions = [*action_classes(3, 30), *action_classes(4, 10),
               *action_classes(5, 7), *action_classes(6, 5)]
    return actions, list(surface_triples(20))


def _digest(pairs) -> str:
    """sha256 of the (input, output) pairs, in corpus order."""
    text = json.dumps(list(pairs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def sweep() -> dict:
    actions, surfaces = corpus()
    tables = [betti_table(surface_profile(*s)) for s in surfaces]
    outputs = {
        "minimal_generators": ((a, minimal_generators(a).to_dict())
                               for a in actions),
        "classify": ((a, classify(a).to_dict()) for a in actions),
        "count_invariants": ((a, [count_invariants(a, t)
                                  for t in range(1, 5)]) for a in actions),
        "apery_classes": ((a, _classes(semigroup_of_action(a)))
                          for a in actions),
        "hf_reduced": ((s, [hf_reduced(*s, t) for t in range(7)])
                       for s in surfaces),
        "betti_table": ((s, b.to_dict()) for s, b in zip(surfaces, tables)),
        "series_from_betti": ((s, series_from_betti(b).to_dict())
                              for s, b in zip(surfaces, tables)),
    }
    return {"actions": len(actions), "surfaces": len(surfaces),
            "sha256": {name: _digest(pairs)
                       for name, pairs in outputs.items()}}


def test_library_outputs_match_the_committed_hashes():
    with open(HASHES, encoding="utf-8") as fh:
        assert sweep() == json.load(fh)


if __name__ == "__main__":
    HASHES.write_text(json.dumps(sweep(), indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
