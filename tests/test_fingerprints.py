"""Every output of the fixed CLI runs of ``bench/fingerprints.py``, bit for bit.

The runs are recomputed here and their hashes compared with
``tests/golden/fingerprints.json``. A change whose outputs are meant to
differ refreshes that file with ``python3 bench/fingerprints.py``.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_fingerprints",
                                               ROOT / "bench" / "fingerprints.py")
fingerprints = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprints)


def test_every_output_matches_its_fingerprint(tmp_path):
    golden = json.loads(fingerprints.GOLDEN.read_text(encoding="utf-8"))
    changed = fingerprints.differences(golden["runs"], fingerprints.run_all(tmp_path))
    here = fingerprints.made_with()
    note = ("" if here == golden["made_with"] else
            f"\n(the fingerprints were made with {golden['made_with']}, this run has {here})")
    assert not changed, "outputs differ from tests/golden/fingerprints.json:\n" + \
        "\n".join(changed) + note


def test_a_difference_names_the_run_and_the_entry():
    old = {"rank-exp": {"exit": 0, "rank_seeds.csv": "aa", "gone.csv": "cc"}}
    new = {"rank-exp": {"exit": 0, "rank_seeds.csv": "bb"}, "diagnose": {"exit": 0}}
    assert fingerprints.differences(old, new) == [
        "diagnose: exit: new (0)",
        "rank-exp: gone.csv: missing (was cc)",
        "rank-exp: rank_seeds.csv: aa -> bb",
    ]
    assert fingerprints.differences(new, new) == []
