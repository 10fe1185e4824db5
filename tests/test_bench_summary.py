"""The benchmark reads gradcheck's summary with its own regex
(``GRADCHECK_SUMMARY`` in ``perfbench/workloads.py``) and marks every op
whose output it cannot parse as incorrect.  Every pinned gradcheck output
must still match it.  ``perfbench/workloads.py`` is loaded from its file and
not modified."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
GOLDEN = ROOT / "tests" / "data" / "gradcheck_golden.json"


def test_gradcheck_summary_regex_matches_every_golden_record():
    loader = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(workloads)
    records = json.loads(GOLDEN.read_text())
    assert records
    unmatched = [key for key, stdout in sorted(records.items()) if not workloads.GRADCHECK_SUMMARY.search(stdout)]
    assert unmatched == []
