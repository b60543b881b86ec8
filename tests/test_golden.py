"""The byte-identity gate: the CLI runs of ``tests/golden/runs.json`` keep their outputs.

Every run goes in-process through ``saddlebvp.cli.main``, and its exit code
and output file names are compared on any build.  The bytes (masked stdout,
stderr, warnings and file digests) are compared only where numpy, scipy,
the machine and numpy's SIMD targets match the record, since another build
may round differently; elsewhere that test skips and names the mismatch.
After a change that alters outputs on purpose, run
``python tests/golden/regenerate.py`` and name the changed runs in CHANGES.md.
"""

import importlib.util
import json
import os

import pytest

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _load_regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate",
                                                  os.path.join(HERE, "regenerate.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regenerate = _load_regenerate()


@pytest.fixture(scope="module")
def golden():
    with open(regenerate.RUNS, encoding="utf-8") as handle:
        runs = json.load(handle)
    with open(regenerate.DIGESTS, encoding="utf-8") as handle:
        recorded = json.load(handle)
    return runs, recorded, regenerate.run_all(runs)


def test_golden_list_is_recorded(golden):
    runs, recorded, _ = golden
    ids = [r["id"] for r in runs["runs"]]
    assert len(set(ids)) == len(ids) and set(ids) == set(recorded["runs"])


def test_golden_runs_keep_exit_codes_and_file_names(golden):
    _, recorded, now = golden
    changed = [rid for rid, rec in recorded["runs"].items()
               if (now[rid]["exit"], sorted(now[rid]["files"]))
               != (rec["exit"], sorted(rec["files"]))]
    assert not changed, f"exit codes or output names changed: {changed}"


def test_golden_runs_keep_their_bytes(golden):
    _, recorded, now = golden
    here = regenerate.environment()
    if here != recorded["environment"]:
        differ = {k: (recorded["environment"].get(k), here.get(k))
                  for k in here if here.get(k) != recorded["environment"].get(k)}
        pytest.skip(f"bytes not compared: the digests were made on another build, "
                    f"(recorded, here) = {differ}")
    changed = sorted(rid for rid, rec in recorded["runs"].items() if now[rid] != rec)
    assert not changed, (f"{len(changed)} runs changed their outputs: {changed}; if on "
                         "purpose, run tests/golden/regenerate.py and name them in CHANGES.md")
