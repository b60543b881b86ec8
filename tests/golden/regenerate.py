"""Run the CLI runs of ``runs.json`` and record what they wrote in ``digests.json``.

Usage: python tests/golden/regenerate.py

Each run of ``runs.json`` goes in-process through ``saddlebvp.cli.main``
(the script imports it from the ``src/`` of this checkout) in a scratch directory that
holds every problem file of the list.  Per run the record keeps the exit
code and the SHA-256 of stdout (the wall time masked), of stderr, of the
warnings raised and of every file the run wrote.  The environment record
(numpy, scipy, the machine and numpy's SIMD targets) says where the bits
were made; ``tests/test_golden.py`` compares bytes only on a matching one.

Regenerate the digests when a change alters outputs on purpose, and name
each changed run and the reason in CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import re
import sys
import tempfile
import warnings

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUNS = os.path.join(HERE, "runs.json")
DIGESTS = os.path.join(HERE, "digests.json")
WALL_TIME = re.compile(r"wall time [0-9.]+ s")


def environment():
    """The facts the output bits depend on beyond the source."""
    import numpy as np
    import scipy

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [name for name in umath.__cpu_dispatch__ if umath.__cpu_features__.get(name)]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "machine": platform.machine(),
            "simd": {"baseline": list(umath.__cpu_baseline__), "found": found}}


def _sha(data):
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def run_all(spec):
    """``{run id: record}`` for the runs of ``spec``, the parsed ``runs.json``."""
    from saddlebvp.cli import main

    records = {}
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            for name, problem in spec["problems"].items():
                with open(name, "w", encoding="utf-8") as handle:
                    json.dump(problem, handle)
            for run in spec["runs"]:
                before = set(os.listdir("."))
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                        warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main(list(run["argv"]))
                files = sorted(set(os.listdir(".")) - before)
                records[run["id"]] = {
                    "exit": code,
                    "stdout": _sha(WALL_TIME.sub("wall time <masked> s", out.getvalue())),
                    "stderr": _sha(err.getvalue()),
                    "warnings": _sha("\n".join(f"{w.category.__name__}: {w.message}"
                                               for w in caught)),
                    "files": {name: _sha(pathlib.Path(name).read_bytes()) for name in files},
                }
                for name in files:
                    os.remove(name)
        finally:
            os.chdir(home)
    return records


def main():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    with open(RUNS, encoding="utf-8") as handle:
        spec = json.load(handle)
    digests = {"environment": environment(), "runs": run_all(spec)}
    with open(DIGESTS, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests['runs'])} runs to {DIGESTS}")


if __name__ == "__main__":
    main()
