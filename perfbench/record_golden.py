#!/usr/bin/env python3
"""Record the stdout digests of every semisimple_reports query.

    python3 perfbench/record_golden.py

Runs the whole fixed catalogue through ``homspace.cli.run`` and writes
``golden.json`` next to this file.  Recorded once from the seed code; the
benchmark then checks later commits against it.  Re-record only when a
change of output is intended.
"""

import io
import json
import os
import shutil
import sys

from checks import GOLDEN_PATH, check_output, digest
from run import ROOT, Runner, import_cli
from workloads import semisimple_catalogue


def main() -> int:
    cli = import_cli()
    workdir = os.path.join(ROOT, ".perfbench-work", "record")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(cli, workdir, {})
    digests = {}
    try:
        for query in semisimple_catalogue():
            out, err = io.StringIO(), io.StringIO()
            code = cli.run(runner.argv(query), stdout=out, stderr=err)
            if code:
                print(f"{query.key}: exit {code}: {err.getvalue()}", file=sys.stderr)
                return 1
            digests[query.key] = digest(out.getvalue())
            problems = check_output(query, out.getvalue(), digests)
            if problems:
                print(f"{query.key}: {problems}", file=sys.stderr)
                return 1
    finally:
        shutil.rmtree(os.path.dirname(workdir), ignore_errors=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump({"digests": digests}, handle, indent=0, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(digests)} digests in {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
