"""Run a mixlab command in-process and read its --json payload; the demo
scripts share it so they print what the CLI computes."""

import contextlib
import io
import json
import sys

from mixlab import cli


def mixlab_json(*argv) -> dict:
    """Run `mixlab argv --json` in-process and return its payload; any exit
    other than success or an empty search ends the script with that code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*argv, "--json"])
    if code not in (cli.EXIT_OK, cli.EXIT_EMPTY):
        sys.exit(code)
    return json.loads(out.getvalue())
