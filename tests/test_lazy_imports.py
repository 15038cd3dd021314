"""The CLI loads the process pool and ``hashlib`` only when it uses them.

``multiprocessing`` and ``concurrent.futures`` (which bring ``logging``,
``pickle``, ``socket`` and ``subprocess``) load with the first process
pool, and ``hashlib`` (which maps OpenSSL) with the first job or store
key.  Each is a few MiB of resident memory that a ``list``, ``trace``
or ``stalls`` run, or a serial sweep, would otherwise carry.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys

from repro.common.hashing import stable_hash

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

LAZY = ("multiprocessing", "concurrent.futures", "hashlib", "_hashlib")

PROBE = f"""
import contextlib, io, sys
import repro.runner.cli as cli
loaded = {{}}
loaded["import"] = [m for m in {LAZY!r} if m in sys.modules]
cli.build_parser()
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["list"]) == 0
loaded["list"] = [m for m in {LAZY!r} if m in sys.modules]
print(loaded)
"""


def test_cli_import_and_list_load_no_pool_or_hashlib():
    env = dict(os.environ,
               PYTHONPATH=os.path.join(REPO, "src") + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", PROBE], capture_output=True,
                          text=True, env=env, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str({"import": [], "list": []})


def test_stable_hash_is_pinned_to_sha256_of_the_json():
    """Keys are the sha256 of the payload's default ``json.dumps``; the
    lazy import must not change one."""
    assert stable_hash({"a": 1}) == (
        hashlib.sha256(b'{"a": 1}').hexdigest()[:16])
    assert stable_hash({"a": 1}, length=8) == stable_hash({"a": 1})[:8]
