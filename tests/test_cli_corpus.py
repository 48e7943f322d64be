"""Replay the CLI byte corpus: every command's stdout, stderr and exit code.

``tests/cli_corpus.json`` holds each command with the SHA-256 of its
stdout and stderr and its exit code, as ``tests/make_cli_corpus.py``
recorded them.  A mismatch means the CLI's bytes changed.
"""

import json

import pytest

from make_cli_corpus import CORPUS, digest, run_command, write_files

with open(CORPUS) as _handle:
    _CORPUS = json.load(_handle)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-corpus")
    write_files(str(path), _CORPUS["files"])
    return str(path)


@pytest.mark.parametrize("entry", _CORPUS["commands"],
                         ids=lambda e: " ".join(e["argv"]) or "<no arguments>")
def test_cli_bytes_unchanged(entry, workdir):
    code, out, err = run_command(entry["argv"], workdir)
    assert (code, digest(out), digest(err)) == (
        entry["exit"], entry["stdout_sha256"], entry["stderr_sha256"]), (out, err)


def test_corpus_covers_every_octad_action_and_exit_code():
    argvs = [e["argv"] for e in _CORPUS["commands"]]
    actions = {a[a.index("octad") + 1] for a in argvs if "octad" in a}
    assert {"check", "net", "hessian", "eighth", "bitangents", "cremona",
            "gale"} <= actions
    assert {e["exit"] for e in _CORPUS["commands"]} == {0, 1, 2}
