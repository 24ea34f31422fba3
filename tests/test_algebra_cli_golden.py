"""Byte goldens of the CLI.

Claims covered here:

- `rewrite` and `verify-basis`, in json and text, print the same exit
  code, stdout and stderr bytes as when algebra_cli_digests.json was
  written, on every fixture graph, a two-vertex graph and fixed rewrite
  expressions (negative denominators, u(v)^0, products of four sums, a
  syntax error); `verify-basis` also on a one-vertex graph with loops
  (50, -2) and (2, 3), the benchmark's size
- so do `analyze`, `loops` and `conjecture` at --kmax 10, and `spectra`,
  in json, text and csv, on the same graphs; see algebra_cli_goldens.py
  for the run list and the script that rewrites the digests
"""

import json

from algebra_cli_goldens import DIGESTS, digest_runs


def test_algebra_cli_bytes_match_goldens(tmp_path, monkeypatch):
    monkeypatch.delenv("TGE_THREADS", raising=False)
    stored = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = digest_runs(tmp_path)
    moved = sorted(k for k in stored.keys() | got.keys() if stored.get(k) != got.get(k))
    assert not moved, "runs whose bytes moved (or that are new or gone):\n" + "\n".join(
        f"  tge {argv}" for argv in moved)

