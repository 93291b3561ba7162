"""Recorded `nqsolve` transcripts: exit code and stdout must stay byte-identical.

`golden/cli/manifest.json` lists each invocation with its exit code; its
stdout is stored in `golden/cli/<name>.out`.
"""

import io
import json
from pathlib import Path

import pytest

from quantum_nqueens import cli

GOLDEN_DIR = Path(__file__).parent / "golden" / "cli"
CASES = json.loads((GOLDEN_DIR / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_transcript_is_byte_identical(case, monkeypatch):
    monkeypatch.delenv(cli.FORMAT_ENV_VAR, raising=False)
    out = io.StringIO()
    code = cli.main(case["argv"], out=out)
    assert code == case["exit"]
    assert out.getvalue().encode("utf-8") == (GOLDEN_DIR / f"{case['name']}.out").read_bytes()
