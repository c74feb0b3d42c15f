"""Every output the golden transcript records, replayed byte for byte."""

from golden.regen import CASES, changed_cases, digest, read_transcript


def test_every_case_replays_its_recorded_digest():
    """Each CLI call (exit code, stdout, stderr) and library repr in
    tests/golden/regen.py hashes to the digest in transcript.txt; a change
    on purpose is recorded by running regen.py with --write."""
    assert changed_cases(read_transcript(), {case: digest(case) for case in CASES}) == []
