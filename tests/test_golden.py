"""Every subcommand's outputs on a small matrix of runs, against golden files.

The reproducibility contract says a configuration's outputs are the same
bytes at any ``--threads`` value on one machine (acceptance criterion 9),
and from release to release unless a change says otherwise.  Across
machines the bytes can differ: numpy's float64 ``pow``, ``exp``, ``log`` and
``arcsinh`` round some last bits differently under each SIMD dispatch target,
and on an AVX-512 machine whose AVX-512 targets are disabled, 21 of the 26
cases differ in bytes (https://numpy.org/doc/stable/reference/simd/).  numpy
releases before 2.0 may also round the circulant sampler's FFT in the last
bit differently.  So ``tests/golden/record.py``, which holds the matrix and
re-records the files, writes the dispatch target it ran under beside them,
and the rule is: where numpy is 2 or later and dispatches to that recorded
target, the bytes must match; everywhere else the files are parsed and
their numbers compared at record.py's ``RTOL``/``ATOL`` (residuals are
rounding-level, hence the absolute floor), with the text between the
numbers unchanged.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from record import (  # noqa: E402
    CASES, GOLDEN, TARGET, close, dispatch_target, exact_here, matches, run_case,
)

EXACT = exact_here()


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path):
    golden = {path.name: path.read_bytes() for path in sorted((GOLDEN / name).iterdir())}
    for variant, argv in enumerate(CASES[name][1]):
        workdir = tmp_path / str(variant)
        workdir.mkdir()
        files = run_case(name, variant, workdir)
        assert sorted(files) == sorted(golden), argv
        for file_name, data in files.items():
            assert matches(data, golden[file_name], EXACT), (argv, file_name, EXACT)


def test_golden_files_stay_small():
    size = sum(path.stat().st_size for path in GOLDEN.rglob("*") if path.is_file())
    assert size <= 200_000
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CASES)


def test_golden_files_name_their_dispatch_target():
    recorded = TARGET.read_text()
    assert recorded.endswith("\n") and recorded.split() == [recorded.strip()]
    assert dispatch_target()


def test_tolerant_comparison_sees_a_moved_number():
    text = '{"e": 0.0123456789, "steps": 16}\n'
    assert close(text, text)
    assert close(text.replace("0.0123456789", "0.01234567890000001"), text)
    assert not close(text.replace("0.0123456789", "0.0123456788"), text)
    assert not close(text.replace('"steps"', '"paths"'), text)
    # bytes are held exactly where the rule asks for them
    moved = text.replace("0.0123456789", "0.01234567890000001").encode()
    assert matches(moved, text.encode(), exact=False)
    assert not matches(moved, text.encode(), exact=True)
