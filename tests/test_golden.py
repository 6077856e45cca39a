"""Every subcommand's outputs on a small matrix of runs, against golden files.

The reproducibility contract says a configuration's outputs are the same
bytes at any ``--threads`` value on one machine (acceptance criterion 9),
and from release to release unless a change says otherwise.  The files hold
their bytes only under the numpy SIMD dispatch target they were recorded
on, AVX-512 (``X86_V4``): numpy's float64 ``pow``, ``exp``, ``log`` and
``arcsinh`` round some last bits differently on its AVX2 paths, where 19 of
the 28 cases differ (https://numpy.org/doc/stable/reference/simd/).
``tests/golden/record.py`` holds the matrix and re-records the files.  numpy
releases before 2.0 may round the circulant sampler's FFT in the last bit
differently, so there the files are parsed and their numbers compared at
``RTOL``/``ATOL`` (residuals are rounding-level, hence the absolute floor);
everywhere else the bytes must match.
"""

import re
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))
from record import CASES, GOLDEN, run_case  # noqa: E402

EXACT = int(np.__version__.split(".")[0]) >= 2
RTOL, ATOL = 1e-9, 1e-11
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


def _close(actual: str, expected: str) -> bool:
    """Equal text between the numbers, and numbers equal to RTOL/ATOL."""
    if NUMBER.split(actual) != NUMBER.split(expected):
        return False
    a = np.array(NUMBER.findall(actual), dtype=float)
    e = np.array(NUMBER.findall(expected), dtype=float)
    return a.shape == e.shape and bool(
        np.all(np.isclose(a, e, rtol=RTOL, atol=ATOL, equal_nan=True))
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_golden(name, tmp_path):
    golden = {path.name: path.read_bytes() for path in sorted((GOLDEN / name).iterdir())}
    for variant, argv in enumerate(CASES[name][1]):
        workdir = tmp_path / str(variant)
        workdir.mkdir()
        files = run_case(name, variant, workdir)
        assert sorted(files) == sorted(golden), argv
        for file_name, data in files.items():
            if EXACT:
                assert data == golden[file_name], (argv, file_name)
            else:
                assert _close(data.decode(), golden[file_name].decode()), (argv, file_name)


def test_golden_files_stay_small():
    size = sum(path.stat().st_size for path in GOLDEN.rglob("*") if path.is_file())
    assert size <= 200_000
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CASES)


def test_tolerant_comparison_sees_a_moved_number():
    text = '{"e": 0.0123456789, "steps": 16}\n'
    assert _close(text, text)
    assert _close(text.replace("0.0123456789", "0.01234567890000001"), text)
    assert not _close(text.replace("0.0123456789", "0.0123456788"), text)
    assert not _close(text.replace('"steps"', '"paths"'), text)
