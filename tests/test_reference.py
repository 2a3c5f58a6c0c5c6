"""The shipped configs' outputs against the committed reference.

``tests/reference/<config stem>/`` holds every CSV and summary JSON that the
CLI writes for that config (``velocity_scan_full.json`` aside).  The fast
configs run here through ``cli.main``; the desk velocity and coupling-scaling
references are compared with the acceptance fixtures' dt = 0.01 records in
``test_acceptance.py``, which run the same scans.  A change that moves records
on purpose regenerates the reference in the same commit, e.g.

    PYTHONPATH=src python -m spinwork.cli single --config configs/single_quench.json \\
        --threads 2 --output tests/reference/single_quench

Every cell is compared but the run's timing and setup: ``runtime_seconds``,
``wall_time``, ``output_dir`` and ``workers``.  A number matches when it is
within its file's tolerance times max(1, |reference|), so the tolerance is
absolute below 1 and relative above; anything else must be equal.

This module and ``conftest.py`` import only numpy, pytest and spinwork, so
they also run on an install without the test extra.
"""
import json
import math
import shutil
from pathlib import Path

import pytest

from spinwork import cli

REFERENCE = Path(__file__).parent / "reference"
CONFIGS = Path(__file__).parent.parent / "configs"
EXCLUDED = {"runtime_seconds", "wall_time", "output_dir", "workers"}

# Tolerances, from spreads measured on a 2-vCPU machine (Python 3.11, numpy 2.4
# with its bundled OpenBLAS).  Across --threads 1 and 2, with BLAS on one
# thread and unpinned, the single and pert-compare outputs were bit-identical
# and the size scan's records moved by at most 1.1e-15 (its Jarzynski
# deviation; infidelity 4.4e-16).  1e-12 leaves ~1000x that for other BLAS
# kernels and still sees any change of method: moving from complex to real
# arithmetic moved these short-ramp records by up to 9e-13.
SINGLE_QUENCH_TOL = 1e-12
SIZE_SCAN_TOL = 1e-12
PERT_COMPARE_TOL = 1e-12
# The desk scan's slowest ramp takes 10^4 steps, and roundoff grows with the
# step count: --threads 1 against 2 moved its records by 2.0e-15, and moving
# J by one ulp moves them by up to 5.9e-11.  The scaling scan's slowest ramp
# takes 2x10^4 steps, and its records did not move between --threads 1 and 2.
VELOCITY_SCAN_DESK_TOL = 1e-9
LAMBDA_SCALING_TOL = 1e-9

TOLERANCE = {
    "single_quench": SINGLE_QUENCH_TOL,
    "size_scan": SIZE_SCAN_TOL,
    "pert_compare": PERT_COMPARE_TOL,
    "velocity_scan_desk": VELOCITY_SCAN_DESK_TOL,
    "lambda_scaling": LAMBDA_SCALING_TOL,
}

FAST_CONFIGS = [
    ("single", "single_quench"),
    ("scan-size", "size_scan"),
    ("pert-compare", "pert_compare"),
]


def _cells_match(got, want, tol: float) -> bool:
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        if math.isnan(want) or math.isnan(got):
            return math.isnan(want) and math.isnan(got)
        return got == want or abs(got - want) <= tol * max(1.0, abs(want))
    return type(got) is type(want) and got == want


def _json_mismatches(got, want, tol: float, where: str) -> list[str]:
    if isinstance(want, dict):
        if not isinstance(got, dict) or list(got) != list(want):
            return [f"{where}: keys differ"]
        return [m for key in want if key not in EXCLUDED
                for m in _json_mismatches(got[key], want[key], tol, f"{where}.{key}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return [f"{where}: {got!r:.60} != {want!r:.60}"]
        return [m for k, (g, w) in enumerate(zip(got, want))
                for m in _json_mismatches(g, w, tol, f"{where}[{k}]")]
    return [] if _cells_match(got, want, tol) else [f"{where}: {got!r} != {want!r}"]


def _csv_mismatches(got: str, want: str, tol: float, where: str) -> list[str]:
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if got_rows[:1] != want_rows[:1] or len(got_rows) != len(want_rows):
        return [f"{where}: header or row count differs"]
    header = want_rows[0]
    return [
        f"{where} row {r} {column}: {g} != {w}"
        for r, (got_row, want_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=1)
        for column, g, w in zip(header, got_row, want_row)
        if column not in EXCLUDED and not _cells_match(float(g), float(w), tol)
    ]


def file_mismatches(got: Path, want: Path, tol: float) -> list[str]:
    """Cells of ``got`` that differ from the reference file ``want`` beyond ``tol``."""
    if want.suffix == ".csv":
        return _csv_mismatches(got.read_text(encoding="utf-8"), want.read_text(encoding="utf-8"), tol, want.name)
    return _json_mismatches(json.loads(got.read_text(encoding="utf-8")),
                            json.loads(want.read_text(encoding="utf-8")), tol, want.name)


def dir_mismatches(got: Path, stem: str) -> list[str]:
    """Files and cells of the output directory ``got`` that differ from the reference of ``stem``."""
    want = REFERENCE / stem
    names = sorted(p.name for p in want.iterdir())
    if sorted(p.name for p in got.iterdir()) != names:
        return [f"files {sorted(p.name for p in got.iterdir())} != {names}"]
    return [m for name in names for m in file_mismatches(got / name, want / name, TOLERANCE[stem])]


@pytest.mark.parametrize("command, stem", FAST_CONFIGS)
def test_fast_config_matches_reference(tmp_path, capsys, command, stem):
    out = tmp_path / stem
    argv = [command, "--config", str(CONFIGS / f"{stem}.json"), "--threads", "2", "--output", str(out)]
    assert cli.main(argv) == cli.EXIT_OK, capsys.readouterr().err
    assert dir_mismatches(out, stem) == []


@pytest.mark.parametrize(
    "stem, name",
    [("size_scan", "size_records.csv"), ("pert_compare", "pert_compare_curves.json")],
)
def test_a_cell_ten_tolerances_off_fails(tmp_path, stem, name):
    # the comparison itself: the reference matches itself, and moving one
    # cell by 10x its file's tolerance is a mismatch
    out = tmp_path / stem
    shutil.copytree(REFERENCE / stem, out)
    assert dir_mismatches(out, stem) == []
    tol, text = TOLERANCE[stem], (out / name).read_text(encoding="utf-8")
    if name.endswith(".csv"):
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[1] = repr(float(cells[1]) + 10 * tol * max(1.0, abs(float(cells[1]))))
        lines[1] = ",".join(cells)
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        curves = json.loads(text)
        u0 = curves["u"][0]
        curves["u"][0] = u0 + 10 * tol * max(1.0, abs(u0))
        (out / name).write_text(json.dumps(curves) + "\n", encoding="utf-8")
    assert len(dir_mismatches(out, stem)) == 1
