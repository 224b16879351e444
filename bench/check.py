"""Output checks for the benchmark's workloads.  Standard library only.

A trace is read as (header lines, rows of (gamma0_t, C_R)).  Every check
returns a dict mapping output name to the first problem found; an empty dict
means every output passed.
"""

from __future__ import annotations

import math
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"
LN8 = math.log(8.0)
ENGINE_LINE = "# engine="


def read_csv(path: Path) -> tuple[list[str], list[tuple[float, float]]]:
    header, rows = [], []
    for line in path.read_text(encoding="ascii").splitlines():
        if line[:1].isdigit():
            t, c = line.split(",")
            rows.append((float(t), float(c)))
        else:
            header.append(line)
    return header, rows


def read_outputs(out_dir: Path, names) -> dict:
    """Parsed outputs by name; a missing or unreadable file maps to None."""
    outputs = {}
    for name in names:
        try:
            outputs[name] = read_csv(out_dir / name)
        except (OSError, ValueError):
            outputs[name] = None
    return outputs


def against(outputs: dict, reference: dict, tol: float, ignore_engine: bool = False) -> dict:
    """Headers byte-equal and both columns within tol of the reference."""
    problems = {}
    for name, want in reference.items():
        got = outputs.get(name)
        if got is None:
            problems[name] = "missing or unreadable"
            continue
        (got_header, got_rows), (want_header, want_rows) = got, want
        if ignore_engine:
            got_header = [line for line in got_header if not line.startswith(ENGINE_LINE)]
            want_header = [line for line in want_header if not line.startswith(ENGINE_LINE)]
        if got_header != want_header:
            problems[name] = "header differs from the reference"
        elif len(got_rows) != len(want_rows):
            problems[name] = f"{len(got_rows)} rows, reference has {len(want_rows)}"
        else:
            for i, (g, w) in enumerate(zip(got_rows, want_rows)):
                if not (abs(g[0] - w[0]) <= tol and abs(g[1] - w[1]) <= tol):
                    problems[name] = f"row {i}: {g} differs from reference {w} by more than {tol:g}"
                    break
    return problems


def _sig9(x) -> str:
    return format(float(x), ".9g")


def expected_header(entry: dict) -> list[str]:
    """The CSV header the program documents for a config entry."""
    return [f"# state={entry['state']}", f"# p={_sig9(entry.get('p', 1.0))}",
            f"# topology={entry['topology']}", f"# memory={entry['memory']}",
            f"# eta={_sig9(entry['eta'])}", f"# lambda={_sig9(entry['lambda'])}",
            f"# kbt={_sig9(entry['kbt'])}", f"# engine={entry.get('engine', 'closed_form')}",
            "gamma0_t,C_R"]


def in_range(outputs: dict, entries: list[dict], n_points: int) -> dict:
    """Header as documented, the uniform grid, and every C_R finite in [0, ln 8]."""
    problems = {}
    for entry in entries:
        name = entry["output"]
        got = outputs.get(name)
        if got is None:
            problems[name] = "missing or unreadable"
            continue
        header, rows = got
        t_max = entry["t_max"]
        if header != expected_header(entry):
            problems[name] = "header differs from the scenario"
        elif len(rows) != n_points:
            problems[name] = f"{len(rows)} rows, expected {n_points}"
        else:
            for i, (t, c) in enumerate(rows):
                if abs(t - t_max * i / (n_points - 1)) > 1e-8 * t_max:
                    problems[name] = f"row {i}: gamma0_t={t!r} is off the grid"
                    break
                if not (math.isfinite(c) and 0.0 <= c <= LN8):
                    problems[name] = f"row {i}: C_R={c!r} outside [0, ln 8]"
                    break
    return problems


def load_reference(name: str) -> dict:
    directory = REFERENCE / name
    return read_outputs(directory, sorted(p.name for p in directory.glob("*.csv")))
