#!/usr/bin/env python3
"""Print a sha256 digest of every file a small seeded run of each command writes.

Runs, through the CLI and into one scratch directory: dataset synth and
normalize (both modes), ``learn exp1`` at N_l=2000, ``learn exp2``/``exp3``
at N_s=2 (otherwise the desk configs), ``poa --resolution 2000``,
``equilibrium --samples 100000`` and ``auction run`` in all four formats on
one fixed instance (the CLI's direct path to the continuous exact-GSP
price).  Prints one ``sha256  relative/path`` line per output file, sorted by
path.  Run it against two checkouts of the package and diff the output to
show that a change keeps seeded outputs byte-identical:

    PYTHONPATH=src python scripts/output_digest.py > digest.txt
    PYTHONPATH=other/src python scripts/output_digest.py > other.txt
    diff digest.txt other.txt

Pass a directory to keep the outputs there instead of a removed temp directory.
"""
import contextlib
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from posauctions.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: Five bidders of three types on three slots, for ``auction run``.
INSTANCE = {
    "slots": 3,
    "curves": {"a": [1.0, 0.7, 0.4], "b": [0.9, 0.8, 0.3], "c": [0.6, 0.5, 0.45]},
    "bidders": [{"id": 0, "type": "a", "value": 0.9}, {"id": 1, "type": "b", "value": 0.8},
                {"id": 2, "type": "c", "value": 1.0}, {"id": 3, "type": "a", "value": 0.5},
                {"id": 4, "type": "b", "value": 0.7}],
}
INSTANCE_BIDS = "0.8,0.75,0.9,0.45,0.6"
FORMATS = ("GreedyGSP", "GreedyVCG", "OptGSP", "OptVCG")


def _config(name: str, **overrides) -> str:
    doc = json.loads((CONFIGS / name).read_text(encoding="utf-8"))
    doc.update(overrides)
    path = Path("configs") / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run_all(root: Path) -> int:
    """Run every command with ``root`` as the working directory.

    Paths stay relative, so the reports' recorded configs do not depend on
    where ``root`` is.
    """
    cwd = os.getcwd()
    os.chdir(root)
    try:
        runs = [
            ["--seed", "1234", "--out", "data", "dataset", "synth",
             "--advertisers", "10", "--records", "400"],
            ["--seed", "1234", "--out", "data", "dataset", "normalize",
             "--mode", "advertisers", "--input", "data/raw_bids.csv"],
            ["--seed", "1234", "--out", "data", "dataset", "normalize",
             "--mode", "auctions", "--input", "data/raw_bids.csv",
             "--name", "normalized_auctions.csv"],
            ["--out", "exp1", "--config", _config("exp1_desk.json", N_l=2000),
             "learn", "exp1"],
            ["--out", "exp2", "--config",
             _config("exp2_desk.json", N_s=2, dataset="data/normalized.csv"),
             "learn", "exp2"],
            ["--out", "exp3", "--config",
             _config("exp3_desk.json", N_s=2, dataset="data/normalized_auctions.csv"),
             "learn", "exp3"],
            ["--seed", "0", "--out", "poa", "poa", "--resolution", "2000"],
            ["--seed", "7", "--out", "equilibrium", "equilibrium", "--samples", "100000"],
        ]
        instance = Path("configs") / "instance.json"
        instance.write_text(json.dumps(INSTANCE), encoding="utf-8")
        runs += [["--seed", "0", "--out", f"auction/{fmt}", "auction", "run",
                  "--instance", str(instance), "--bids", INSTANCE_BIDS, "--format", fmt]
                 for fmt in FORMATS]
        rc = 0
        with contextlib.redirect_stdout(sys.stderr):
            for argv in runs:
                rc |= main(argv)
        return rc
    finally:
        os.chdir(cwd)


def digest(root: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root)
        if rel.parts[0] == "configs":
            continue
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {rel.as_posix()}")
    return lines


def run(argv: list[str]) -> int:
    if argv:
        root = Path(argv[0])
        root.mkdir(parents=True, exist_ok=True)
        rc = run_all(root)
        print("\n".join(digest(root)))
        return rc
    with tempfile.TemporaryDirectory() as tmp:
        rc = run_all(Path(tmp))
        print("\n".join(digest(Path(tmp))))
    return rc


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
