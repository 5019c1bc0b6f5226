"""Hash every file the command line writes over a fixed grid of runs.

Usage: ``python tools/byte_grid.py CHECKOUT``

``CHECKOUT`` is a source tree of this project (its root, holding ``src/``,
``scenarios/`` and ``perfbench/``).  The grid runs ``advot.cli.main`` of that
tree in this process:

* the four subcommands x ``--emit csv/json`` over five games, 40 runs;
* ``distributed-sim`` under ``--schedule sync`` and ``--schedule roundrobin``
  over the same games and both emits, 20 runs.

The games are ``scenarios/paper_2x3.json``, ``scenarios/minimal_1x1.json`` and
three drawn by the tree's ``perfbench/generate.py``: ``dense_pool(5, 10, 7,
2)[0]``, ``dense_pool(20, 50, 11, 1)[0]`` and ``sparse_pool(11, 1)[0]``.  It
prints one line per run, its name, its exit status and one sha256 over the
name and sha256 of each file it wrote, so two trees' lines show which runs
differ.  Then it prints the run count, the file count and one sha256 over, in
run order, each run's name and exit status and the name and sha256 of each
file it wrote.  Two trees that print the same digest write the same bytes on
the whole grid.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

SUBCOMMANDS = ("solve-ot", "static-eq", "dynamic-sim", "distributed-sim")
EMITS = ("csv", "json")
SCHEDULES = ("sync", "roundrobin")
DRAWN = {
    "dense_5x10": ("dense_pool", (5, 10, 7, 2)),
    "dense_20x50": ("dense_pool", (20, 50, 11, 1)),
    "sparse_10k": ("sparse_pool", (11, 1)),
}


def _load_generate(checkout: Path):
    spec = importlib.util.spec_from_file_location("_grid_generate", checkout / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _games(checkout: Path, scratch: Path) -> dict[str, Path]:
    """Each game's name and scenario file; the drawn ones are written under ``scratch``."""
    generate = _load_generate(checkout)
    games = {"paper": checkout / "scenarios" / "paper_2x3.json",
             "minimal_1x1": checkout / "scenarios" / "minimal_1x1.json"}
    for name, (pool, args) in DRAWN.items():
        path = scratch / f"{name}.json"
        path.write_text(generate.scenario_text(getattr(generate, pool)(*args)[0]), encoding="utf-8")
        games[name] = path
    return games


def _runs(games: dict[str, Path]):
    """Each run's name and its command-line arguments, ``--out`` left to the caller."""
    for game, config in games.items():
        for command in SUBCOMMANDS:
            for emit in EMITS:
                yield f"{command}/{emit}/{game}", [command, "--config", str(config), "--emit", emit]
    for game, config in games.items():
        for schedule in SCHEDULES:
            for emit in EMITS:
                yield (f"distributed-sim/{schedule}/{emit}/{game}",
                       ["distributed-sim", "--config", str(config), "--emit", emit,
                        "--schedule", schedule])


def byte_grid(checkout: Path) -> tuple[list, int, str]:
    """Each run's name, exit status and sha256, the file count and the grid's sha256.

    The runs are those of the tree at ``checkout``, in run order.
    """
    checkout = checkout.resolve()
    sys.path.insert(0, str(checkout / "src"))
    from advot import cli

    if not Path(cli.__file__).resolve().is_relative_to(checkout):
        raise SystemExit(f"advot was imported from {cli.__file__}, not from {checkout}")

    digest = hashlib.sha256()
    runs = []
    n_files = 0
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for k, (name, argv) in enumerate(_runs(_games(checkout, scratch))):
            out = scratch / f"run{k}"
            with contextlib.redirect_stderr(io.StringIO()):
                status = cli.main([*argv, "--out", str(out)])
            digest.update(f"{name}\0{status}\0".encode())
            run_digest = hashlib.sha256()
            for path in sorted(out.iterdir()) if out.exists() else ():
                entry = f"{path.name}\0{hashlib.sha256(path.read_bytes()).hexdigest()}\0".encode()
                digest.update(entry)
                run_digest.update(entry)
                n_files += 1
            runs.append((name, status, run_digest.hexdigest()))
    return runs, n_files, digest.hexdigest()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    runs, files, sha = byte_grid(Path(args[0]))
    for name, status, run_sha in runs:
        print(f"{name} {status} {run_sha}")
    print(f"runs {len(runs)}\nfiles {files}\nsha256 {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
