"""Committed manifests replay byte for byte.

``tests/golden/`` holds the manifests and outputs of a handful of command
runs, written by an earlier tree with ``--seed 1`` and ``--no-timing``, each
zoo problem at its default config with K = 20 and T = 3: ``solve`` on every
zoo problem, one ``ablation`` (basic and frequency 3, two cell manifests),
one ``clean`` and one ``check``.  The test replays every manifest on outputs
it has deleted, so a change to the manifest format, to how a run is read,
or to any number that a run writes fails it.  Regenerate the set only on a
deliberate format change or a deliberate bit move, in the same change that
regenerates ``tools/bitdump.txt``, and say why in CHANGES.md:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import json
import shutil
import tempfile
from pathlib import Path

import bilevelopt.cli as cli
from bilevelopt.problems import ZOO_DEFAULTS, ZOO_NAMES
from test_cli import snapshot

GOLDEN = Path(__file__).resolve().parent / "golden"


def write_golden_set(out: Path, configs: Path) -> None:
    """Run the commands of the golden set into ``out``, their config files in ``configs``."""
    def config(problem):
        path = configs / f"{problem}.json"
        path.write_text(json.dumps({**ZOO_DEFAULTS[problem], "K": 20, "T": 3}))
        return ["--config", str(path), "--seed", "1"]

    runs = [["solve", "--problem", name, *config(name), "--no-timing",
             "--out", str(out / f"solve-{name}.csv")] for name in ZOO_NAMES]
    runs += [["ablation", "--problem", "hyperclean_synthetic", "--freqs", "3",
              *config("hyperclean_synthetic"), "--no-timing", "--out-dir", str(out / "ablation")],
             ["clean", "--ntr", "60", "--nval", "60", *config("hyperclean_synthetic"),
              "--no-timing", "--out", str(out / "clean.csv")],
             ["check", "--problem", "closedform_quadratic", "--seed", "1",
              "--out", str(out / "check.json")]]
    for argv in runs:
        assert cli.main(argv) == 0, argv


def test_golden_manifests_replay_byte_for_byte(tmp_path):
    work = tmp_path / "golden"
    shutil.copytree(GOLDEN, work)
    manifests = sorted(work.rglob("*.manifest.json"))
    assert len(manifests) == 8
    for manifest in manifests:
        for name in json.loads(manifest.read_text())["outputs"]:
            (manifest.parent / name).unlink()
    for manifest in manifests:
        assert cli.replay_manifest(manifest) == 0, manifest
    assert snapshot(work) == snapshot(GOLDEN)


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    with tempfile.TemporaryDirectory() as configs:
        write_golden_set(GOLDEN, Path(configs))
