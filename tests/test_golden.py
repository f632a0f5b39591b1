"""Golden SHA-256 digests of every CSV for small fixed runs.

The digests were recorded before the two games were merged onto one stage
engine; they pin the paths the benchmark's default-config digests do not
cover: the NPC game, priority mode and the iterated (non-rerandomized) NPC
baseline on a frozen channel.  A change that alters any CSV byte must state
the bound on the difference and re-record the digests here.
"""

import hashlib

import pytest

from ubeas.cli import main
from ubeas.config import assign_behavior_classes

BASE = "num_pairs = 6\nstages = 14\nrepetitions = 4\nseed = 7\n"

CASES = {
    "ubeas-priority-off": ("ubeas", "priority_mode = false\n"),
    "ubeas-priority-on": ("ubeas", "priority_mode = true\n"),
    "npc-priority-off": ("npc", "priority_mode = false\n"),
    "npc-priority-on": ("npc", "priority_mode = true\n"),
    "npc-iterated-frozen": ("npc", "npc_rerandomize = false\ndoppler = 0\n"),
}

DIGESTS = {
    "npc-iterated-frozen": {
        "class_pdr.csv": "8248bf8a5dac5acc155b7d2e28509abf3e824d21ef1fbd1dab75fa8f4a7ea9ba",
        "class_power.csv": "68b49ed950c767ae0db536faf8d80ded80063ed5203ed68e2cce7764daf9a43b",
        "long.csv": "ad2d270e8e5316b2a153aba011e3be20bd0add3607193b5a0d9fbeb912d5e1b6",
        "satisfaction.csv": "2082997ba3743b3e6a8a91e7f2e06a759266eccd811cc3cf2ff06838bbb8a983",
        "summary.csv": "0201099c8fb1206f49236bf6d53a6218998b70c296367ff85cfe5ab915e04318",
        "trajectory.csv": "20187a6a7a99524df8d6924de9d30e813b2ae30fcb41b044fbd515effdcc50d8",
    },
    "npc-priority-off": {
        "class_pdr.csv": "dca180322e6256224021508c4ab3a02d1568db6f1cc792c4049b7186385acf7e",
        "class_power.csv": "a1efc5e18fd71441d7c4141bdeaaee3132bae63c187237c0ef9452b2d4e226ff",
        "long.csv": "47a210391d4ef52ff53d62cd10012bcb14300778a850a749c4d166328202bef7",
        "satisfaction.csv": "2082997ba3743b3e6a8a91e7f2e06a759266eccd811cc3cf2ff06838bbb8a983",
        "summary.csv": "ea153ef82b18a930ae9fa5d58a9c8ce7699adc7a20de58b6bf0c8d01d2a8e3c1",
        "trajectory.csv": "bb81b4c97460a95fd0bee64a459dc61a26add35c70b85087cb2a236a51de523b",
    },
    "npc-priority-on": {
        "class_pdr.csv": "d733f8bda7cbd549f54ec07add89f959611b17c4d5daa10ec2af7d6b0770ff9e",
        "class_power.csv": "b26dd630dcd0fc17398c3067bcc1911fcc8622288cb587a04140de0a95207d72",
        "long.csv": "8272e77affa5f17ea4fb24d8e1e85f3dc48a9734d00a941247ee432d120e1e44",
        "satisfaction.csv": "2082997ba3743b3e6a8a91e7f2e06a759266eccd811cc3cf2ff06838bbb8a983",
        "summary.csv": "b933260a306001cabcb832742b0b1262cad43a3f28704eed8c82b5c9d3d57b9d",
        "trajectory.csv": "7fe2a6fe8fc0716183960f1d94c5a9e3ba5fbee9907dd63d1c1b9ca0bae22331",
    },
    "ubeas-priority-off": {
        "class_pdr.csv": "4289e2bb8b4696b9d0040900d1abf26c391e5adc31bce69f66163784d8577d20",
        "class_power.csv": "3e133fb026fa7bc4d8d5e0b03cb0e46135916aa4c3553dbd3170ecae3d3bd197",
        "long.csv": "0b49ab4039eecd4a8f0a93610b4667d5af20e86f359fd0ed7e70978f90ea159d",
        "satisfaction.csv": "bf08168feaefaacd87f738a7aaa9f9c85a54a07c906e72d8b6de6e08fee8c51d",
        "summary.csv": "a7ff313f02108d17049c2abed525e012199f81bebc8b6b3603c0fbc946c6c859",
        "trajectory.csv": "042d63c55582fc5b2c17946c57418ee81af9305f745889b363a70b736ed1b396",
    },
    "ubeas-priority-on": {
        "class_pdr.csv": "701862eb4bcb5ef28033fceadc84341520cccf705e7088c7f899cf2a89ba73ed",
        "class_power.csv": "14407959df662a0528625ddbe345ddf18860833a099d9ade1751cf0caf7cad7e",
        "long.csv": "314382c176b6b54b714c5b36d0f89ef05ec7675303d3ab4eb7ce5ea7706fb55b",
        "satisfaction.csv": "bf08168feaefaacd87f738a7aaa9f9c85a54a07c906e72d8b6de6e08fee8c51d",
        "summary.csv": "8eb49bd4405c0cb46b60c9b89109fa450ccbb49c219a32bcee4fb5ed83edbee2",
        "trajectory.csv": "edc5997209b2a0663e54287d9e31dbfbc761f2c8eaa1facb3df5b07f64a7c8db",
    },
}


def run_digests(tmp_path, game: str, extra: str) -> dict[str, str]:
    cfg = tmp_path / "cell.cfg"
    cfg.write_text(BASE + extra, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--game", game, "--out", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_digests_unchanged(case, tmp_path, capsys):
    game, extra = CASES[case]
    assert run_digests(tmp_path, game, extra) == DIGESTS[case]


# topology.csv of repetition 0 for the ubeas-priority-off case, recorded
# before the pairs' class profiles became bare behavior classes.
TOPOLOGY_DIGEST = "ca327c10026fd2c0c8b9ff3ad398265ac15ceeef4d8c2d074fed1b113988473e"


def test_dump_topology_digest_and_classes(tmp_path, capsys):
    cfg = tmp_path / "cell.cfg"
    cfg.write_text(BASE + CASES["ubeas-priority-off"][1], encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--dump-topology"]) == 0
    assert f"wrote {out}/topology.csv" in capsys.readouterr().out
    path = out / "topology.csv"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == TOPOLOGY_DIGEST
    rows = [line.split(",") for line in path.read_text(encoding="utf-8").splitlines()]
    assert rows[0] == ["entity", "x_m", "y_m", "class"]
    assert [row[0] for row in rows[1:3]] == ["bs", "cellular"]
    behaviors = assign_behavior_classes(6)
    pair_rows = rows[3:]
    assert len(pair_rows) == 2 * len(behaviors)
    for i, b in enumerate(behaviors):
        assert pair_rows[2 * i][0] == f"tx_{i}" and pair_rows[2 * i + 1][0] == f"rx_{i}"
        assert pair_rows[2 * i][3] == pair_rows[2 * i + 1][3] == b.label
