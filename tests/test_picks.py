"""Fixed rewrite picks on the golden ladder.

``test_golden.py`` pins the optimiser's output files, but different picks
often reach the same circuit and map.  This file pins the picks themselves:
for each ladder circuit and pick seed (0 and the ``min`` picks), the SHA-256
of the event log of ``simplify`` (rule, removed, touched, parameter merges,
moves, eliminations and dropped phases, in order) and of the terminal
diagram (every vertex in insertion order with its kind, phase, position and
neighbours in adjacency order, plus the parameter registry).  Any change to
which candidate a rule takes, to vertex ids or to adjacency order shows up
here.

Regenerate (only after a deliberate change of the picks):

    PYTHONPATH=src python tests/test_picks.py
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Tuple

import pytest

from test_golden import CASES
from zxparam.circuits import Circuit, circuit_to_diagram
from zxparam.diagram import Diagram
from zxparam.rewrite import RewriteEvent, simplify

SEEDS = (0, None)


def event_log_digest(events: List[RewriteEvent]) -> str:
    h = hashlib.sha256()
    for ev in events:
        merge = None if ev.param_merge is None else (ev.param_merge.absorbed, ev.param_merge.survivor)
        dropped = None if ev.dropped is None else (ev.dropped.clifford, ev.dropped.terms)
        h.update(repr((ev.rule.value, ev.removed, ev.touched, merge, ev.moved,
                       ev.eliminated, dropped)).encode())
        h.update(b"\n")
    return h.hexdigest()


def diagram_digest(d: Diagram) -> str:
    h = hashlib.sha256()
    for v in d.vertices():
        data = d.vertex(v)
        nbrs = [(n, d.edge_kind(v, n).value) for n in d.neighbors(v)]
        h.update(repr((v, data.kind.value, data.phase.clifford, data.phase.terms,
                       data.position, nbrs)).encode())
        h.update(b"\n")
    h.update(repr(sorted(d.param_registry.items())).encode())
    return h.hexdigest()


def pick_digests(c: Circuit, seed: Optional[int]) -> Tuple[str, str]:
    terminal, events = simplify(circuit_to_diagram(c), seed=seed)
    return event_log_digest(events), diagram_digest(terminal)


# (circuit, pick seed) -> (event log digest, terminal diagram digest)
PICKS: Dict[str, Tuple[str, str]] = {
    "r6q60g-0/seed0": (
        "2332bb6c9cb24e12ca8e76c81558a5100beab6b0d449f16dfd83bb68d10ca3ae",
        "54bd78268fb7a04ae4e081bd38da9e43cfa72cb89def1a29eb5c0e1e0bfe688c"),
    "r6q60g-0/seedNone": (
        "ba355d491bc7a155fe8c89c6672f480c0c5408d2d9d0760069a58b0e72856218",
        "72e0ad15fef2091b8b284eabb9911d38a99df828829939e67b5d966d3dad40ea"),
    "r6q60g-1/seed0": (
        "03c155b27ad9ebf0b5bae26be3720c914bac53351cf185845264462f61754f93",
        "376628c16ae966b2122bad9f61b4d31227bc55935f2ced856e808aea148f87bc"),
    "r6q60g-1/seedNone": (
        "11441d6e1d3028d632fde06500a9ed485f7a7ff40f591287d784a054ea7eb883",
        "0c8c483fd357f7d6f796a2a651cd3109088694dba7759df5194aa393284fa637"),
    "r6q60g-2/seed0": (
        "4fa0125664cfcac3163083b8e5b656e5fc743d98409110f9b9421126e428efb5",
        "0073a11beadd74d858a4d31237533193dde00af4f2e188f12593493895e12d69"),
    "r6q60g-2/seedNone": (
        "d7af8cb64f02ec70a75e7bc69c6f6633acfd9c88c081e80cf9aa2ba9f93c8865",
        "09166d6aa3182b48dac2f2e16410bed6bc0093e9cdf08d60658ebcb0ecd0e41c"),
    "r8q120g-0/seed0": (
        "bed2711b2e8ef7e815700ac87c75c36b8f7b35d8e77c044c7d6321c7e3996bc0",
        "bff93ad28ba3e8e2c9f3f6268c21e506ab6608663a64ae16e6cd71b6a687aa97"),
    "r8q120g-0/seedNone": (
        "e77e08d9223c96dca2af1be1803d602bd3373c315264f4a172b7bbe0156d33c6",
        "decadafc4fcc5bc301701eb3ebac41667ab718f49e7ecf5736857097a225ba21"),
    "r8q120g-1/seed0": (
        "250a18f54ce1afdcc5b54368081f81c43effe1cc15c3546903e05d13789f8c3e",
        "39d16b33e635a5d70b9ef9a96f96e5544e6db6d8271f9816543db988ca5d7664"),
    "r8q120g-1/seedNone": (
        "84ad33caab67ee9d51687068076b92fdfb51c05650b01cd66ba7799cea795ed4",
        "21f3a1046b8662a71b0c88aea681d9c334a633ed30d4fd43e96964e35ab639f4"),
    "r10q200g-0/seed0": (
        "dc0a10a8cbcd9c3535346f0520e8070c622bf2dc4713331c0d34660a2aa3a998",
        "f304b42253c4c13ab667a82f7504a9787f7d59cb888c030b8c9a56e3cebc9486"),
    "r10q200g-0/seedNone": (
        "8b25030a61fa984df5eb8bc5af9b7fc3b1dbf21a46beec5ed743f07a8dcb1c78",
        "7ba7f8d9936486eef5ee40412bb6a04a36c494368300f356ad2033eee77999ec"),
    "r10q200g-1/seed0": (
        "6508807f943bf0774333cd4eb6174bc9d6b4d85bc38727246c286036a84105de",
        "05a3a1314c246464084671561687af18e2d997e1c92b27db44cd6e24cf20a9ef"),
    "r10q200g-1/seedNone": (
        "458cc2bb77fc3545cc68677138aa30879f89b29692b070b43db17d4a8bc7102c",
        "c6aadb85710a03afd8f5a9290855cc164fd293353e1c99c3b25541345eca067e"),
    "r12q300g-0/seed0": (
        "924d12fd98035410eaa19cc431956f9501eedae5e7e4aae958fddcb8cfdd8442",
        "2e8bc631296802dead6d02ee53a172597496040f9df835347f33f99a61665cdf"),
    "r12q300g-0/seedNone": (
        "b434d39eea797a5f46d9e833d10e4423295465dcc5360621fdd2c37bf130669e",
        "22412f6a93339954bc8b4c78bc8c6cd7673d55bafe8cfa8d4a192d8a971f78eb"),
    "r12q300g-1/seed0": (
        "97f485ccf343794f815a17399c4502b6fc6653770c7aed1f60e49ccc919d5d91",
        "0634ff971b9e5684e422d9ea42ab38679f369b713112f91f0b62029b39c1a12c"),
    "r12q300g-1/seedNone": (
        "caa6de7d3da72bfbefdb076190e26532354f482cb4fd2751f3e89739a9b67695",
        "e26d7205ffedc1f06442b12772a92dbd5ebbfc6ca8e07bd1cb5652e193c32408"),
    "p5q48g-0/seed0": (
        "982185193110ccdcb7619bb123de5122e7fdd21301e56cf691c9b3c294d9e821",
        "91b9e60fa741437f89ea5f48211b6e12c4ff1089e95e61bb5ee848aab0202faf"),
    "p5q48g-0/seedNone": (
        "b49bd256f163919a4fcc14594598095ce0f79f8be5f08f35d4cb106cf53e3abf",
        "829cc5ec48d1c86afa87063ef38afa5288edbdb06f8526430e3361d76d8b7f76"),
    "p5q48g-1/seed0": (
        "ed73b25537165a164b2ec24843d62a6afe90d8e2e7d41ae59620878a0d2012fb",
        "ee6de9fc2413bff2ffd6da55681252681c4cab1c37385b3b1eaeafdb87d75226"),
    "p5q48g-1/seedNone": (
        "8f9c2e1b61c4d1d9c5a74afe2594aa19de530f087a511a0848980507e6897a35",
        "eb8133cb8a92b7889132b9247b00d475200ddbb90126e9dd4a7908cbf05e97cf"),
    "p5q48g-2/seed0": (
        "c0f956c3c6c9c336e7ac5179d53156ad5ff768a913e355e63fc177ae06c79fb6",
        "0af5436a2311e1c221885db60e7a4890b7d1c055966521c1091855930e0344bc"),
    "p5q48g-2/seedNone": (
        "84389ca692b9c75ffcc21dea306426e0457bfb79ba5a5230f33527ff1b91f8f8",
        "67b46592b27b06a672d70bd1128151b74dccd893d559184c1292afdbea4bd366"),
    "p6q80g-0/seed0": (
        "43e5c67fe2788001d1fb8dcdf3b270a688227c51d0867cf16d2ea6154f02879e",
        "ea1b186917055ca7314e76e1d47f435c87abca5ade44d354c825b42c0c91a14d"),
    "p6q80g-0/seedNone": (
        "7678c4ab54397d3f1ba31e35851a4782f21cad1b5c4c5a30009c7944062dba22",
        "e8643e7ddd3c1c01d6fa6d0e240f564c00669ad9d049314018db9ded48e7ec10"),
    "p6q80g-1/seed0": (
        "1efbf15de7f13de097b773eb5b167e09b2030131bee75e9b28d45271c9b29898",
        "2dd12be98d21bc6c2847f870faa2924d2a5d097ab64d2c06e8a3e4c69f3d504e"),
    "p6q80g-1/seedNone": (
        "4f35934c4409ca512e98ade7b97deb6db38b4a620480790d6b6731e85cff2928",
        "ec5724c2d71505b28b862f6364b4bf63cad573bca9b727ff20d13468d89a1f1a"),
    "p7q100g-0/seed0": (
        "1d551ecc2015149747961abb0bd5f13865ceca917d33d26cd2398c60e5314247",
        "b050f183914cfb689c047b156b7990e9da65ae1b98ef6e93e2f2cb351b229436"),
    "p7q100g-0/seedNone": (
        "ea3090af095e1d27635f6d1f1fa14f3986f77442af11e17a0f4ad86169992822",
        "f99267ebee78f7852809b5fb7863534e1c56c3bd07146d19c8ff62cd8b85fe91"),
    "p7q100g-1/seed0": (
        "6baca4db4326c6108d59209a77a320f26aab49f3b11098cca81fd378d3e5dbab",
        "cd661385d7a884bc48f5087d02a5f3fcdd60248c3fe1088aec017b166dd9c0df"),
    "p7q100g-1/seedNone": (
        "17baf4deb7066581761ce11ac5dc255790875902743b3b48098ddb562daa9632",
        "7155554c336ca407d15c456c67edbe3aedebf58b6e4872b866d0ee7d75f5cd8a"),
    "p8q120g-0/seed0": (
        "3bf3ff1b35a59e7973b3174950596d488e862d69ae530caf457e5f32f42ccabe",
        "c9f37e5ec2182d738c6ce354532d0ab657cb84d1e209d63bbfbef5aeb6ba8293"),
    "p8q120g-0/seedNone": (
        "c494b6c35a0c188cb138dd8ef48a742505dbc7e730f16c16f43325bdc8787cbd",
        "e09291efa6d4f4acb5a1783f83803a128549d52e6c68735b9cbb68d6b0df4f5f"),
    "p8q120g-1/seed0": (
        "c69878c0ed1eb965729829463fc4aa265648d0cdbeb1175836588b7ee4ab28a4",
        "e3e5a67e98364d07ded0660315d0b4860c6f189a92044621308bf88c784e1d54"),
    "p8q120g-1/seedNone": (
        "10e7fea63f9d1440df5e665df09b348e85f29c370f882239199981bfa997ee83",
        "df3b294d929f403ec879ac199154a15333e83d7307e2b72639cd9d233964877b"),
}


@pytest.mark.parametrize("seed", SEEDS, ids=[f"seed{s}" for s in SEEDS])
@pytest.mark.parametrize("name,circuit", CASES, ids=[name for name, _ in CASES])
def test_rewrite_picks_are_unchanged(name, circuit, seed):
    assert pick_digests(circuit, seed) == PICKS[f"{name}/seed{seed}"]


if __name__ == "__main__":
    print("PICKS: Dict[str, Tuple[str, str]] = {")
    for name, c in CASES:
        for seed in SEEDS:
            events, terminal = pick_digests(c, seed)
            print(f'    "{name}/seed{seed}": (')
            print(f'        "{events}",')
            print(f'        "{terminal}"),')
    print("}")
