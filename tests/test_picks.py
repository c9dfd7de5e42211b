"""Fixed rewrite picks on the golden ladder.

``test_golden.py`` pins the optimiser's output files, but different picks
often reach the same circuit and map.  This file pins the picks themselves:
for each ladder circuit and pick seed (0 and the ``min`` picks), the SHA-256
of the event log of ``simplify`` (rule, removed, touched, parameter merges,
moves, an empty tuple that keeps the pinned digests valid, and dropped
phases, in order) and of the terminal diagram (every vertex in insertion
order with its kind, phase, position and neighbours in adjacency order,
plus the parameter registry).  Any change to
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
                       (), dropped)).encode())
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
        "29267693121b92702e3b22dce81b109bfe1b32ee1f4693c5d19a16ae14eedeab",
        "b0c164721fe9ead11fd8a00197ba1ec5ee23da1460dcdd3f44487bdd3503efc6"),
    "r6q60g-0/seedNone": (
        "1ebf278b545f12e65518328a529c51f344a5062bd0bc8b77c75a8952d79d1bc0",
        "8e19c09ee98bdbb03124471dbd13f5f60f916241a2cf87ae6f44e6cc8f1e4d71"),
    "r6q60g-1/seed0": (
        "c5c55323ef5e164baf38c42ee4c452271b9ff8d13ee9615de994816054a8be44",
        "e2ff2f71311bdaba7210867dfa9d724c34313e630d05de9d8a0e792771a00aca"),
    "r6q60g-1/seedNone": (
        "5bbc6f1b1bfdd153425dbf447c14c4aa689ab7b19d33a3c27670ea097e17f247",
        "7f58b43144bb04d6210f548a9e59a5da4d7a9532587e062c15efd3420fee19ed"),
    "r6q60g-2/seed0": (
        "9555ebd6efa51a2e2fff768518017eed07096b538f572fcce337fd7a93c95961",
        "bd8fbdbd77ac4d16eaa1b89d68d2e92082972db2fef5cbd80d70dcf1f5bfb733"),
    "r6q60g-2/seedNone": (
        "a5438a74ffa6dea8267b6f05eb655ae5bb3edbde0b7d84e300800c1902e60c7d",
        "a5f7d7cdfc4e8de3c95040a6530752ec70a2737ed9e5286bd7533aeb843116b3"),
    "r8q120g-0/seed0": (
        "f585334c7d918ddfb41ed52be5826b79a5d36a89a2d798b6523554de47a07d54",
        "c39603421b4b634f74b42aaf1f4092ecf54defdf8cb75fddf69cf68feeab1f5f"),
    "r8q120g-0/seedNone": (
        "b4d3ae254db8cad0e29b70694a54a0d25cff4e4006f0ef91296365b12d8910ff",
        "eee35f511bec511d849ec78d745f294b3984cdff26a77b25e922949487ef3db5"),
    "r8q120g-1/seed0": (
        "38b8f7b3ad3fe14c2275092782ec35d787e2658134033de5eabfbc3e4d9da562",
        "c03bf5dad259bdb18e11088a5f72a9e6daa29e2a85c366128baf0b247e24c021"),
    "r8q120g-1/seedNone": (
        "7fd9955c17beeff2948d2d0d61b95f6e8ea8ec65a1fd3187397c12c6caaa7f4c",
        "204172561a87cfe401140b7a37caa6e0f3aaebde6908c7ee1bd4e224b2a9e006"),
    "r10q200g-0/seed0": (
        "7b77f88252e6b3c856809cf9c06fe1a5ce5f0b10ff7f20799c1cd186b220e3f8",
        "9d0001e7314d726d240e0b2155db6cf8736fe68868585e55d96eaf4ee08e9ea4"),
    "r10q200g-0/seedNone": (
        "506c712f6de1dc2aa87ec59476a5657a2c83efb04bf27ab943889af76569edf0",
        "d9e17258ee6d6b7977554ee420d208f3adc7bbe531c1e0ac52745ce443215992"),
    "r10q200g-1/seed0": (
        "339dbd604d432ed10a1b98d8e90ddbfc0fe9d085002a9a2e36220138764e3f3d",
        "e01b8c0f642150004c4e1db3de330251deb31addd309970e8eb2c1326eabdc27"),
    "r10q200g-1/seedNone": (
        "6a88f1d0b9dac31ddfc15be6ddc51df28d21e96ff577b2254cfd23c695f129e0",
        "1212dbc7205572436655557a5851252d0a341548310c9caf0faa011a092e337a"),
    "r12q300g-0/seed0": (
        "c0eaef0f84c037af46780bf9a69b08d26390e0dcb9c8377aa43d5e7a322e6bd2",
        "5c86aee60cd372d8f5e985fd80a81cc4bad6aacf8b56a4aefecb6a90d4799ea6"),
    "r12q300g-0/seedNone": (
        "9ba53f798400ea008729522caceabc9f0eef3a6f609e8360f3a7d2c30e9259c2",
        "79ccc2d4e247965276f69836fd66d054d9a06643531825f88086c96d51c8d15f"),
    "r12q300g-1/seed0": (
        "618887e9e8f974523ce1708a3f106a5498c5e6594d3c1786f184d7e52ecb2261",
        "6a39dafaf218b6d862a75173a1907ee902ea25a7e661612691a808a29420e63f"),
    "r12q300g-1/seedNone": (
        "7873849ef439c5590df60cbb05e2128bcb6806786aa8e459b164081516c9ff03",
        "55ebe7236c3c4726bda80b4152be88e63546e25a33ce6ed1fbd6c83f5f61f56b"),
    "p5q48g-0/seed0": (
        "421daa703ed421c323e598646580cb762a6c22e999ba5258e8c97a7e5dbcaf62",
        "637e214bd711956cd2be37ae76dcc1fe308c1c9350ade18f755397578f5084e7"),
    "p5q48g-0/seedNone": (
        "b7cc2ba03888735be30c1fa3fdf30a651cfabb07e8d563f297cf7b59ad7d4a4a",
        "48d70d7332e6b2250558cbbd4f11e23105da61ca539c2e143f22f0818e849637"),
    "p5q48g-1/seed0": (
        "5b67d2c095f3d5ad35bf2c14e6885e4ee95a77221b24a7d8ccd0a4ce9a5f7f25",
        "b39db04064b732224c724b3f77448f2d63e4e6aabaff6e5360f4dcb2717d3774"),
    "p5q48g-1/seedNone": (
        "155eb79371b2d9ca4c3577ae28384cf742c04c32dccb6f2beee9e55590c46fe6",
        "3dd8166e045d558984337c0c3215a12c03112424fa620c4823f5f79394ccf008"),
    "p5q48g-2/seed0": (
        "9983eaca46051a4a09d1addfb0d2baaff995023fa06e5e2931a38acce06f23be",
        "e70b1241c6c184b68648ccebda7ef4d4b030ee78430f8edf73bf210181a07bf3"),
    "p5q48g-2/seedNone": (
        "5b5dcb9b68f42edd2105c2dddcf43d2fcca3d6a6b934333de6894d319f15aa61",
        "6559d983cd657b2b0294488d68bf3f838fe64f2294f1f9a434e9fbd670b69e6e"),
    "p6q80g-0/seed0": (
        "c5c326c34fe3fe1d56becc5d35dfbfc9accc477432a0c9e0d5676706280ee88e",
        "b8334d97e0d1b0a68c3d21a79b05384e2cbc6c58fdc40e1e810910943fc88920"),
    "p6q80g-0/seedNone": (
        "4ac3684946aa584b44cb2453585abc4440d350f88c8bc9739106e00d4fa111f2",
        "d623bfe40672d6d7254e0467c5130bf62f1541031ac9b6bfe3d1871be85d49ad"),
    "p6q80g-1/seed0": (
        "0fb1ffb9c92f09e64a64c2ec89f6a69ee746257fa630953cf3362af72dce4208",
        "b11dda4e128e2d55f130d84af149e67e9ec5e9c42ed4a28c66ae36ea6df23364"),
    "p6q80g-1/seedNone": (
        "db15de7558f8ec876d105da3b67417a6953a323b74484926c8aa21e3e7da6bd2",
        "5b419b973eb9c3a2bf840bc3ec46be6c34d3a5fc0bf2ae3af6ae7fb067cbf122"),
    "p7q100g-0/seed0": (
        "9ad20770083e4b64acdc39f08195f7ce73df00ae21e0b541038a9e32163e182b",
        "f79b0e81ce024fbbb58595eece96cd7b96b50ecdc73ccff27230e013b2d74e27"),
    "p7q100g-0/seedNone": (
        "70543ab59b2de7130b590bff04eed76fb60fd10ea9de97cfb90cbdd3b2fe9f44",
        "a464777e5873188500c3599abe680efc96a3dab1489147342c37734d6da6cea2"),
    "p7q100g-1/seed0": (
        "c5f79297f4cc93060cbad8831c4e2d1b21cee703ef17c00cab692bb7085e88d2",
        "48a096b392cc0608eb5aba00936b83069d43c6881a3a4cddfa2354ef39fca5f4"),
    "p7q100g-1/seedNone": (
        "2cce9fd8b09d7442b8130f05c788fb8da8bbad4ba1da18b74d2b71435a82432f",
        "89e163daa1c046b01ebf4141c300be809c324c3c204f493a9f03c0b7df19f5e5"),
    "p8q120g-0/seed0": (
        "4250578da8cb9de6bea8ffae1cb95b146d3e9a52c7c6831d6b2b22ba9573f201",
        "a189629251dbb404ed1e284070477b5b408d0187d692446a55abae497c378b85"),
    "p8q120g-0/seedNone": (
        "3a9545b49723410a3fa4f6a2ac22e0e4a226f1556e1b18217e8925ec415b5c57",
        "829a636271ce99979b77ea3ac9ccfb41a1c8ad4827dac2fe2085203620b9caff"),
    "p8q120g-1/seed0": (
        "a164a602aa570f2dacb9fb838ff42851da4d2a4a6788ee22e4728e8ec952622d",
        "37244e3ed6b7c0015449888d80f510cdc36536561554496f87b8fdf1fc92d405"),
    "p8q120g-1/seedNone": (
        "4a1d145d7bd61a93e5c58386ad840cad3f6b0a9668bc62b4bc5d8e64ec1937b3",
        "112d06e53d9815a870d3828ddfa525a4393f9eca89e97242c15abc3c4f77377b"),
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
