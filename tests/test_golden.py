"""Golden digests of constructor output.

Each digest pins a ring's canonical tables, label, zero/one indices and
element names, or a bimodule spec's four tables.  Unlike the determinism
tests, which compare a rebuild against a rebuild, these catch an encoding
that changes consistently everywhere.  To pin a new source, print
``ring_digest(parse_ring_source(src))`` on a build whose output is trusted.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from ringlab import gf, parse_ring_source, strict_upper_bimodule, upper_triangular, zmod
from ringlab.construct import T41_SPECS

# parse_ring_source(source) by source; commutative and noncommutative bases
RING_DIGESTS = {
    "zmod:6":
        "6b755fe590213fbfe6266c58ac3e896cf7fb19141d40968372aeb09baf1c41c0",
    "gf:4":
        "1af5511fcc1ce31d29302b6babc10597945164cf296a2c1d61b1145dec995571",
    "gf:8":
        "d83a018adbbdf61958a45df096d3ac7c6efd4558189dc2b059feb6fa6b8f0621",
    "gf:9":
        "718135bbfc0e8e7e87fe65e00dd9ce1a4b475f8f22a9ed8e7640dead49bd1289",
    "zn-alpha:3":
        "56628956be9b04f4f7abd5949209ed184f3c463e24c8632587a409d7b271074a",
    "zn-alpha:4":
        "bd5486dfaf24260931c9eb56b6c8ea8c9f2407d5aabcf3382a73e411d8fa5f0e",
    "zn-alpha:6":
        "f3ba700808b37ee6701d55a5ddb26a129939461c38a413a7f1ae86850c8f38a8",
    "product:zmod2,gf4":
        "a20de085c3632c6b9d25aed6c250a90974b3f13d33196ccb2ff2ead9d313547e",
    "matrix:zmod2:2":
        "499ce8f40ce975f77f80589381ac5bd0356c4207dbeaf903a36100ac2484501e",
    "matrix:zmod3:2":
        "071b3ac3befafd1c7fa98467460ab08622bcc42939e6c894e44d620bd00eef5a",
    "matrix:tri:zmod2:2:1":
        "b9fcc351770aeead42fe94b0aee2d948d82b8766aaf526e54f3edda58063d573",
    "tri:zmod2:3":
        "fce8e1e3ae06d766dca0f27be717c5574fe0b1a2758bc76bc607fc4985148359",
    "tri:gf4:2":
        "f1327df032f478ec229f377a42dd6a9a22a2a872b8f6e817711ed10f2d274356",
    "tri:product:zmod2,zmod2:2":
        "adf2c936d104c906d62e9b98b394978f18b400acf486d5f1b6e0b6af8cdbb1a8",
    "eqdiag:zmod2:3":
        "0daf5d89dbc859364430e5cc1c3851ea013fa25870358182ca947bbddf819729",
    "eqdiag:zmod3:2":
        "2eb12963ac12171a625df1d30652a575d10472480e296b0c274ac50e0d206168",
    "eqdiag:gf4:2":
        "1117a0c09a9192da128a7b13d6a9b14f8ab2633995ba08d1a0e36775d664abed",
    "eqdiag:tri:zmod2:2:2":
        "db1243d3ec336e6a48e9237440421a7c375f12778f322b20f55f7945c00f6ff2",
    "corner:tri:zmod2:3:6":
        "4cad1d1ae06c6975628a71901960a4c36a44a15e58d9c5b10a8fd40bc8135946",
    "corner:eqdiag:tri:zmod2:2:2:16":
        "e8e1a1411a33fba33c244a4cfefff3a0add49a370ce79342f9915e54faffec23",
    "corner:matrix:zmod3:2:2":
        "74ea7be58e569caf941a54017eb1c7da674d52bd2b4b262a0be6e62af13c5191",
    "jquot:tri:zmod2:3":
        "ea689dae9ed704e951a353a70a190257fef6adf87c7249482c9f56ba1d75751b",
    "jquot:eqdiag:tri:zmod2:2:2":
        "9a0d3afa9524cf9d2737482a53ab0c7da2c04ef547ed8aa9f974a91236078749",
    "jquot:zn-alpha:4":
        "ca5f6bc3bff3b2eb1ab537ab591c97a391d6234ef652858397608c570663e8ce",
    "paper:gf4-example":
        "0b530ca3616579d92b1e87461d86b2a3d8f7be0e557f80b42b1b3e39168296f7",
    "extension:t41-break-base-ring":
        "52572cae793131d72f1d28603d7917f5c3220d08db8a0b0df83a825e923a234f",
}

# strict_upper_bimodule(base, k) by (base, k), and the named harness specs
BIMODULE_DIGESTS = {
    ("zmod2", 2):
        "e60c0bdd7078aa5069a3f9623a354443b31ed180ff0301584b394a53af82b55a",
    ("zmod3", 2):
        "549d55e7b792438840b4c50f91db543526bab169b4e5f2259d143d5ebcea56b9",
    ("zmod2", 3):
        "a9dd6693505cb6505c2a7f679168bdb2ff63abdd3a7fff525880dd3981c2e200",
    ("gf4", 3):
        "31816db5e3e3ca6107d5279510f13abf121bb9d831264cf411661f4a4260347b",
    ("tri:zmod2:2", 2):
        "0669da18ac7383f7de3dd87eed8aab672a19005cfa5c3a710f8132e1eb8be9dd",
    "t41-base":
        "e60c0bdd7078aa5069a3f9623a354443b31ed180ff0301584b394a53af82b55a",
    "t41-break-central-action":
        "33d5580f004c3bb2237160265bf8609b400ecf2d5ee1d10c8b3868b7733bc4a0",
    "t41-break-quasi-inverse":
        "c61550f628b7a61408d1152253ffdb837e5bdacbdecaa54d8dfe4c68e1260ce7",
    "t41-break-base-ring":
        "dd2693a7f6636dc87d02b71af5e648e1dbe1e3c9a538d2290551675030a4dc04",
}


BIMODULE_BASES = {
    "zmod2": zmod(2),
    "zmod3": zmod(3),
    "gf4": gf(4),
    "tri:zmod2:2": upper_triangular(zmod(2), 2),
}


def ring_digest(r) -> str:
    h = hashlib.sha256(r.table_bytes())
    names = list(r.elem_names) if r.elem_names is not None else None
    h.update(json.dumps([r.label, r.zero, r.one, names]).encode())
    return h.hexdigest()


def spec_digest(spec) -> str:
    h = hashlib.sha256(ring_digest(spec.base).encode() + spec.label.encode())
    for arr in (spec.s_add, spec.s_mul, spec.left, spec.right):
        arr = np.asarray(arr, dtype=np.int64)
        h.update(repr(arr.shape).encode() + arr.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("source", sorted(RING_DIGESTS))
def test_ring_digest(source):
    assert ring_digest(parse_ring_source(source)) == RING_DIGESTS[source]


@pytest.mark.parametrize("key", sorted(BIMODULE_DIGESTS, key=str))
def test_bimodule_digest(key):
    if isinstance(key, tuple):
        base, k = key
        spec = strict_upper_bimodule(BIMODULE_BASES[base], k)
    else:
        spec = T41_SPECS[key][0]()
    assert spec_digest(spec) == BIMODULE_DIGESTS[key]
