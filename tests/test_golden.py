"""Golden digests of constructor and analysis output.

Each constructor digest pins a ring's canonical tables, label, zero/one
indices and element names, or a bimodule spec's four tables.  Unlike the
determinism tests, which compare a rebuild against a rebuild, these catch an
encoding that changes consistently everywhere.  To pin a new source, print
``ring_digest(parse_ring_source(src))`` on a build whose output is trusted.
The catalog digest chains the ring digests of every ``default_catalog()``
entry in order, so the assembly of the catalog is pinned as well as its parts.

The analysis digests pin the verdict JSON of a sequential ``ringlab verify``
run and each catalog ring's ``ring_report`` (predicate values, witnesses,
class sizes, radicals, the unit-shift radical set and the spectrum), so a
refactor of the predicates or radicals cannot move any of them.  The ladder
rings of order 64-512 get a report digest too, under a lattice cap of 1024 so
their spectra are computed.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from ringlab import cli, gf, parse_ring_source, strict_upper_bimodule, upper_triangular, zmod
from ringlab.construct import T41_SPECS
from ringlab.verify import ring_report

GF2_7 = "product:product:product:product:product:product:gf2,gf2,gf2,gf2,gf2,gf2,gf2"

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
    "extension:t41-base":
        "ec9362021f5bee6a691b171b0693c1fd16e14145c82c9153b7ebd814b7a0c5c9",
    "extension:t41-break-central-action":
        "ecec04f2ad4bd16b938701755dcbfd8ebca5e8d48810e5267299897a5acf34fd",
    "extension:t41-break-quasi-inverse":
        "b4fa15be8526774b3bc83995cd1502fd2ccf1e655b40bc076855ad20ea0fffc4",
    "extension:t41-break-base-ring":
        "52572cae793131d72f1d28603d7917f5c3220d08db8a0b0df83a825e923a234f",
    # the ladder rings of order 64-512; GF(2)^7 nested, as chained products give it
    "matrix:zmod2:3":
        "a1e627f218905aee0d5b2e9244751ec9aac38e4e8a2e7caf1c3604ff6d29027a",
    "eqdiag:gf4:3":
        "21a0da9577c600b22fc8d18f800b1ab4fda2ada132ef2289621e561ac4b85af0",
    GF2_7:
        "d24817285bc8ea44666e819c6c2ad805abbeaa01c9fd21ab172a0c80f70ef469",
    # matrix families of order 256-4096, the sizes the gathers of the builder
    # are tuned for
    "matrix:gf4:2":
        "dcdda794fbaa4b181a4a26b2b5113f1b30264a9d11b479af0d5c69fce114f6b3",
    "tri:zmod3:3":
        "d15975b124d3bdcd6d92f618c5cf52c2de2893289899fee187b87a03fae75b9d",
    "tri:zmod2:4":
        "b02fba490bad7e645e7f8b1fbb9ccebccbec1c1a377ba4f95576877ee7906ef2",
    "tri:gf4:3":
        "bfa166497ad67d19552dd6fefa1908bb5e417926448fff539b2f44683772d45d",
    # the largest product the default cap allows, order 4096
    "product:zmod64,zmod64":
        "e2528d17ff8edf4733da9a2393ff10e5a4aa51cb688b64b65693556c9eaeecec",
}

# digests whose build takes over a second run in the large tier
LARGE_DIGESTS = {"tri:gf4:3", "product:zmod64,zmod64"}

# sha256 over the ring digest of every default_catalog() entry, in catalog order
CATALOG_DIGEST = "48b7b57bdd3c4046b793b05f5837965c24df20074ab049602dd8b864337333ed"

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
    ("zmod2", 4):
        "64c70495a79262207c0daba50f8d5f7a522e70a5d97d38fd3e4e364f4b20a1ca",
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

# sha256 of `ringlab verify --format json` stdout, with or without `--jobs 1`
VERIFY_JSON_DIGEST = "567e42a2671ad862ace0eb87fccc3282c744c6d8022679f18bdf7d4abbd37c7f"

# sha256 of json.dumps(ring_report(entry.ring), sort_keys=True) by catalog provenance
REPORT_DIGESTS = {
    "zmod:1":
        "9d198a3ab448ce29183e30c14771b042e510536d831764babd77c2fcc5f0165c",
    "zmod:2":
        "1aa7d8a83e2a05ea01066445a820beee5db107356fae7ad6ab7ef2dce3bfaddf",
    "zmod:3":
        "b4a030f832f60acc911b8ccfeaf3555ef12a4240846b28ae455f64a2ee543759",
    "zmod:4":
        "89f74e1afffe714290b144d1f84bdad242018f5eddc652297f69753f626e262b",
    "zmod:5":
        "e153e12458b396995c0c7131edd1c8f477aca70a1d54b78c2b341676c8ff6ebb",
    "zmod:6":
        "24628f862d897803c479872784c0cb5f3f3a3337988f009e833891a9be15edc7",
    "zmod:7":
        "715398eb826af7cbb30b4f4281960901334291870fe8f7ed0d5be6275e078ec4",
    "zmod:8":
        "0fed475ab48ce1859786c9b59fadf077d1050324be3345e05e560d183b5bfbe1",
    "zmod:9":
        "838058ce14ae5edff7eb506ec788c614f24558effb08c2cbdd19a7f4ef959291",
    "zmod:10":
        "d5c042b8978db1e66fb7bd467026ddfc379319773da54654b77537c74aa1f7c6",
    "zmod:11":
        "31ae7a78debae163004a8a09c3b915c15597b3cc32c60b0289d54b5d460ceb43",
    "zmod:12":
        "03e282be5f0d68a611d524e21ab3672cfdcb25425516f7a50fbab2b53ff70dee",
    "zmod:13":
        "4442ecf7957531397d61c1c580a03aaa1666b9c2c9a70634872a2f7b4a1d045e",
    "zmod:14":
        "a98d885cdb283f226454a8c89ff5ef36da530051b2be890eb334ebf6e886de2f",
    "zmod:15":
        "4a9fe18608897d830320865c54a05ce71d5934db0f418ce1c683431e422e4ed1",
    "zmod:16":
        "0a191b39838382281a4418573150090f8c45711132c00bc6bf9aabf7c960468d",
    "zmod:27":
        "b9b8e7208dc3a08398d69115f7516007044567e7df6eb19ad47df8fab75b36f4",
    "zmod:32":
        "63ac2cf94a6fded0e3aa5db98a6ba16b3a3c03a55c175f7c644524df7149a267",
    "gf:2":
        "80a0b042267069ef4e1bfc785157032759bdc451144b2ac5b33626f2774b90fe",
    "gf:3":
        "8691e06c674fd142668782f00b2dfe747da92d935f205a5b196820c197de352d",
    "gf:4":
        "ac995d7176b40c0b093d7935964320cfb90736b74835361d8957992f8193236b",
    "gf:5":
        "a14edf473753fe1c33c6f8c6bdf33263eed45d8c243111c620c576cc5b4bb618",
    "gf:7":
        "84152885a7b16ff3ff2922687417a21041e840d6217d92d58e750f72e24fca6f",
    "gf:8":
        "110e807f010ca30620fc300085704899111a4dd6a78c11ef1c062b7500585e0b",
    "gf:9":
        "7a62ae254b4af65d61c6b59c9b3065364cadc8c40853a39a1d5b89b4a52ea1ca",
    "product:zmod2,zmod2":
        "d2fd2921bfc0d20c6afa66dd14bd21081a4b61c86cc24c82dda744c90571f996",
    "product:zmod2,zmod3":
        "1505d492ba9a94268a4bcce64a1a217f9024b5d79f2ae1feafb383debe49f329",
    "product:zmod2,zmod4":
        "847e29b62d0351cd83d5d5bf766245e3f56acf16e31dcee80fc833c8cf558e5f",
    "product:zmod2,zmod6":
        "a240e606cbd3eefe4a638c7d1b5c757e32f72cf7d37bea335f9620d1dad1a658",
    "product:zmod2,gf4":
        "c9f995af9ce272012a1311d36064dea55cbf1912367188bccf6b7f8f0d5fd7bf",
    "product:zmod3,zmod3":
        "a40de435720266085795df18ee5aac26f462076cd33518e39deb5edaf8633afb",
    "product:zmod3,zmod4":
        "bfc1291020882d38c790ef85651f91cc4cc3b071cc06e6944bf66238f909dc33",
    "product:zmod3,zmod6":
        "ff94ab2ee76ac4c57dbba1fa3e4559809a2141f14a9664e0096c84b4495d5b21",
    "product:zmod3,gf4":
        "2f7f1c4dfcf50e91703042be20f5d99243fdcbe61edb69fcf650ef210204375e",
    "product:zmod4,zmod4":
        "59ad1a19ff5785b807191e9921b93ebfff4ccf510869430b8c066bd6fe769113",
    "product:zmod4,zmod6":
        "f4e0403e4e73877c93d1ede1853437a85dfdf95023ab6fdaeac6fd287bd4f8d4",
    "product:zmod4,gf4":
        "83d9d61884653db11677c965ed115026700b93f8d1197e7d0353c2ac64201a5e",
    "product:zmod6,zmod6":
        "ed537bfda7c0f8dda09e4a5a7852581473e2faba8a7f2d8f3b7bb3d1608e78d7",
    "product:zmod6,gf4":
        "94097453d31ecd4eaaee3954faa3072bb515d6f76832ada621b7353450821e79",
    "product:gf4,gf4":
        "1927a0a8d21324074c715a7f7991dacd5ad2d543afd0fd6b490ed9c0de36e44b",
    "matrix:zmod2:2":
        "276582cd816c42db3da83864069136d5211d6ca4f6f19d41c9314de5ffd85bc9",
    "matrix:zmod3:2":
        "08290b8261c4155a9df557a039856b6fa5a8bd239ae26026cfc0748931f4daa9",
    "tri:zmod2:2":
        "3511faed5b771edc39c7b656df5eb516ae97710d634e8168900dd6e6cca3cfc4",
    "tri:zmod3:2":
        "b788cb0684edb9a068e0cc028f835d354c12d9f62fba6bead3ae14b34c9b9230",
    "eqdiag:zmod2:2":
        "84555a308309ba20ae58a70af5e3258ea6cae039ff439178a0937720e4fecec7",
    "eqdiag:zmod2:3":
        "b6761b8a9789802968176c00934162498262c75ab4d9e18c3e56a686a4b3488f",
    "eqdiag:zmod3:2":
        "ba53fe4ac61520b62e7a7bcf1c921fcd552dd496e127798a437a7a68d4f4d3e1",
    "zn-alpha:2":
        "75faca14ef644d6164c31a82cc139e72f7e9fbbd061c98bf1fdd8f07d7b21b8d",
    "zn-alpha:3":
        "abf6a51b237ab5a15daa24eea6e7807852f4b3ce3cc78984eb381b02ad7d11a3",
    "zn-alpha:4":
        "4f1e63b9b63456ca84a721624b9032c0674a0ebeb1efd286b41bcce0a3dafa2b",
    "extension:t41-base":
        "fad1a3453df450dac61b22529a436a4ac70e8acdf64ab4cea8805d83ba838bc0",
    "extension:t41-break-central-action":
        "e32d835949ed86eb053bd1abaeee136143a3876c42a1c20f8905908cfcd43201",
    "extension:t41-break-quasi-inverse":
        "3619681cce3339eb0e064b47142f0ff634616c56dd239be99055604e86875536",
    "extension:t41-break-base-ring":
        "2a656ad43be04e46243394d2a6c0cdb0642c22d3896d40999e542abc225919a2",
    "paper:gf4-example":
        "78acc9718435c75134c360ee41ed308a02f10ba39a214433c8980516f2619679",
    "corner:zmod:10:6":
        "b03b52b7fa22bafc105b10c6c23691f079c20f1213b72f1a4a63dc3b5db1ff77",
    "corner:zmod:12:9":
        "3a05157c54587b52419cb1db4ab614fbef51a2f1d43cbc1c8d26e995a10c23ee",
    "corner:zmod:14:8":
        "446247e474db493dd57033be3efa5a26dceab7d81075959457f7eca353f0a9f7",
    "corner:zmod:15:6":
        "e348e73eba52776bf76eaf14e84e22192f2423790962875e30b31ac4f109a506",
    "corner:product:zmod2,zmod6:10":
        "22f0a69f972c626c3a68c2417f7f13e634665209bb12e82e5be8da1ce5140eab",
    "jquot:product:zmod3,zmod4":
        "9f3440b8f6dfe49c4287b24125dcb03036353605fb01e4619c37d370f328158d",
    "corner:product:zmod3,zmod6:10":
        "12d496db675ab21247a3ef8c3cc6a474c79ca7c7646b237f4b733b75d1230aeb",
    "corner:product:zmod4,zmod6:9":
        "3779b9ff576f3db2a667690741c0b78a69ae66d8aafd4803789623a6850576d4",
    "corner:product:zmod4,zmod6:10":
        "6dbfe80200b82fdcc8f4c365b810524e41c1a41d4ea17b327844d3d63673a9ca",
    "corner:product:zmod6,zmod6:9":
        "beed71b64f96f468a54294e51bc2548f9ce7dee22a43a78b44532c81b9bb87a7",
    "corner:product:zmod6,zmod6:10":
        "1512cdf39cbc90c008d03eb96dada68cd49109ac8aeb8b8a0e9c58e8b36430f2",
    "corner:product:zmod6,zmod6:25":
        "2baf55dc9bffea5a13ef0ced69c417b8fc03c071629dfcd4f0e05402696b999e",
    "corner:product:zmod6,zmod6:27":
        "1d7005494f0b18f78905febca5bce4eddda8da5ad360ed51f992fa65ac2fdfed",
    "corner:product:zmod6,zmod6:28":
        "a859827ac04ac73146c45856440444ea7f66745125f58526d1116f7aeca1bbe5",
    "corner:product:zmod6,gf4:17":
        "d215acf3aa334dd3eec2e3c0e5da0d88ccf541153e6a1248a745aa1fc3d8e57a",
}

# sha256 of json.dumps(ring_report(ring, lattice_order_cap=1024), sort_keys=True)
# by source: the ladder rings, whose lattices the default cap would skip
LADDER_REPORT_DIGESTS = {
    "matrix:zmod2:3":
        "335ea28848d8e9b36c120ffabb3feb26fa8a345efeb78d3940bd3d2f4f152aac",
    "eqdiag:gf4:3":
        "ab931e48153de12ad1ccbab5d26cce6701c7b3cce01d68931fb48bdd1f9de37b",
    GF2_7:
        "8752bfb83191a51ff98aab775567c22c5de41f779c546fcf7361426b502632e0",
    "paper:gf4-example":
        "78acc9718435c75134c360ee41ed308a02f10ba39a214433c8980516f2619679",
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


@pytest.mark.parametrize("source", [
    pytest.param(source, marks=pytest.mark.large) if source in LARGE_DIGESTS else source
    for source in sorted(RING_DIGESTS)])
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


def test_catalog_digest(catalog):
    h = hashlib.sha256()
    for entry in catalog:
        h.update(ring_digest(entry.ring).encode())
    assert h.hexdigest() == CATALOG_DIGEST


def test_verify_json_digest(capsys):
    assert cli.main(["verify", "--format", "json", "--jobs", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_JSON_DIGEST


def test_verify_json_digest_default_jobs(capsys):
    assert cli.main(["verify", "--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == VERIFY_JSON_DIGEST


def test_report_digests_cover_the_catalog(catalog):
    assert [e.provenance for e in catalog] == list(REPORT_DIGESTS)


@pytest.mark.parametrize("provenance", list(REPORT_DIGESTS))
def test_report_digest(catalog, provenance):
    (ring,) = [e.ring for e in catalog if e.provenance == provenance]
    text = json.dumps(ring_report(ring), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_DIGESTS[provenance]


@pytest.mark.parametrize("source", list(LADDER_REPORT_DIGESTS))
def test_ladder_report_digest(source):
    ring = parse_ring_source(source)
    text = json.dumps(ring_report(ring, lattice_order_cap=1024), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == LADDER_REPORT_DIGESTS[source]
