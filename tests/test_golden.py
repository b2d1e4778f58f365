"""Byte-level regression guards for the output of every CLI command.

The sha256 digests of `dumps_instance(hard_instance(q, c))` below, which are
exactly the bytes `choosability construct --q Q --c C` writes, were taken
from the implementation before the construction layer moved to
table-driven field arithmetic and directly solved incidence lists (commit
18d943c). They cover every admissible (q, c) with q <= 32 and a few larger
fields, including prime, characteristic-2 and odd-characteristic
extensions. The (128, 1) digest, of the largest instance under
`MAX_LIST_ENTRIES`, was taken from the implementation before each
incidence list was read from one row of the field tables (commit 64bc990).

The `bounds` digests are of the `--json` output of
`choosability bounds --range 1..2000 --c C` for C = 1..5 and of
`choosability bounds --n N --c C` at two large n, taken from the
implementation before the bounds moved from a sieve and linear scans to
closed forms and a descending Miller-Rabin search (commit 6adfa9f). The
digests of `choosability bounds --range 1000000000000..1000000019999` at
C = 3 (`--json`) and C = 7 (text), a range that does not start at n = 1,
were taken from the implementation before each step-down search kept its
last answer for the next row (commit 9d7d1fe). The digests of
`choosability bounds --range 1000000000000000000..1000000000000019999
--c 1000`, in `--json` and text form, a range where every step of the
bounds ends at a large integer, were taken from the implementation before a
range derived each input of the bounds once per step (commit d003e54).

The `exact` and `probe` digests are of the `--json` output of
`choosability exact --n N --c C` and `choosability probe --nmax 4 --c C`
with CHOOSABILITY_SEARCH_CAP=15, taken from the implementation before the
canonical enumerator moved from filtering finished assignments through
`canonical_form` to pruning non-canonical prefixes (commit 629ece2). They
pin the witnesses and the `assignments_checked` counts, so they also pin
the order in which the search visits assignments.

The `solve` digests are of the certificate `choosability solve` prints for
the hard instance of every admissible (q, c) with q <= 16 plus (27, 1),
(31, 3), (32, 1), (49, 3) and (64, 1) (exit 1, a Hall violator), and for
each of those instances with its last vertex dropped (exit 0, a coloring),
taken from the implementation before the Hall violator was read off the
matching's final search instead of a second one (commit bb1b448). They pin
the matching and every certificate derived from it.

The `verify` digests (text and `--json`, for the (5, 2) hard instance with
its certificate, with `lists[1] = lists[0]`, and with one vertex dropped
from the certificate's `violator_S`), the text digests of `exact`, `probe`
and `bounds`, and the `probe` digests of a counterexample report (which no
input within the search cap reaches, so `conjecture_probe` is replaced by a
stub) were taken from the implementation before the CLI built its `--json`
objects from the fields of the library's reports (commit 087e8a8).
"""

import dataclasses
import hashlib
import json

import pytest

from choosability import oracle
from choosability.cli import main
from choosability.construction import hard_instance
from choosability.formats import dumps_certificate, dumps_instance
from choosability.solver import colorable

GOLDEN_INSTANCE_SHA256 = {
    (3, 1): "8f1a5fd2541aad3e218b0314ddcd70ee984bc46da6fcdfec56a3fa1a4f23de5e",
    (4, 1): "f8576c9a0bdc91c25d426256b09944e93f7630ff142cdc01bc3bc9ddf0a6d885",
    (5, 1): "431c1326ab328c1cd1018d7632e5e6317b0696e57fcd1ca3bc69f1c4285060c5",
    (5, 2): "65f22ffe3eedcf1b8a2cb7a7d70041a6467ebc7a6f7910c4ea3ffcf4df28ae4b",
    (7, 1): "bae2df351c9262c3e041fc79d6b36612b82c357a523335ec60dd03f8252ad801",
    (7, 2): "2cdc959fb9024b4283f871fa9ab2031091bf86bfa36fcc137dcec5553a4bc468",
    (7, 3): "0f5bcde9c081cb5393ab5eb36986ba3460a41378779cf34806eb10aee9afbd1e",
    (8, 1): "d055ccaa4419a011e18610fc39d2e36f351ca20d8f6bbb29b1aceff85dc43a94",
    (9, 1): "ebd8c873d6defaa7c9f9ad8a9a9408ac88a035c26167f6467593e19778e58f1e",
    (9, 2): "37131d1c9916c3551fb75d912587ce88a788061818ffb062c392ea03a05a4287",
    (9, 4): "78a8bb6628cbb513df468ac4cc5c1ff5daf464daece84c1bf0adf858cc0e802e",
    (11, 1): "9f0dfac8940cca3a0998be175b5f52dc5e43fb79f567c274150d440d5217d9a4",
    (11, 2): "98b25ba294a3fb0137943a6aa2acec25c7e10f8e2baf09b7f08bca3c49edd44d",
    (11, 5): "28a24e3fb29f0a5349f9a6da410ab99bd06e571891d62aa2a8b4ab642df16dc2",
    (13, 1): "a036305deec2b4751cbb3d4aa4e08017971531723393ad087b8993763582fa73",
    (13, 2): "977ac770d11b059fe0f37b9ec0822c86afb7cab250e464815a574619a0aaf288",
    (13, 3): "d62544d228871474b40d4fcddab77001a154e265a1459e07f57fb604e27464fe",
    (13, 4): "7ea27dd0ac6f824eec675a12df89613f42eeb9292509ddd96bc060f50cf58e49",
    (13, 6): "ce7d66551c79473c2a8209d7afb9bc5f6cc717fbe7ad129ddbdd86880841b47f",
    (16, 1): "a4300e54d72348daff6e40d8b65dec76cdc38c7367e77977b8a0cd90486b4241",
    (16, 3): "ee618bf0f8ff196984250475b6a0ea91c9f505b1e9aafe6621266ab980c7d658",
    (16, 5): "62c259fb24f763b17b083b17561b2efb8e3913c11f2b8139ccdf5e160baeece0",
    (17, 1): "3dd401770c105049bd33841b0f4905778622ef01acb21351843e55b263627adb",
    (17, 2): "fdae676bbf597421225588759b7eeadcd59142b09f8e4801ea21a0eec02ed24d",
    (17, 4): "e334f58070dae6a936c16f3ae5b27e20c882eccf1f59ab42c30b7d4287898f58",
    (17, 8): "1fde429de48c8390aec1e330210df98bd5f7d785f4177724a266e5983c0383a3",
    (19, 1): "50dee71d0bb0fd81b44a27c73a54ae484427b0fde21769e9a8442743bc9fa972",
    (19, 2): "9adec509647f7608d553d339b1de37d573f3d5884229243d685da0bd779b69f6",
    (19, 3): "c330f014ecd7a77ec68cacd3547cf430879dbcc1a1906be29b01822c35dcadc0",
    (19, 6): "5ef481f90fa6369de87fb966ab9ebd3c63905e4c2c6be13f6c3979948d26328c",
    (19, 9): "bf59f6df56b741b9b8845496047e74bf4c7687680e182b384663aa899a9eb3f9",
    (23, 1): "2df07967bcd80ea81fe982701323037186a733d861f5c28432bf961252bb6aea",
    (23, 2): "ceb1b4641014f130b6e49fbcc577f9cceb946988e0433696f4feae8f71cffb83",
    (23, 11): "59e68822b4fdf14a994e0a722de061ada19198d00de6e4814a948ff3a1bbbec0",
    (25, 1): "7e6f49266ac166febdc012c4b91507cefceb402df29a63802d1969ead375e161",
    (25, 2): "ccb8b89721738b48e9849528a1a23ebb11b07abd0de64f21756efe92e1638c2d",
    (25, 3): "e8c12c9de68b8415f079aad926d45e25c059a2e2e60a91a65c8fc332f0f003ef",
    (25, 4): "b3aa86e78fe01d01c28327eb03219009c290e4b2366bdbae6de19d14e73022d2",
    (25, 6): "d319a527a7c7dcf21e076e446fccfcef7ef214120955993e637e0ef954144440",
    (25, 8): "046daf89ac85c8f711f82325e48051a78fc0a076fd2866861a6444bfe08a7ef1",
    (25, 12): "b3208fde07d57901cd4b201e620c967962c370354f9c768b6fd83e9b8fe2b949",
    (27, 1): "e1c44252db2c533b9a91df0da43befab4090a38e1a33ffe1951af2904c75a381",
    (27, 2): "7735fcb0fad8fb99aaf0bfedeac1855296b4a0eb10f84193574d446ba06ad8aa",
    (27, 13): "373733504ba7753bf3a517d647f2f6a0704102f2ede68591bd03d6207691bc75",
    (29, 1): "5be41cb65eb20dc70aaabc57d2beb7530a4f8399465c3194a46df9a91c52f11b",
    (29, 2): "d9091ae2a50c892e86f9bb7a7745444c781b4e234b2625c76b59b3858b4d56e4",
    (29, 4): "5776a54d4729dd2e9432570e739bf643dc279b7a53afc3dee132829c4914a452",
    (29, 7): "4df3e040b67413972cc7851e902a4dabe26c87bf11e2e2644c7b24fa2731cfb0",
    (29, 14): "6e27eda374c5200a77203f0aa31953a0373bf2a8057bd65ef1956a3d029e4b89",
    (31, 1): "4427275e3e89fc16d700e74fdfcffd4feb6456a07cd811ad0ff6c50d22db03eb",
    (31, 2): "530060b2b83a7694fc441d7e3f7165530b52ed03ae8670a718a6572836446ba6",
    (31, 3): "b136905ec51a5d37420b48412d68d37f6239041ec1da5876aaeb591c0323910a",
    (31, 5): "f2247343b1541fae3d2c9f02d603302268344570e320726723ff8f6638e9e90a",
    (31, 6): "06b375f459a99f8f37232f8bec93495dccf4d5b0123694a296d68f85148bcfb8",
    (31, 10): "d1351fddbca31949fc1492714afb1efa680f6be1731ad0d54acc4462df60dac5",
    (31, 15): "fd8622dfb57d562e1d179bc6aa02428adfe20b9ba83466d32de86de59e67d338",
    (32, 1): "9260f3920901175009fa8ebf6ba2e06af1fe77471e5a892cc30d13fae2c7c52a",
    (49, 1): "952eb429a60cd3704b6131d3817a3b2583de1af18bb0e9328e864dbe04d99aed",
    (49, 3): "514346fe83864dff89d121477bd6fd25510ade2e5e72bdeadbada2abf5401428",
    (64, 1): "e321e113d91df154f2be311353eb73c9652d4a2a29c3d2b0fd0133cccd392a0d",
    (64, 3): "c202ef9a2b24e1c1fb5242d21b47924397ebe1bcce4c2bd976920852ba0d3736",
    (64, 7): "29e0a5863e098306608406ec28483cc14e4d615e9a7e392f5ff389034d63870c",
    (128, 1): "7af1a1628b13ee75f07f70ff5ecda14294f854376bec4c0f2c4e1c41049241b2",
}


@pytest.mark.parametrize("q, c", sorted(GOLDEN_INSTANCE_SHA256))
def test_construct_bytes_match_golden_digest(q, c):
    text = dumps_instance(hard_instance(q, c))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_INSTANCE_SHA256[(q, c)]


GOLDEN_BOUNDS_RANGE_SHA256 = {
    1: "364152c7bf1810361026acde0093dbb70a144700c88c1340072d05e975581c93",
    2: "b8b2f58593578dc2ec9881adce0b9da2e7ac551a2c93541d077b7e518b7afc5b",
    3: "af98073e4c160fce4986b0dddc32809da05bcba53765f3d9cf9af14f07d7b76e",
    4: "9eb52cc83b175d7bf69457960f44fbf39c8cc7cc823c2eb74c4ec5d36c634930",
    5: "680ddd2e4b19961c23cf6dec818203036395ae81b8fc2b5b0ada1337302e3bd1",
}

GOLDEN_BOUNDS_N_SHA256 = {
    (10 ** 12 + 123457, 1): "9fc5ca66c6d8ac2a91f8123281340a2d0eae63de4baa873f769d564d3955f697",
    (10 ** 12 + 123457, 3): "4b2c44775c1c774746ff24ed8ae9e72debb402f6a674f0de3fcf72cd5d9e3bc1",
    (10 ** 13 + 123457, 1): "4955855054e2c20518e357095ff100eff911f65132cccb8a3d796ceeb8cd8202",
    (10 ** 13 + 123457, 3): "36ea2136097c4d3f10ff6e89143bd521d2776a966b825da151123fc3e4656a71",
}


GOLDEN_BOUNDS_FAR_RANGE_SHA256 = {
    3: "40c5b43b71d45d37322462d99022f1d383713f89886d841ba5d086e8f4e469b6",
}


GOLDEN_BOUNDS_HUGE_RANGE_SHA256 = {
    False: "917ea3c01ac6ca4a8d81950cb9c41dd16b02f66f2796dc7722477963bd373e25",
    True: "7977f2320355e832bba1a7150d81a387c50502030756cdfb653dd1842efa1bba",
}


def _stdout_sha256(capsys, argv) -> str:
    capsys.readouterr()
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("c", sorted(GOLDEN_BOUNDS_RANGE_SHA256))
def test_bounds_range_bytes_match_golden_digest(capsys, c):
    argv = ["bounds", "--range", "1..2000", "--c", str(c), "--json"]
    assert _stdout_sha256(capsys, argv) == GOLDEN_BOUNDS_RANGE_SHA256[c]


@pytest.mark.parametrize("c", sorted(GOLDEN_BOUNDS_FAR_RANGE_SHA256))
def test_bounds_far_range_bytes_match_golden_digest(capsys, c):
    argv = ["bounds", "--range", "1000000000000..1000000019999", "--c", str(c), "--json"]
    assert _stdout_sha256(capsys, argv) == GOLDEN_BOUNDS_FAR_RANGE_SHA256[c]


@pytest.mark.parametrize("as_json", sorted(GOLDEN_BOUNDS_HUGE_RANGE_SHA256))
def test_bounds_huge_range_bytes_match_golden_digest(capsys, as_json):
    argv = ["bounds", "--range", "1000000000000000000..1000000000000019999", "--c", "1000"]
    argv += ["--json"] if as_json else []
    assert _stdout_sha256(capsys, argv) == GOLDEN_BOUNDS_HUGE_RANGE_SHA256[as_json]


@pytest.mark.parametrize("n, c", sorted(GOLDEN_BOUNDS_N_SHA256))
def test_bounds_n_bytes_match_golden_digest(capsys, n, c):
    argv = ["bounds", "--n", str(n), "--c", str(c), "--json"]
    assert _stdout_sha256(capsys, argv) == GOLDEN_BOUNDS_N_SHA256[(n, c)]


GOLDEN_EXACT_SHA256 = {
    (3, 0): "c563706e1701ebc7e97a1d13444445ec8b0368055331746968b35c8257883922",
    (3, 1): "047f120e0db68701b0f277ee140839f709bc14b7fcf62bfb5a559186f9ee0c08",
    (4, 1): "7d6d14f6ddb9f82a82fe5d5c607e60d4b2645218db1a100d49a24bb5f6cbcd9e",
    (4, 2): "fd097f59b0b22c8f26f8fd4c799206f408a77f1f39f3123d7380fcfedd25d8c8",
    (5, 1): "75838d41ccaf95da3b4851784b331c33739188f07b68df20be42b6653cd10943",
    (5, 2): "a54b779f55e33c71ec7870a65d2dfdad53782f0674d35f45eb1314871f6a0556",
}

GOLDEN_PROBE_SHA256 = {
    1: "0bb99812b5f05db0cea5d89de1e8c8095b7bfa26d28b1a678b3aadb9ca1b21b6",
    2: "19d2f53398fb5d2000be65433469f60f44038149c84e94f9db14acb094f2bb0c",
}


@pytest.mark.parametrize("n, c", sorted(GOLDEN_EXACT_SHA256))
def test_exact_bytes_match_golden_digest(capsys, monkeypatch, n, c):
    monkeypatch.setenv("CHOOSABILITY_SEARCH_CAP", "15")
    argv = ["exact", "--n", str(n), "--c", str(c), "--json"]
    assert _stdout_sha256(capsys, argv) == GOLDEN_EXACT_SHA256[(n, c)]


@pytest.mark.parametrize("c", sorted(GOLDEN_PROBE_SHA256))
def test_probe_bytes_match_golden_digest(capsys, monkeypatch, c):
    monkeypatch.setenv("CHOOSABILITY_SEARCH_CAP", "15")
    argv = ["probe", "--nmax", "4", "--c", str(c), "--json"]
    assert _stdout_sha256(capsys, argv) == GOLDEN_PROBE_SHA256[c]


GOLDEN_SOLVE_SHA256 = {
    (3, 1, False): "66340652bb29c56152b76ae30773597e6948e3b507d1848e48e3c270a6a52caf",
    (3, 1, True): "d167b12dfd0147583622066d51485b7375dcdc471c467e14b0b437bb580c863f",
    (4, 1, False): "fb1c6c1cd2c413c8798f708e756e3427fae40bc7479bfaa3ea1ad906ee21c1a8",
    (4, 1, True): "24242500dfc0776003385bba781cd5bf3f76b09e93e1cfa671cd8b42367a4591",
    (5, 1, False): "41b2a68b98e0aed1507d24c562c0893140e2826b2f4b0410fd1bdaba6f1460bb",
    (5, 1, True): "6146957e4234742c2605f1f37430d760be1b7d3c1ef7fd7fe1e087de7b3b4afc",
    (5, 2, False): "c26892b7d767d6846025b47dcf10739139f7947e3525869226302cc767654751",
    (5, 2, True): "b4ce7f0ce75f9b33ec9c9f7c4592e17ee619a7eb2e3da05f1e6c01cd05c48322",
    (7, 1, False): "79d298047a6f49056ea140037070776c7ca3c4bab21492c67906d449b12298fa",
    (7, 1, True): "bffd3a34261902fcdb1b968cc072be36abee4bdd94bea5f1bcc9bd87330bdbc3",
    (7, 2, False): "41b2a68b98e0aed1507d24c562c0893140e2826b2f4b0410fd1bdaba6f1460bb",
    (7, 2, True): "78c5dcc6c4686f9bc9060a7080679f084648c59a87e377f7f5bec6ae25fde842",
    (7, 3, False): "3feafc95d7827a3965980700848a03afa226fad5cf0f126d8e577fc03873e7b4",
    (7, 3, True): "eabdf4ce28f059050f343a07440118239cbac77e573f8d7a89d8b6f71354c41f",
    (8, 1, False): "76a814fdb3206ab9bdb0b3f59bd1a78a263f2fc8ccc5cf6944ae69c6f375ba38",
    (8, 1, True): "fda128f9fc10b7e25255f7ffbc276531bf38f4e3ce051d8e08b753ad38bde634",
    (9, 1, False): "53ab7274090c2903174ce6ce12ac3b8df3770f42845d3f62bbd88e2d0c41a9c3",
    (9, 1, True): "9eb1af9a8c2c9d555ce972209e6be5977ee63438eab4ce000e7a8c2defd360ba",
    (9, 2, False): "0b9926bd4fe36e4ba2e5d2404a1253ca437a8416027dc81c4d61483bd3dace08",
    (9, 2, True): "56355657b58c83471a667c47cef242add12ce0b19923ed67ccc0efadbe801acc",
    (9, 4, False): "b6901ff7aa6bbff044f225acbb96ed49cc21ae04fce3311deb83064f4751a7bd",
    (9, 4, True): "4bbc3a178cc2bf56f4ad00ca09316c76875d74331db72d5ae45b63077d450e46",
    (11, 1, False): "182c26634be8a68045fb2afeb31a8986c13dc28d1641e2983c2ee384234e51df",
    (11, 1, True): "c54636337576342995837421ebedcf9214cd3445de9043720ff6c6b1dda40ca7",
    (11, 2, False): "e01a14bd8af011f07f72a385f5fd1572667e245c52b4a42ec408783d720e1583",
    (11, 2, True): "1610be4097ef1936d1c81c121e0e9b01fb0b691d05827bbe48c1705d39e20e7d",
    (11, 5, False): "41b2a68b98e0aed1507d24c562c0893140e2826b2f4b0410fd1bdaba6f1460bb",
    (11, 5, True): "b0c5b38d50dd0c3df1c0f575b07e641b9225e843523f52d9dd19f9a212e26816",
    (13, 1, False): "785dedaf68ada6211ea71be0e583d58230cc2a4126515438a3161dc21068d517",
    (13, 1, True): "b4c80ec44e776b0381586731bacfc5672be408933bc0373b1fb54a0fd4e7602c",
    (13, 2, False): "60610f23961564d52143ab81a5c7494d5825eeede7cd8386191ee29796f91c41",
    (13, 2, True): "2754c1ecb5fa47526afc69d62b3b7bfcbe0cd4099ca20af227c0184cbf195dae",
    (13, 3, False): "6abec7c647ec378c52594624450b8b39cfb52bb5e88c1cf5f17ee40833da1a24",
    (13, 3, True): "281546f3adb717fde655002c7ad92f0233a7a1ccdfc868689631af5f3697d1c1",
    (13, 4, False): "e832e77da63355278dd58e022c66c69c407df7bab42e7975447dd2828c11d85c",
    (13, 4, True): "a181bb0db884a030edeefd5661b83e360b9cb80575fd76efa6f6ea30860ea2e0",
    (13, 6, False): "b127589ae7fe21e5faf804e34d2c6b08e4f1c5cfa1a1b6faf445bfabeb4d8a3b",
    (13, 6, True): "f2578accbaaf0381cc19b358408faf1d462533e4af73d93994e71a42b8cb7e07",
    (16, 1, False): "538068a9397b0da3cc7a04a12ca6dbfb696a0466c7a865ad1a226c669bfc656c",
    (16, 1, True): "62a69a200efb33d387e57c46df7bc6173adc55c8a6200508a2387214bf73af31",
    (16, 3, False): "016b3db5d3b947f72feda061746e2de176c85718ce86d4850f687eeb4f32fd4e",
    (16, 3, True): "22758cf025cb29048585f98d2c97852f1b8ea19b9949a8f04a1c575db072bff3",
    (16, 5, False): "85eb9ff770f38875fa256f95f25f604d9a142f1592aa706da60782d11bef3c52",
    (16, 5, True): "1550c4e8137a5d79450eeb922424067442c7d7f1d1e7f15dbf29f4928e6c2f14",
    (27, 1, False): "10ced72d536fb319f9e67f87af5080b8d489ba78023306c218d9d00e16e2115f",
    (27, 1, True): "f435688a01f23a9f72d85e9a907751cdfe3116b4378cb0c395473255272f31d9",
    (31, 3, False): "d0397cc89b8c70cfff927ea550e6724e0de6f39f6735b74830735f375959f1f1",
    (31, 3, True): "85bfa3784028dfdb0c0fc21508427a5eb136453b4f3d1cc8594dd5aac650654c",
    (32, 1, False): "27ff2a15201a298b17677e8a1f644893d9f7e253dac4ca6100b0729423d12a02",
    (32, 1, True): "1fd4cf90d9e1d3488d94b133505099e027eb2b4b9ad3adabfd2debfc52a23270",
    (49, 3, False): "84ba3101d3191279c0564ee8704fdb98d865efa424de0304625277e598fef68c",
    (49, 3, True): "87420c4ddca64818238d2ab076a6ec4c232aa0baec9bc1e0c22c938de2cb5d7c",
    (64, 1, False): "86ad57a2c7348338ab0a611422030889b25ee1225db7387a5e326171251893b2",
    (64, 1, True): "1a746485e99ba08c108ecb2b1e5b4be1a98470ce803867dd4b60a121b6693feb",
}


@pytest.mark.parametrize("q, c, drop_last", sorted(GOLDEN_SOLVE_SHA256))
def test_solve_bytes_match_golden_digest(tmp_path, capsys, q, c, drop_last):
    inst = hard_instance(q, c)
    if drop_last:
        inst = dataclasses.replace(inst, lists=inst.lists[:-1])
    path = tmp_path / "instance.json"
    path.write_text(dumps_instance(inst))
    capsys.readouterr()
    assert main(["solve", str(path)]) == (0 if drop_last else 1)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_SOLVE_SHA256[(q, c, drop_last)]


GOLDEN_VERIFY_SHA256 = {
    ("certified", False): "6e8a5aeb97bf33567c56b4164fac1e2d456cdcc5a9e88b427c2161b005094d73",
    ("certified", True): "be2cdc27fad5e73a32b7e0d34836ce0db9317a5f3b5862431ee6fcfb08e69f67",
    ("duplicated-list", False): "ec25c8f4c85287a8826168ba1741a5ed7447d5495193f263b42b5acfa64a7552",
    ("duplicated-list", True): "98136dfde430d8f6dea981f3a9689b600ae8b838dbe6426f65f7552f32a9afea",
    ("tampered-certificate", False): "ea97aafa71e886f7130ca8983ea7794475641a2c728ca05bf3993335c5d0a9c4",
    ("tampered-certificate", True): "91f6040d8081816afecee480783936bec320a1d3422222942a868eb4103d9e69",
}


def _verify_files(tmp_path, case):
    """Write the (5, 2) hard instance and its certificate, altered per case."""
    inst = hard_instance(5, 2)
    cert = json.loads(dumps_certificate(colorable(inst)))
    if case == "duplicated-list":
        inst = dataclasses.replace(inst, lists=(inst.lists[0],) + inst.lists[:1] + inst.lists[2:])
    elif case == "tampered-certificate":
        cert["violator_S"] = cert["violator_S"][:-1]
    inst_path, cert_path = tmp_path / "inst.json", tmp_path / "cert.json"
    inst_path.write_text(dumps_instance(inst))
    cert_path.write_text(json.dumps(cert))
    return str(inst_path), str(cert_path)


@pytest.mark.parametrize("case, as_json", sorted(GOLDEN_VERIFY_SHA256))
def test_verify_bytes_match_golden_digest(tmp_path, capsys, case, as_json):
    argv = ["verify", *_verify_files(tmp_path, case)] + (["--json"] if as_json else [])
    capsys.readouterr()
    assert main(argv) == (0 if case == "certified" else 2)
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_VERIFY_SHA256[(case, as_json)]


GOLDEN_TEXT_SHA256 = {
    "exact --n 4 --c 1": "70835841802c5234c7e2de5c86a57e89542846101868e020fe53853325b041af",
    "probe --nmax 4 --c 1": "91ac141b156e9b30010180eceede1af5f4f07dfb1b21bf1fca3fcddf0689e61e",
    "bounds --range 1..300 --c 2": "eb8a5fe8e9e734b4e73bdf095f8db99cfa512708fcb510210ee98a0ea11552ae",
    "bounds --n 14 --c 2": "8b701e925f4a267d611339eed994dc2d7019de50bf0dac9c89cb728663894e77",
    "bounds --range 1000000000000..1000000019999 --c 7":
        "ca2e21c3f922bb0c7699319e485f56a610e7b358de61e72f59300084a1ee938c",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_TEXT_SHA256))
def test_text_bytes_match_golden_digest(capsys, monkeypatch, command):
    monkeypatch.setenv("CHOOSABILITY_SEARCH_CAP", "15")
    assert _stdout_sha256(capsys, command.split()) == GOLDEN_TEXT_SHA256[command]


GOLDEN_PROBE_COUNTEREXAMPLE_SHA256 = {
    False: "ef5c0deca70b88ba2c9eccd782d541eb2309abb22c1942b7f58106802094acde",
    True: "854aa224f3ad8d3b7653afd21da4f5bbeeac90bde81800ef25409bf40d79188c",
}


@pytest.mark.parametrize("as_json", sorted(GOLDEN_PROBE_COUNTEREXAMPLE_SHA256))
def test_probe_counterexample_bytes_match_golden_digest(capsys, monkeypatch, as_json):
    report = oracle.ProbeReport(
        n_max=3, c=1, complete_values={1: 1, 2: 2, 3: 2},
        counterexample=(oracle.SmallGraph(3, ((0, 1), (1, 2))), ((0, 1), (0, 2), (1, 2))),
        graphs_checked=12, assignments_checked=345)
    monkeypatch.setattr(oracle, "conjecture_probe", lambda n_max, c, cap: report)
    argv = ["probe", "--nmax", "3", "--c", "1"] + (["--json"] if as_json else [])
    assert _stdout_sha256(capsys, argv) == GOLDEN_PROBE_COUNTEREXAMPLE_SHA256[as_json]
