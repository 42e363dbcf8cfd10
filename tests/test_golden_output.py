"""Golden outputs: the sha256 of stdout and the exit code of fixed CLI runs.

Reports are byte-identical across runs, so a refactor that claims "same
output" is checked here rather than by hand. Each case runs ``cli.main`` in
process; a failure names the command whose stdout or exit code changed.

To re-record after an intended output change, print ``_digest(argv)`` for
every case and replace the entries of ``GOLDEN``.
"""

import contextlib
import hashlib
import io

import pytest

from detlam import cli, kexpr


def _cases():
    cases = [
        ["verify-all"],
        ["verify-all", "--text"],
        *(["universal", "--dim", str(d)] for d in range(1, 9)),
        ["universal", "--dim", "1", "--combo", "deligne"],
        *(["coeffs", "--dim", str(d)] for d in range(1, 4)),
        ["polyid"],
        *(["ducrot", "--dim", str(d)] for d in range(1, 4)),
        ["verify-main", "--model", "P1xP1", "--line", "1,1"],
        ["verify-main", "--model", "Hirzebruch", "--e", "2", "--line", "0,0"],
        ["verify-main", "--model", "P2xP1", "--line", "1,1"],
        ["verify-main", "--model", "PnxPm", "--n", "3", "--m", "1", "--line", "1,1"],
        ["verify-main", "--model", "Hirzebruch", "--e", "3", "--line", "2,3"],
        ["c1lambda", "--model", "Hirzebruch", "--e", "2", "--line", "1,0"],
        ["euler", "--model", "P2", "--line", "3"],
        ["c1lambda", "--model", "P1xP1", "--line", "-2,3"],
        ["c1lambda", "--model", "Hirzebruch", "--e", "3", "--line", "-2,-3"],
        ["euler", "--model", "P1", "--line", "-3"],
        ["euler", "--model", "Pn", "--n", "3", "--line", "2"],
        ["picard", "--preset", "mumford", "--goal", "l2 = 13*l1"],
        ["quotient", "--vars", "x:1:odd,y:1:even"],
        ["quotient", "--vars", "a:1:odd,b:2:odd,c:3:even,d:1:even", "--bound", "200"],
        ["ducrot", "--dim", "9"],
    ]
    for name in kexpr.builtin_chain_names():
        cases.append(["rewrite", "--chain", name])
        cases += [["rewrite", "--chain", name, "--corrupt", str(i)] for i in (1, 2, 3)]
    return cases


def _digest(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest(), code


# " ".join(argv) -> (sha256 of stdout, exit code), recorded before the
# formal-sum refactor of kexpr; ``universal --dim 2..4`` print exponent
# vectors over l, c_1..c_d. The cases from ``universal --dim 5`` on were
# recorded on the Fraction-dict series kernel, before the packed-key kernel:
# the largest denominators, a deep inverse with power-of-two denominators,
# and two more models. The negative-line ``c1lambda`` and ``euler`` cases were
# recorded before ``c1_lambda`` and ``euler_char`` moved to the exp route.
# ``verify-all`` was re-recorded when the family-p1xp1 law became the
# all-lines statement; ``verify-all --text`` prints no laws and kept its digest
GOLDEN = {
    "verify-all": ("329975e7285186b768da8e2906cff40b8f27c24939b36b98f22a0babb1aca8e1", 0),
    "verify-all --text": ("095e58fa896d9c44a664cab0c6b53959a98a49482b2d807d76dada810dae5df5", 0),
    "universal --dim 1": ("f8b584e5ed8ee8545d459ccbdfe10ba6801ae9c1b1c4554bdda7fa27e08864b2", 0),
    "universal --dim 2": ("c5997e8cae2e6f73b063466a16f1fbc037243ba0dafd9409227768c4fccf4a7f", 0),
    "universal --dim 3": ("94dd7f97a703c69ffb4225d9cd1934d55a45b249ade335410215c5781d83f7e8", 0),
    "universal --dim 4": ("0e613561e6b7587adefc9a4cd000603b2de29c12a7caf5e90f1b2e6cc2a1b35e", 0),
    "universal --dim 5": ("228c035673bfae07760a7538dc6aa838cbd31abc807c2377f367316c9ca4769c", 0),
    "universal --dim 6": ("51f41e36bff9f48070419b11da972022b6923e196f0da708f99affde1fec612d", 0),
    "universal --dim 7": ("7ad7d3507764f6791e16573fec39b627a6cd5f77e393db43045b3ff4ecd70922", 0),
    "universal --dim 8": ("4a886a11f11aad7ab24fde4f08dd0a8c3749f0d6ccd212ba080ecdfa7816b6f0", 0),
    "verify-main --model PnxPm --n 3 --m 1 --line 1,1": ("c24634ef5cf9ce1542c1857f8cfd3e5affcf1d488db777bc1ed832bce64a5a28", 0),
    "verify-main --model Hirzebruch --e 3 --line 2,3": ("b68c07c0a87f4fb2f0137199294271158e13b6b101bfeeb52f538259e3c40f44", 0),
    "quotient --vars a:1:odd,b:2:odd,c:3:even,d:1:even --bound 200": ("d64951a02aa1123c43c47066b0a6bb71259e58493a2dbd93e1af199028f8cbd3", 0),
    "ducrot --dim 9": ("9283e97a167243a64920a0e5435fc9fd0619b2c1c4a6e8951f71e66492971f2b", 0),
    "universal --dim 1 --combo deligne": ("217682e9d55094874280542d43570d22a55b24c2f3324ae7442f1f60424d3589", 0),
    "coeffs --dim 1": ("3df3a5aa681563b66950a070da0ad419736afd4844b0e4fb93d2fe1639c9bdc6", 0),
    "coeffs --dim 2": ("76010a0db747504b60083751e019dfcb97421d4943e846636a36b511d1df12e8", 0),
    "coeffs --dim 3": ("5e5e6248a52c1e00fd902da02ce458a090a860c1f6222b370dfa92b3ae1fbe97", 0),
    "polyid": ("eeb91c1661dc2dc394d62622fe807cd034a8cab94f9d890d7285958a3c7700e7", 0),
    "ducrot --dim 1": ("b3275540f473774004785c6f7922812b20300634d2b1cfea57b3422c7e103083", 0),
    "ducrot --dim 2": ("f60d20c5db93a5591dbf528d0c1b3f34e04793e92118a902fe548ab78e78fd96", 0),
    "ducrot --dim 3": ("b68948fc36ffdbd2e9e1a031750e096f4ab7968c8dffa6b4554e9dcd5f271322", 0),
    "verify-main --model P1xP1 --line 1,1": ("2189d489e2c81286302f10fc4ae0544fbbdf20d4a1d61b7e33b471a5c111bc0e", 0),
    "verify-main --model Hirzebruch --e 2 --line 0,0": ("2c6b9087d86642f740f5bd60a4079a125705434b92e086c86f13158218ccd812", 0),
    "verify-main --model P2xP1 --line 1,1": ("50872ceda69bf3609934904728ee4696a7e025df2fc0961c8ff9b062bc0f207e", 0),
    "c1lambda --model Hirzebruch --e 2 --line 1,0": ("02126083a44b2913ab90398f4eec1b6c5072c294dea452f8a1e53dc42f3fa624", 0),
    "euler --model P2 --line 3": ("c610e0129cafd4f2240f6e5bf7ae12b495287b663bc683bde75dddc981f1c07b", 0),
    "c1lambda --model P1xP1 --line -2,3": ("7aeeec3399e202ba063dc40e7726d7674f3af66c45cd868b7785e226e4d9f26e", 0),
    "c1lambda --model Hirzebruch --e 3 --line -2,-3": ("e3a50c484ea11d14b11e9e5a4fb06b9d7e50b1f852d8833c657b9a8c79b918e1", 0),
    "euler --model P1 --line -3": ("4a189db6420a10a6983f361a4f28878baff94dbaab011ddddb41769d581ac18e", 0),
    "euler --model Pn --n 3 --line 2": ("d4a792a6b2b3af074060fd0c613d91ee0505edfcef751523530198bbe697518e", 0),
    "picard --preset mumford --goal l2 = 13*l1": ("87e05a2ab10bb64f2055bd8f63993c4196791faba168df913b8dd614db31752d", 0),
    "quotient --vars x:1:odd,y:1:even": ("bd2a4c0fcfa1d05c9dd5f5689ae60bca3020097978c4a11908840ce52307bd41", 0),
    "rewrite --chain invfunc-a-k": ("a63815c0a7c61434ea7ac795ae4b733e9cee39998a6dfe8123e110cd12bd88c5", 0),
    "rewrite --chain invfunc-a-k --corrupt 1": ("f56829e6548d585465308881f1fb4fe8df1beb661cf6752f6a2ae5bc82f1af91", 1),
    "rewrite --chain invfunc-a-k --corrupt 2": ("f5893e7b30dd0e119a2d25834ca3a9352146f943bb6445f9ff36cacf0dbad043", 1),
    "rewrite --chain invfunc-a-k --corrupt 3": ("d216b678f276f0bc8aa6843450240b1b41bf35fc88c7a20e09af574dbe4d8505", 1),
    "rewrite --chain invfunc-l-p": ("484de1fa955ea69c712ddd53da0498a96a861f777968b7f14ec694f50d1c8946", 0),
    "rewrite --chain invfunc-l-p --corrupt 1": ("3deb9b2a78bb554e2f78fc1b9759c4961d3b4474c7d545c497f67b92d4b13e97", 1),
    "rewrite --chain invfunc-l-p --corrupt 2": ("b3b907b8447508a0660c47f8b27850366026eca3c1fd3e5092aae25f4d61e7c3", 1),
    "rewrite --chain invfunc-l-p --corrupt 3": ("0e196334f28dab5934feca2b57658a157b43d7d4c3a2c3e7c4c526ff5c3faf2b", 1),
    "rewrite --chain multadd-d1": ("7fc60d707aa017df745076fee2acdba7f985afaac2691711a3dd95d33331de48", 0),
    "rewrite --chain multadd-d1 --corrupt 1": ("4cb2110cccf307899d7f92e635f9513049b6a4e6cecb5badc48752dbc54f2804", 1),
    "rewrite --chain multadd-d1 --corrupt 2": ("f1e1a4548728125bca631527a20180d0ee2be89754ee8acc7a882693e77c2d8f", 1),
    "rewrite --chain multadd-d1 --corrupt 3": ("b3d622d0c73fd59bcc31053a028884a10004376a5d78d2c7a81fe15897da15c5", 1),
}


def test_every_case_has_a_golden_digest():
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in _cases())


@pytest.mark.parametrize("argv", _cases(), ids=" ".join)
def test_stdout_and_exit_code_match_golden(argv):
    command = " ".join(argv)
    assert _digest(argv) == GOLDEN[command], f"output of `detlam {command}` changed"
