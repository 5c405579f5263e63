"""Pinned SHA-256 digests of seeded CLI output.

Reruns of the same code (test_cli, the acceptance gate) cannot notice a
change that reorders random draws or rewords a report the same way on
every run.  These digests were recorded from the tree before the verifier
was restructured around one S assembly and a Cox-ring boundary check, so
any refactor that changes a byte of stdout fails here.  Each key is the
argument list, space-separated.
"""

import hashlib

import pytest

from fanoconic.cli import main

DIGESTS = {
    "verify --m 2 --format json --samples 5 --seed 1":
        (0, "51fd5e3a1cd3b10cd4d5ed0229197317e32c620eaf1f6ca8acb4c8985074e2ff"),
    "verify --m 2 --format json --samples 5 --seed 1 --perturb":
        (0, "5fb0f8ed32314c98f80dc490aba5673181303f2868f486a2f77e558dc0cfb811"),
    "verify --m 2 --format json --samples 5 --seed 7":
        (0, "d078d5675cb9faf17b96aa7a6a21baa6164c38eccf8f82879f1461da7b7aedba"),
    "verify --m 2 --format json --samples 5 --seed 7 --perturb":
        (0, "bb45634a69feefd91342c07230509152babc96dc292da33e87f0f4c9c4815d5b"),
    "verify --m 2 --format json --samples 5 --seed 42":
        (0, "9b188ee03a15eea0dad3b04fb42e98c92b4c2e15a9ed96d5a9214193d2569de8"),
    "verify --m 2 --format json --samples 5 --seed 42 --perturb":
        (0, "a673a8a47798cf88cf3858ad5469542617b9452ab4c6c685f5647109da19b0e0"),
    # the verify commands of the benchmark at its seed 1, argv as it passes them
    "verify --m 2 --seed 695724 --samples 6 --coeff-range 100 --format json":
        (0, "ca523ab0d9d7ee67a3366b4908ed7c4bfeb282e29c131d0267579ec46beac402"),
    "verify --m 2 --seed 695724 --samples 3 --coeff-range 100 --perturb --format json":
        (0, "9ce19d71675eb3689e8dfa086132fa99330a90dff6270b4a3f8626ca7c7af0d5"),
    # the default verify command of the benchmark at its seed 3101, whose first
    # fiber pencil draw has v_y0 = 0 and is redrawn
    "verify --m 2 --seed 192285 --samples 6 --coeff-range 100 --format json":
        (0, "b5ea11d7602c8c88961a3d7229ecc7d4c5595599e794585df57ee7a34917af93"),
    # the perturbed verify command of the benchmark at its seed 46, whose first
    # chart line draw runs through V and is redrawn
    "verify --m 2 --seed 43787 --samples 3 --coeff-range 100 --perturb --format json":
        (0, "dd20ae46c22eba380513a8b981da823436a04ecfc107bb45f95a0a77da406505"),
    # a fiber pencil whose direction lies on V loses two degrees of det S,
    # and a chart line whose y-part stays on {y2 = 0} or {y1 = y2} has a
    # square factor; each of these commands drew such a line, now redrawn
    "verify --m 2 --seed 6845 --samples 6 --coeff-range 100 --format json":
        (0, "c5d1e5ad83236094ae7c5f3eb6da61a716196b9d5a415b45b86bf4997eac2200"),
    "verify --m 2 --seed 7 --samples 3 --coeff-range 1 --format json":
        (0, "c7c9e51b5108534671535515824ecbd3bff1faa6701e4b56781f528dd558887c"),
    "verify --m 2 --seed 5 --samples 3 --coeff-range 1 --format json":
        (0, "e13deae6a6e291d64a45ab78f8d7613881627f3f6b419e5dae51b446993bfe39"),
    # the one m = 3 draw, recorded before the sections were laid out in
    # blocks of the graded key table
    "verify --m 3 --samples 2 --seed 1 --format json":
        (0, "ebf97840e01df292bb783b667db2e9ed0f5cd38ec7ca15ac0fcaab84e56f2e55"),
    # re-recorded when the certificate dropped its constant "picard" dict and
    # its six prose claims, traded chambers_cover_movable_cone for
    # sigma_on_V_patterns, and gave effective_cone_rays the Cox degrees as its
    # computed side (still 29 checks); nothing else changed.  The four text
    # views were re-recorded once more when their first line became
    # "conic divisor certificate  m=..." (X -> Y is not flat)
    "certificate --m 2 --format json":
        (0, "3e202ea4c8d0658067851744ade6ab9f0a41b82bcba6dc78c59173e30ce8af8c"),
    "certificate --m 2 --format text":
        (0, "754ae3397db1d174b300fbb150c9d8620f5ba89d1ea15bdb1130b1fb979d63f5"),
    "certificate --m 3 --format json":
        (0, "e2a43d4794d81378bc7412e9b2b38e530ba79cde4fd2736b82015ef720fd420f"),
    "certificate --m 3 --format text":
        (0, "1be3c03e84702df6bcbaca5d6e6cd8b2959eb98e5558b4f7cee516bdbaaa8510"),
    "certificate --m 4 --format json":
        (0, "14ee3e8c52294a5a16cd172ab019d45eb68977896b6c62842b092879e6d2cbec"),
    "certificate --m 4 --format text":
        (0, "cb65a294a67abd49e235a17c7ec049db17053337fd4de106bb415e6481ef63a1"),
    "certificate --m 5 --format json":
        (0, "94c9ae4ffb4a91b46e1f4e25c5c796584ea6ccf99a7c22e10497ca8ac932df46"),
    "certificate --m 5 --format text":
        (0, "089e0a0a592930a2f1af1ece35db3e821a81a821cec650ef7943bd1ef802156c"),
    # recorded before the chamber decomposition became a plain dict
    "cones --m 2 --format json":
        (0, "1eedab03de8c2d84edd400c5bb8c5ed05871bead1e5a7971ad8356e0a7e71172"),
    "cones --m 2 --format text":
        (0, "3e21c7ab3b069ffeefa4ac6ed051bf9855c4358c41a197228fb1f293dd8dbb57"),
    "cones --m 3 --format json":
        (0, "969d5aa8d52f57aa75ba5c2a9bfb88f6bb1053af9bdff0ee7f05d9fb2ee0788f"),
    "cones --m 3 --format text":
        (0, "57e38730ff9a6fee7e82689c9225d4356678772aae18563dbe06e43ba1d89a29"),
    "cones --m 4 --format json":
        (0, "094fafdd4f1fbd51c97c79246ef7f2fe80f7ab78d801cf9fa182cfed357b6914"),
    "cones --m 4 --format text":
        (0, "490eb56d8b24e1752b2e55f65604bda02ca84fd9b7b9ec83c409f565728cc61f"),
    "cones --m 5 --format json":
        (0, "1c740e2ddb5905e93b5e79030277b3c80e29ecea1b5508ba78d290485fd95e23"),
    "cones --m 5 --format text":
        (0, "8e25d196c33b3342807b858a8045c1c48dee26ff3da603827e3bfea4fad08924"),
    "baselocus --m 2 --class=3D-4H --format json":
        (0, "7677e156623c7c5caddf671f2ee53ccdf6e117bdbe89cddf4a4fdf67955b05d9"),
    "baselocus --m 2 --class=2D-4H --format json":
        (0, "0fd50dbb3b6e71a1dd0d33325ea1e9ab4523139a519a559d2de7d998d1eea5f3"),
    "baselocus --m 2 --class=40D+7H --format json":
        (0, "8ad8974ae879dc22a0da28b61251320595879ff881b5b7cd0a5aa538dfc43853"),
    "baselocus --m 2 --class=D --format json":
        (0, "1fedb131f4300cb7af2908835bd2387403c54c16d3828427440174a5e208e870"),
    "baselocus --m 2 --class=H --format json":
        (0, "dffc32c49b49630a5168b2d2d91f6cfb27809a442f35d4b130b060c89080af6c"),
    "baselocus --m 2 --class=D-4H --format json":
        (0, "157f5cbfb5729552ccbd7134a46ec1754cb1811fa85a79dceacb3aa539845d33"),
    "baselocus --m 2 --class=2D-9H --format json":
        (0, "90e968f5fc154418fc0059d845b78ef8ca6738f88f55656e5799a1ad33564134"),
    "baselocus --m 2 --class=-D+3H --format json":
        (0, "8b970ae46b1ec30543b1a513d58a815151b214ab6193a3abcaa7add44439151c"),
    "baselocus --m 2 --class=5D-20H --format json":
        (0, "bb02518e85867ee73b318c8ade68bc52063e7d01a96e90c45c92684fdffbeba2"),
    "baselocus --m 2 --class=7D-27H --format json":
        (0, "a95e74aa353ed058846ed2a0af54896012c2048fea02ca284347c40364716164"),
    "baselocus --m 2 --class=13D --format json":
        (0, "d160851d055bdb7c3c10cd0c7635c1bc6665f0633f97a3273bdb16b36e74f9e9"),
    "baselocus --m 2 --class=12D-47H --format json":
        (0, "0a85d4600b33caf3d18ed14c4239bab4cd5f40e528c60b83e4c078506f8cb234"),
    "baselocus --m 2 --class=300D-1H --format json":
        (0, "943f81b402a3966f359d18ae735d88ed05335ca81a0390a1c3dfd914739436f3"),
    "classify --m 2 --class=3D-4H --format json":
        (0, "d4b0f063837049607981a38157ae3e57586d02b37c202f90bb39e5c2c41553d3"),
    "classify --m 2 --class=2D-4H --format json":
        (0, "5358a90db6443bfc89a6a71577113aee2fa7ea34bdaf620317fa6696dc08283a"),
    "classify --m 2 --class=40D+7H --format json":
        (0, "84102adb0028e602b0ee64cc11e4e7151cbf8aa8902f83aed3314e5662ceba6c"),
    "classify --m 2 --class=D --format json":
        (0, "11f7cba8f0240a93eed492cefc78b03e41a402cc0145f2dee23d658ce78b5f76"),
    "classify --m 2 --class=H --format json":
        (0, "b0e5550686bfd1c93b448f334b1071e49229173a6fd6cc7f3646813d3d27a91e"),
    "classify --m 2 --class=D-4H --format json":
        (0, "1c2665aeef169a0ccadd26f90367b58d440dd84a0fb7df37da723d29d701e75a"),
    "classify --m 2 --class=2D-9H --format json":
        (0, "7512efa2017d8c70a5b0410ed6bc191a73dfcd45ecd9729143c5db9a6c54fded"),
    "classify --m 2 --class=-D+3H --format json":
        (0, "c6fcb695cd80cfa13f49112ee6e5cd256828ea6c8f383a08baeab69bb7305843"),
    "classify --m 2 --class=5D-20H --format json":
        (0, "72642d2cd281d187daf5459922a75d53fb19e69178de4359382fe83f9c0166a7"),
    "classify --m 2 --class=7D-27H --format json":
        (0, "2f54e670a305ed87e055e24539743fb79ad156ebfd38f67df67d0e9014b51a6d"),
    "classify --m 2 --class=13D --format json":
        (0, "ace7f8673214bdac9c28bf93f5da20a160220778b4df8fb86d7e0572af34d0dd"),
    "classify --m 2 --class=12D-47H --format json":
        (0, "c883e41c8c8aa5e00ec397ec8662742e4d4659d001c7cfa068825da0df02f387"),
    "classify --m 2 --class=300D-1H --format json":
        (0, "aca336c56faacf32d1ee60c3d84192f2108c94de9acdb793c74386318458465f"),
    "h0 --m 2 --class=3D-4H --format json":
        (0, "4988dcc58af7d69fd29437d827fecefa78f3299068987d2e4f420c14aeff1aeb"),
    "h0 --m 2 --class=2D-4H --format json":
        (0, "9842b3053273f2475ad51d08d7da872ab79f260466dc244e62ebb8b07085601b"),
    "h0 --m 2 --class=40D+7H --format json":
        (0, "cda5ba1fc45fe9468dfdf2ff5a1ebc373d419a1b00b5d68bd7eafc7789cc5551"),
    "h0 --m 2 --class=D --format json":
        (0, "e395c9e69e5289417eb904534b73433ef9e34a7975f028d7166207f45402d0b4"),
    "h0 --m 2 --class=H --format json":
        (0, "b05322b5b6f58e4676af79a815ab3c5f012c1ac3aaaa8c08422552d1a45eb9cd"),
    "h0 --m 2 --class=D-4H --format json":
        (0, "a90b99a1678ad40256a9c15c0150725d774ac11cd27df19c17ae416cba4ddf8d"),
    "h0 --m 2 --class=2D-9H --format json":
        (0, "b629e4108e2ac67ce2fd8cff353f37919c73aeca2cb6abbc1665baea3039e20a"),
    "h0 --m 2 --class=-D+3H --format json":
        (0, "f2c47c6f81f0cc4f4d9e99d78d6c25b31ee50049bc22c3b03f8d0dd50d24270a"),
    "h0 --m 2 --class=5D-20H --format json":
        (0, "4d8fde570eaa184d253dc6b4fcf9123c6265ca8e4ad2506ef10f5393fc61677b"),
    "h0 --m 2 --class=7D-27H --format json":
        (0, "e48b4771bd56be88f28cd712fb3c9b4d2bc04e3652e1986da407a9629da2c1fe"),
    "h0 --m 2 --class=13D --format json":
        (0, "8818bce4a6600eb374cfcfbbcebb58275ca5184ad4a35298ddae9630ebb275ae"),
    "h0 --m 2 --class=12D-47H --format json":
        (0, "be81eee14d9e61b8404c5996fa8b870dfed1fb149f99603c6447d14f395113bc"),
    "h0 --m 2 --class=300D-1H --format json":
        (0, "a3cc12188fe2fdcd6d9e2d6883d235b815c3bc67a2f915df2b75c99d5c5bc30f"),
    "baselocus --m 3 --class=3D-4H --format json":
        (0, "776d534d368371feefe0c94c33e0f095040364dc85ebf320436845ff881806eb"),
    "baselocus --m 3 --class=2D-4H --format json":
        (0, "4dc57f538fb44ccdf768aab223e56c06a4d0dd60db44d5bc18c507fe6490af93"),
    "baselocus --m 3 --class=40D+7H --format json":
        (0, "19b98d33ea71c111702ba50f3ad27c50d8ead62ea85e558fe9df38eb036f54d1"),
    "baselocus --m 3 --class=D --format json":
        (0, "a421884db9bb5e71132ca7d0197f9524cecb864248d9b1cccef330a6c95867b2"),
    "baselocus --m 3 --class=H --format json":
        (0, "e485ca152cfd2853ce1ff9545e85cd803856ac321fd6072f7e6a7d3c158eee93"),
    "baselocus --m 3 --class=D-4H --format json":
        (0, "cbf46639ffccb1f0db08db5a20be0f85f1ce14a7840c7dc5329fe9d09e9c1c01"),
    "baselocus --m 3 --class=2D-9H --format json":
        (0, "3b7a228fc167c779b793db97d12b01f30adffdf7274cd37cf9a03f03cdc344e1"),
    "baselocus --m 3 --class=-D+3H --format json":
        (0, "4c052992c9bcc5702f02053e6e538cc102344109ace96c8e23d949188a159f44"),
    "baselocus --m 3 --class=5D-20H --format json":
        (0, "b88675ff6dacdf59e0be68360a80d001d507c0a6bebc71046ffbb44ffe3058af"),
    "baselocus --m 3 --class=7D-27H --format json":
        (0, "54261d171203583ce913b8fa9206e23b27302d5fefe7a233c26df728d0856296"),
    "baselocus --m 3 --class=13D --format json":
        (0, "620c566b9420adc8699487658725b894c205929786a530f88d00f910d24fbbfd"),
    "baselocus --m 3 --class=12D-47H --format json":
        (0, "b44d9cb438613a1335cd95972f95313a1551879a98143b57181b56afe99a1cbf"),
    "baselocus --m 3 --class=300D-1H --format json":
        (0, "fda0787d070a39c16558ee57857a3f334d95594f5ae791b3bd713fbfee0fb185"),
    "classify --m 3 --class=3D-4H --format json":
        (0, "4d83c3a94f08df3b00a59fec7dd1ca4eef7bd22e8e1cc2d4f7c796adc20d9285"),
    "classify --m 3 --class=2D-4H --format json":
        (0, "cfb1b9a5d2fe3609140c229df489b216050fe354a131714a580e6a0390be08bc"),
    "classify --m 3 --class=40D+7H --format json":
        (0, "1018ffea7585f3e863edf2f4f317dbca07ed63fbc4efe233dd528d22c57cd4af"),
    "classify --m 3 --class=D --format json":
        (0, "94d936aba45ecb8c679a3ca7330f45c0e0e75bf0b7f4fbdc0a08c40b9f53318f"),
    "classify --m 3 --class=H --format json":
        (0, "a5d6e8626858f53cd6902304c8ea57f9041cb53fab907e06b2ed5e767a1c98c2"),
    "classify --m 3 --class=D-4H --format json":
        (0, "833d961a31f307693d0f66db752011b2b795612f233339db5ae6dbbea8513c2c"),
    "classify --m 3 --class=2D-9H --format json":
        (0, "9131acefb8bf8a0fb4feef603474f75305be35f3c80c6271c01c5d51677f7505"),
    "classify --m 3 --class=-D+3H --format json":
        (0, "9711701ef8fee820eec09c65960063a05387eb232ffa448f70d2fa0596142702"),
    "classify --m 3 --class=5D-20H --format json":
        (0, "3a24f7fb3a0e45f9691358c16862b4e83474a68534a2964b021aa10bc4f520be"),
    "classify --m 3 --class=7D-27H --format json":
        (0, "bc8a19c64376f5fe7b4593ed17d4ba56caafb4a474121103d2642f7e6afc4d8f"),
    "classify --m 3 --class=13D --format json":
        (0, "4a900b7f4ee88de6a6dfdafe04a09981a07286e04704157d0f9be7186b890736"),
    "classify --m 3 --class=12D-47H --format json":
        (0, "42b2512adfe54e92707e641f1478a4e913f1c426db2e5ec00b0ef5718ea79e93"),
    "classify --m 3 --class=300D-1H --format json":
        (0, "c84050a488fe9492685e76fc59d699dff3d274506266b660478a632e44ddb8fc"),
    "h0 --m 3 --class=3D-4H --format json":
        (0, "495c040edc432ab0fd6576fa571d5fb193e094699d38e0eb1b171a7437ebec80"),
    "h0 --m 3 --class=2D-4H --format json":
        (0, "3f0f02c265c1733253ccfcf0be3d1173e814bf4fea9a2991f034f239dc8f08e1"),
    "h0 --m 3 --class=40D+7H --format json":
        (0, "a58ae146c4ee71cb4f8935b55c2120aa0f699e2a2982162f58bc11a29bd9405e"),
    "h0 --m 3 --class=D --format json":
        (0, "e0257b53ce6bc7130c2271ea79790be1e21d648f97b185b7903ca85f1ea283e6"),
    "h0 --m 3 --class=H --format json":
        (0, "6e8d020c9e3a35eb2c0d880c975355af0a9b9ec328fb36b01e820e7f4fdc34c5"),
    "h0 --m 3 --class=D-4H --format json":
        (0, "a228a365369f275cf46900d815ab0bd4f060ebae4ddc7155089f7e6736ff7c8f"),
    "h0 --m 3 --class=2D-9H --format json":
        (0, "79fb83f8e625f0bbbf82119fe3f91f0a2479268433edd13269345663c16c608c"),
    "h0 --m 3 --class=-D+3H --format json":
        (0, "e41f96bf631c85e9db057ffcf688255d4e204b169134cc744d2404f85683b409"),
    "h0 --m 3 --class=5D-20H --format json":
        (0, "ff326740c84747b5e25ea16dfb55e3513f20d8f765073db49105353d49221dfc"),
    "h0 --m 3 --class=7D-27H --format json":
        (0, "28a85135488d6bfffbe51b40761d66b17ebdf5c86301f666d77478dbbd01e522"),
    "h0 --m 3 --class=13D --format json":
        (0, "201d304eebb498e68a7682060642786f9f895b501d58c7341a4107cf4e2ed857"),
    "h0 --m 3 --class=12D-47H --format json":
        (0, "70078efd35c0f07ca177ec3d2c580963f7e25bf6dd41b9a94a286520782c1808"),
    "h0 --m 3 --class=300D-1H --format json":
        (0, "32f056dadb4361cd698caa3edb8e19f33bad61eeeb9ff9277bee4c2f79dc9bc4"),
    "baselocus --m 2 --class 3D-4H":
        (0, "3816b02af04fa6af86bfef9898c528674846a948ad27aad407c76fb4f01f03b2"),
    "classify --m 2 --class 3D-4H":
        (0, "603d681fea2db0c20f383d336297c99f3d39a0cf463bc6f30fc1bb4b6630cd58"),
    "h0 --m 2 --class 3D-4H":
        (0, "87558a13d8178dff59c39d937b16ca624dfe5e11aaeb5dff566e2588e423eed2"),
}


@pytest.mark.parametrize("argv", sorted(DIGESTS))
def test_stdout_matches_recorded_digest(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == DIGESTS[argv]
