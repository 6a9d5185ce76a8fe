"""Golden artifact bytes: the sha256 of the artifact each argv writes, or of
its stdout for `verify`. A change that alters any of these bytes on purpose
updates the named entries and says why; any other change must leave the
table as it is. Sizes are small, so the whole table runs in about a second."""
import hashlib

import pytest

from chaoslab.cli import run

GOLDEN = {
    "pair --horizon 2000 --seed 3":
        "03118a33589c9cfc16a4466195b1c1526a1ff91209abc9a8db6f84a03990f79d",
    "pair --arity 3 --probs 0.5,0.3,0.2 --horizon 2000 --seed 7":
        "a59bc923b8d2ec7bcc8373390d33ce0e7b6a97f54e31690a22757f81618e8c78",
    "pair --system tent --param 1.99 --horizon 2000 --seed 2":
        "f76bf7397a123d0140757d8dceaa4bd262aaddba4a11c80a1102cde593bbb064",
    # the tent default a=2, whose float orbit collapses to 0 by step 52
    "pair --system tent --horizon 200 --seed 2":
        "488f6468aaeeb176c80dc93cd2c4b4889d856ff1e73617fc373dcd46ad5c86cc",
    "pair --system logistic --param 3.9 --coding-depth 2 --horizon 1000 --seed 4 --seed2 9":
        "58c70710eeceb369f0032eabcbc8af306f103a5a1c81de9374f3fd56921b19ab",
    "pair --system odometer --base 2,4,12 --horizon 2000":
        "e77d88e5fbded99bea7d578fab0b8edd2945cc768887dafd3fb676ff0c94cfd7",
    # 2000 rows, drawn over as many top-level blocks as each offset needs
    "pair --system zero-entropy --q 2,2,2 --horizon 2000 --seed 5":
        "776017de66960e94e5161d50b1ecc90f89c5230e4fc139fbb2d566ca70891df6",
    "pair --witness DC2 --horizon 5000":
        "1e0f9a10e8e97468ba695567004ad18a77fe6065d05ecdafc644d15bbaa7cecb",
    # about 40 reals below 1e-4, written in exponent notation
    "pair --system logistic --param 4 --horizon 3000 --seed 1":
        "cd039b271df9ffdc2f575bf86f6ada9cd7309347813874d67659c9162d8cb7a2",

    "phi --witness DC3 --horizon 16382":
        "51e304c3e9ef05cbe0f467bc27e589d86ffce3689984245878231f69ef588a43",
    "phi --witness DC3 --horizon 16382 --format svg":
        "a934cfa696f363535e0197ed6a03adae30c1a05b5e99a2ffa885196c3cc96f33",
    "phi --horizon 3000 --seed 1":
        "97b91840d4c9f9f8688374a51efe9d7df841e3b782319087d56c145742f7c3e8",
    "phi --horizon 3000 --seed 1 --format svg":
        "5df74a852772567b3df9e3127fde93163220f7d602003181a09bcbfc9fd54476",
    "phi --horizon 3000 --seed 1 --metric cantor --burn-in 50":
        "a0007a9ce18bec06a55cedf02537cfd586a406d4c1c82974c531aad9af5d458d",
    "phi --horizon 3000 --seed 1 --metric cantor --burn-in 50 --format svg":
        "b02b636f55d37f32162c39b29edd3506a8edae732a4a9e4ed30593fa5f0ce139",
    "phi --system tent --param 1.99 --horizon 3000 --metric absolute":
        "9b3ae3193c6c1c9350ff4105c804a0042765d04701cb95003445956b8c747ff6",
    "phi --system tent --param 1.99 --horizon 3000 --metric absolute --format svg":
        "571ebac343e0a77725c12a4d793de4980e8d0ac20ae36274aa5d2abb0ae27ccb",
    "phi --system tent --horizon 3000 --metric absolute":
        "b128a0693c6ba821e12fb63a53a59291bee6ac1d209422d3ce21ac16922c6320",

    "classify --witness LY --horizon 7776 --tau-one 0.25 --tau-zero 0.25":
        "51f0f3208bf30e169ebb210fb1fd66df86f40666eca2f404cd2cf54d1a5dd421",
    "classify --witness DC1 --horizon 7776 --tau-one 0.25 --tau-zero 0.25":
        "fb7841bd3811b3ed1b6e52302b7991bcba4560d2ef9af8b9bc6971d37d06063b",
    "classify --witness DC1half --horizon 7776 --tau-one 0.25 --tau-zero 0.25":
        "e5b3676f4e0fd6c92b3413c86d03a2f8445e0cb080e7fb7ec2966ff08c4ab04d",
    "classify --witness DC2 --horizon 7776 --tau-one 0.25 --tau-zero 0.25":
        "f46511812bfd1d5f43d79d0da675429ae48734635f2432ee2315e22d79680358",
    "classify --witness DC3 --horizon 7776 --tau-one 0.25 --tau-zero 0.25":
        "d170fc2bc542e0b7b24de625350f6b62724822245df782c3b31e66a4878d1151",
    "classify --horizon 4000 --seed 3":
        "d97b2d40b81e302f0292ef6a005e945eda294ab293188fd670881f43e56d8fc4",
    "classify --horizon 4000 --seed 3 --metric cantor --gap 0.1 --eta-min 0.02 --burn-in 40":
        "4e011faa625d7af7277cd4d0a4da36295c311b759c511469d76c938eca340c44",
    "classify --system tent --param 1.99 --horizon 4000 --metric absolute":
        "a752a8c5d9665bf83e78be29be0ea4898dc20ab774d5a50f23d1ebaa72dccd11",
    "classify --system tent --horizon 4000 --metric absolute":
        "107a2987b3a7858258379922b5a962a8657678de66e033e48655f6f1c04e0c42",
    "classify --horizon 4000 --seed 5 --depth 5":
        "a03517a723aff69d540e4bec74a38b58c1b483980c5851b31d6392de7db449bd",
    "classify --system zero-entropy --q 2,2,2,2 --horizon 100000 --seed 1":
        "4414f6779739d599d24185c6b52d0581bcd644c891c0188b1d9d7f450a1a88ce",
    # no depth separates, so k0 is blank and eta is the metric read's
    # separation_upper
    "classify --probs 0.995,0.005 --depth 2 --horizon 4000":
        "931852b2f25b2802dfb30530f96dce83571fe14f2692322e2c428dd0fbe6e6a5",

    "scan --count 4 --horizon 2000 --seed 1 --target li_yorke":
        "d2794580b379c82ecf2612b241cb091fe7a40068b2a2605cf3b8cc40dd35b9af",
    "scan --count 4 --horizon 2000 --seed 1":
        "db5189eb646ebcd6f45ec53951d0f76110a929e25591c77611aafee8fd95489f",
    "scan --count 4 --horizon 2000 --system tent --param 1.99 --metric cantor --seed 2 "
    "--tau-one 0.55 --tau-zero 0.4":
        "b5a5958fed89652944bd9f07c66bf2874201246e493ffbecfca9e62bd072984b",
    # trajectories that keep their real tracks, each pair building its |x - y| series
    "scan --count 4 --horizon 2000 --system tent --param 1.99 --metric absolute --seed 2 "
    "--target dc3":
        "3f8954d2677ff77782ceb28ac5cd43370375a61bde51fd14c76e6d78eaa567b0",
    "scan --system zero-entropy --q 2,2,2,2 --horizon 100000 --count 4 --seed 1":
        "05529c1cb181c9ebf5c61cd91a0fd17ebcbb32ebc39dc1374c51f81539d62d71",

    "forge --q 2,2,2 --dump params":
        "ffe77e36c0fc065c9ea5a0645c4cbce279a8ddf0fa30d4ab0142fc70d4c1b988",
    "forge --q 2,2 --dump blocks --markers":
        "f8cf438e0ec9ef47457349b2883f84074058f356cd44bc66a19a833dc4065d85",
    "forge --q 2,2,2 --dump blocks --level 2":
        "cf2ddb7db02b22eaa0c139433ba1093e97642bbdcec1cb024ec53187c337e68e",
    "forge --q 2,2,2 --dump point --seed 3":
        "8fce7e054c943780f6900e2b6bb419811c00b9b91b8f6b29547dd554d915f87e",
    "forge --dump point":
        "3e4ba0331af7ffce46c7dc1e3b65470a7986e3eaf8a10557c632faeeeeb9a747",

    "entropy --q 2,2,2":
        "b15f588a9ac2156ab45cd93d68812bdaaf72b065b8631b544d456aad4613ddee",
    "entropy --q 2,2,2 --empirical --horizon 20000 --seed 5 --word-len 6 --stride 2":
        "3752a5a9eba0fc25cd0bc30f3df3faa3d1133bf66740f27c693334366670e79f",
    "entropy --q 2,3,2 --empirical --horizon 100 --seed 2 --word-len 3":
        "b43def10825f82658806ce95383f713a02db8655af8ec359adedf86154c30c2a",
    "entropy --empirical --horizon 5000":
        "eb101a805e1ac53bb6dfe1a9a787df81808a20725af09df1b5326a459826b2e9",

    "pipka --eta 0.81 --h 1 --card 2":
        "e8c337a7dd070a04d309c40ff6be8fcefe8e64acd4eb7d5e8aadb44f0370219b",
    "pipka --eta 0.5 --h 1 --card 2 --eps-grid 0.01,0.05":
        "565bdfdb4b3aff85c54af4fcc3ba0741fe564cbf1e4db8d08194df24d9415566",

    "count-ball --n 12 --m 3 --eta 0.5":
        "8a296df01f9ea12aeb08f02c251d7db92a975d7bed1be1a5a82e8087f8810929",
    "count-ball --n 10 --m 2 --eta 0.25 --a0 alternating --eps 0.01 --h 0.9 --card 3 --delta 0.02":
        "7b9027a2e8f03f806df54ee0973b14ead3764a0adc781c75e3f3217d541e18ac",

    "verify --suite params --q 2,2,2":
        "4fd19dec6a33f63c5fbef7f85e940c32b555e15002cf19c124adf3c6aefe2519",
    "verify --suite pi-bijection --q 2,2,2":
        "ad8bf06dfd950dc525df67117f5c49127142ae28dc869937fd728c9c6cd7f24a",
    "verify --suite percentage --q 2,3,2 --seed 4":
        "e3b4a1a4b9a21fa5b677c7466172bba1b81dbd6df3a687c15ae9b2f903924803",
    "verify --suite entropy-zero --q 2,2,2":
        "a910cdd74598b35bb3205ef392d7f153d435e56467479ca894771c4454c2a6bf",
    "verify --suite scheme --q 2,2,2 --seed 3 --pairs 4":
        "12e8fef364a5fe1dad46e54c69041d92bb76457233434fed543079444eb80726",
}


# config-file runs: (argv, file text) -> sha256; the file is passed as --config
GOLDEN_CONFIG = {
    ("classify --horizon 4000",
     "thresholds.tau_one = 0.3\nthresholds.tau_zero = 0.2\nthresholds.gap = 0.1\n"
     "thresholds.burn_in = 40\n"
     "run.metric = cantor\nrun.seed = 3\n"):
        "4e011faa625d7af7277cd4d0a4da36295c311b759c511469d76c938eca340c44",
    # the file's thresholds turn dc2 on: the default ones leave it off
    ("classify --witness DC2 --horizon 7776",
     "thresholds.tau_one = 0.25\nthresholds.tau_zero = 0.25\nthresholds.burn_in = 40\n"
     "run.metric = cantor\nrun.seed = 3\n"):
        "d09afda932dd1b4157684b7f482a098dafcf9f7b21a8920b5cb6d395acb8803a",
    ("forge --dump blocks", "run.q = 2,3\n"):
        "4e534a0ee03d6ff42f8eb3b63c63b0c5e044e2444bdeec5f7230b759280b9f0f",
    # verify prints one line: this pins that the file's q and seed pass the suite
    ("verify --suite scheme --pairs 3", "run.q = 2,3,2\nrun.seed = 5\n"):
        "12e8fef364a5fe1dad46e54c69041d92bb76457233434fed543079444eb80726",
}


def artifact_bytes(argv, tmp_path, capsys) -> bytes:
    if argv[0] == "verify":
        assert run(argv) == 0
        return capsys.readouterr().out.encode()
    out = tmp_path / "artifact"
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    return out.read_bytes()


@pytest.mark.parametrize("cmd", list(GOLDEN))
def test_artifact_bytes(cmd, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = artifact_bytes(cmd.split(), tmp_path, capsys)
    assert hashlib.sha256(data).hexdigest() == GOLDEN[cmd]


@pytest.mark.parametrize("cmd, text", list(GOLDEN_CONFIG), ids=lambda v: v.split("\n")[0])
def test_config_artifact_bytes(cmd, text, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    data = artifact_bytes(cmd.split() + ["--config", str(cfg)], tmp_path, capsys)
    assert hashlib.sha256(data).hexdigest() == GOLDEN_CONFIG[cmd, text]
