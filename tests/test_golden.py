"""Golden digests: the exact bytes of every stage artifact of two tiny runs.

Acceptance 10 checks that two runs of the same code agree; these digests
also pin the bytes across changes to the code.  The tiny runs have no
planted shift, so a third set pins the raw files of a cohort with one.  A change that alters an
artifact on purpose must say so and update the digests here.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from affectpipe import synth
from affectpipe.pipeline import run_pipeline
from affectpipe.synth import CohortConfig, PlantedShift, write_cohort

ROOT = Path(__file__).resolve().parent.parent

# A 3 x 70 cohort, 3 trees, 3 folds: the default run config scaled down.
TINY_SECTIONS = {
    "synth": {"n_participants": 3, "n_days": 70, "n_eligible": 2, "shift": None},
    "eligibility": {"min_days": 40},
    "evaluate": {"model": "rf", "folds": 3, "hyperparameters": {"n_trees": 3}},
}
# Pooled same-day compiled mood; values left missing by the window reach
# the dataset, which fills them with the mean of the measured values.
POOLED_MOOD = {
    "impute": {"fallback": "drop"},
    "label": {"target": "mood", "pooled": True, "same_day": True},
    "dataset": {"fallback": "participant-mean"},
}

GOLDEN = {
    "default": {
        "accuracy_table.csv": "f77ccb9d0e114c554d2c275211045c832f017b38c676a116badd6ef2a9a71832",
        "analyze.json": "da868f3d965917bfebbbd436d460c4f216665baee838ce4f84cccc63902a0810",
        "correlations.csv": "366de29320b3d100d6c75dfa16a40c473278bbd48383816130078c8e2d32b49b",
        "dataset.json": "61898dffd74f43bbff607d2775757c9b07a28f0d454bddff15cab7f5774acd9e",
        "imputed/p01.json": "88359f39613b4305997a19b3da7e89ff11b55afaa081920d7a9fe1d82c21c9ba",
        "imputed/p02.json": "51e7bb4f0f575b97d8187bb10944efedce07a2373fbaa3525a5e1eb3af05b414",
        "imputed/p03.json": "48a3b309e7fd73bccac8af40ae0cc52520512a07193d58a5dbc068c6afa1c0e7",
        "labels.json": "90a35999f8db675c094ba5159ee6b6787520a45b7946a6b8f5cfece27e06aaad",
        "raw/ground_truth.json": "757afb2edae4b27278f218771986860703d8353050ed3762e871d1cddeca57d1",
        "raw/p01_affect.csv": "a8344f75f70188853dfc03eee158094fc0421a69e3c463f5dd38052cd58e3879",
        "raw/p01_phone.csv": "1c4316020f077ebf17990ed0a5e37a7db7cc3934845cc6fadd94df1a5a786f73",
        "raw/p01_ring.csv": "10a601437a5dd89fc70b508b50ce10417bb4fa5120511867b7465c5d58abba41",
        "raw/p01_watch.csv": "08981b6ea151b439fc3166d695ab12cab4ce0d54f0a2bd3306fb4ad6bc9bedad",
        "raw/p02_affect.csv": "c76c0f28df0079c9447c7275d0aa46393667b8ed20891dbbbfa359b9ad8953a1",
        "raw/p02_phone.csv": "210173c30fb8831a912b16f9c8a2cb0627c4312dc8a9fa9343057757a0727c48",
        "raw/p02_ring.csv": "1e8d1f95ae43951d62ba85008b7837ba5e8f2a00c59c78ee5bf0e217e8a3abc1",
        "raw/p02_watch.csv": "42baf625d69373a192c83ef6e530db4c52921909d61adc93bbfec5929c84c34f",
        "raw/p03_affect.csv": "077f583b7028ac991d9def28962b43b9394321635582f583f5f3979628ad1a97",
        "raw/p03_phone.csv": "2068ca697ac8cdfdbc34df3a0edc76035e41e4eaeb712e2a06b5557ef85cdbd5",
        "raw/p03_ring.csv": "53e6732c30f82be00279df33d3a973b39f6a5829a1ed2a022f39623520f48042",
        "raw/p03_watch.csv": "5c3d1c920e130588071e58525450a43b1b0821407051160b92bb45c01a2254c1",
        "report.json": "f7afa76c1b6887ed73837642dc0936e6bb97a434587c5e97dcce15844a6713ce",
        "roc_points.csv": "fdca9e4213b9d6ea796d638e30e9d3dc6834dfafbffbfa1a843745172b4772b1",
        "timelines/p01.json": "054e034489bf4d100e6406c570d86ae8e18cf86c1a5758ec46448cf621d2f1ac",
        "timelines/p02.json": "d0d4353ba9f3e550438bb186e588d55c6f618056c0ddc10e4ab341004bd5f4b1",
        "timelines/p03.json": "607de982d6349f930a990ef29a84a4e1f27f8a000bbaf2b9da134bee67e3d69d",
        "tvalues.csv": "429db9f0c387922ea100547ab06f980cdc58bb3178ed68b3f67bdf2018049ada",
    },
    "pooled_mood": {
        "accuracy_table.csv": "a0827deac1b8fb8d9111f4b3c962c856217953afc05634e7aa8d266d8b42ad7b",
        "analyze.json": "371f3d8e74fbf402c14d60f3d250b5a79ef69869d880741bfcfa3fd91c56bc20",
        "correlations.csv": "995f6d70d6fb9a7d5d8b107eb25fc6d51187e85e677c68b36b3572f6927e3b25",
        "dataset.json": "b412eee1cf176c1efcc603dca2c79de4eca76e85a760778e9b1430c4bbc6464b",
        "imputed/p01.json": "a0b96a69c07c96968e3b4af64afedcb31989f9c300b739fcb6304a0126c9be1c",
        "imputed/p02.json": "0fef5ff65ab0cfc500a06771af510d533ca699b6de06f9c81f8ed056a94c09e1",
        "imputed/p03.json": "ebc600edfd2f8447387e1b617ab12bd834bda0c1059d1fd482e0a4fa6d844cb1",
        "labels.json": "9b355f16126fd9167f609f80eecb608aa992c8e8b23c194da10d5783de928a83",
        "raw/ground_truth.json": "55373c54d34705bca9a90e49a5375dde721b6adc95c15c966b1dd5635bcfdfd8",
        "raw/p01_affect.csv": "a8344f75f70188853dfc03eee158094fc0421a69e3c463f5dd38052cd58e3879",
        "raw/p01_phone.csv": "1c4316020f077ebf17990ed0a5e37a7db7cc3934845cc6fadd94df1a5a786f73",
        "raw/p01_ring.csv": "10a601437a5dd89fc70b508b50ce10417bb4fa5120511867b7465c5d58abba41",
        "raw/p01_watch.csv": "08981b6ea151b439fc3166d695ab12cab4ce0d54f0a2bd3306fb4ad6bc9bedad",
        "raw/p02_affect.csv": "c76c0f28df0079c9447c7275d0aa46393667b8ed20891dbbbfa359b9ad8953a1",
        "raw/p02_phone.csv": "210173c30fb8831a912b16f9c8a2cb0627c4312dc8a9fa9343057757a0727c48",
        "raw/p02_ring.csv": "1e8d1f95ae43951d62ba85008b7837ba5e8f2a00c59c78ee5bf0e217e8a3abc1",
        "raw/p02_watch.csv": "42baf625d69373a192c83ef6e530db4c52921909d61adc93bbfec5929c84c34f",
        "raw/p03_affect.csv": "077f583b7028ac991d9def28962b43b9394321635582f583f5f3979628ad1a97",
        "raw/p03_phone.csv": "2068ca697ac8cdfdbc34df3a0edc76035e41e4eaeb712e2a06b5557ef85cdbd5",
        "raw/p03_ring.csv": "53e6732c30f82be00279df33d3a973b39f6a5829a1ed2a022f39623520f48042",
        "raw/p03_watch.csv": "5c3d1c920e130588071e58525450a43b1b0821407051160b92bb45c01a2254c1",
        "report.json": "f78ae7429a78ce94c898fc6e2ac986730e09d20062d2c8f1ca6b2e4480672eff",
        "roc_points.csv": "0f15f08b2fedec0f22c7629d45357b3edcf721a66e285b44b31bde05d10bf5ee",
        "timelines/p01.json": "f7557e800ea3890c5713a9ed6bfb582b3d04454e22976e27277485271ed81dbc",
        "timelines/p02.json": "eff38255b301a367d7124da64636f5a83dd1c9689a90d8f35e12b843013ad220",
        "timelines/p03.json": "65a1a969df74fa9f1a3a981a2ccf8bba62eef4d4274916fcdfec8067ca5ccf56",
        "tvalues.csv": "1e781a29ba923bd395b338c587f7febdd762e08498d970be738a79cb05fcb110",
    },
}


@pytest.mark.parametrize("name, overrides", [("default", {}), ("pooled_mood", POOLED_MOOD)])
def test_tiny_run_artifacts_match_golden_digests(tmp_path, name, overrides):
    config = json.loads((ROOT / "configs" / "default_run.json").read_text(encoding="utf-8"))
    config.update(TINY_SECTIONS, **overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "out"
    run_pipeline(path, out_dir_override=out)
    digests = {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
    assert digests == GOLDEN[name]


# The raw files of a 3 x 70 cohort whose planted shift falls in its second
# month (February 2020).
SHIFTED_COHORT = {
        "ground_truth.json": "122c09a0163784b997814ee48a02a2cae3ad0cfb76512d3864f71efd63be3331",
        "p01_affect.csv": "a86b3dccfcc1c5e402003d5b1f127fa735767980e928a8433c0fd420779c8bd6",
        "p01_phone.csv": "d633658f54cc7326b00fb7e673dea656e8f321c8a805e09eb36161e2b1a7e135",
        "p01_ring.csv": "9134bc7c449f7ea8402942080fae21443ceeac416fb9c3bd05b9d5ca58b164f4",
        "p01_watch.csv": "851d9b5714d7171796eebb22ad535bb8efe54dae00dee0339a09c16169ed2bfc",
        "p02_affect.csv": "fa9edfe084fb12b1425691ff14810f13704463e1a1e3913178980b745d776fec",
        "p02_phone.csv": "530cb3acfee720514b675b50d1c685e22fb88a9e9a49cb60c151b158513624f6",
        "p02_ring.csv": "90d695aca8a2b175bd0396bab4fcbf03301b01743a3749bd374e805ec89c1ae2",
        "p02_watch.csv": "14f27a9e905d4ec56b266d5e849778032a1326d2568c779f83f61514f00d3e13",
        "p03_affect.csv": "f69f2bcde91ce0232e426abd49bb1481dc6cf44a9106eed33332d8eb415f833c",
        "p03_phone.csv": "85fbdc1ec26e19044c244c863c931e456210c800ccd35b97a94c4b7d34391e4c",
        "p03_ring.csv": "4dc3fece119cb858991f68094f12aa54771612896386c33ac3c39eea43b4e0cc",
        "p03_watch.csv": "0746a3dbdbbe6e265115b21640bb27a67f968da997419c9c0b1c7ca614253d6d",
}


def test_shifted_cohort_files_match_golden_digests(tmp_path):
    config = CohortConfig(n_participants=3, n_days=70, n_eligible=2, shift=PlantedShift(month_index=2))
    write_cohort(config, tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(tmp_path.iterdir())}
    assert digests == SHIFTED_COHORT


def compensated_sum(values, start=0):
    """sum() of floats as Python 3.12 and later add them (Neumaier)."""
    total, compensation = float(start), 0.0
    for value in values:
        added = total + value
        if abs(total) >= abs(value):
            compensation += (total - added) + value
        else:
            compensation += (value - added) + total
        total = added
    return total + compensation


def test_ground_truth_does_not_depend_on_how_sum_adds_floats(tmp_path, monkeypatch):
    monkeypatch.setattr(synth, "sum", compensated_sum, raising=False)
    config = CohortConfig(n_participants=3, n_days=70, n_eligible=2, shift=PlantedShift(month_index=2))
    truth = synth.write_cohort(config, tmp_path)
    assert truth["variance_shares_pa"]["ring"] == 0.5956284153005463
    digest = hashlib.sha256((tmp_path / "ground_truth.json").read_bytes()).hexdigest()
    assert digest == SHIFTED_COHORT["ground_truth.json"]
