"""Golden-corpus regression gate for the hot path (tier-1).

Three seeded corpora have their full mining output — spots, polarities,
provenance, and audit decisions — frozen under ``tests/fixtures/golden/``.
Re-mining must reproduce the fixtures byte-for-byte on *both* the
unbatched and the batched optimized paths, and on the naive reference
path.  Any change to spotting, tagging, parsing, pattern matching, or
batching that shifts semantics fails here loudly.

After an intentional semantics change, regenerate with::

    PYTHONPATH=src python -m tests.support.golden
"""

import json

from repro.obs import Obs

from tests.support import golden
from tests.support.reference import ReferenceSubjectSpotter, reference_analyzer
from repro.core.miner import SentimentMiner
from repro.core.disambiguation import Disambiguator, TopicTermSet
from repro.corpora import DIGITAL_CAMERA


class TestGoldenCameraModeA:
    def test_unbatched_matches_fixture(self):
        fixture = golden.load_fixture("camera_modeA.json")
        report = golden.mining_report(golden.mine_camera(batched=False))
        assert report == fixture

    def test_batched_matches_fixture(self):
        fixture = golden.load_fixture("camera_modeA.json")
        report = golden.mining_report(golden.mine_camera(batched=True))
        assert report == fixture

    def test_reference_path_matches_fixture(self):
        # The naive n-gram spotter + memo-free analyzer must agree with
        # the frozen output too: the fixture pins the *semantics*, not
        # one implementation.
        terms = TopicTermSet.build(
            on_topic=list(DIGITAL_CAMERA.features) + ["camera", "photo", "picture"]
        )
        obs = Obs.enabled()
        subjects = golden.camera_subjects()
        miner = SentimentMiner(
            subjects=subjects,
            analyzer=reference_analyzer(obs=obs),
            disambiguator=Disambiguator(terms),
            obs=obs,
            spotter=ReferenceSubjectSpotter(subjects),
        )
        report = golden.mining_report(miner.mine_corpus(golden.camera_documents()))
        assert report == golden.load_fixture("camera_modeA.json")

    def test_fixture_round_trips_as_canonical_json(self):
        # The frozen file must already be in canonical form (sorted keys),
        # so diffs stay reviewable.
        raw = open(golden.fixture_path("camera_modeA.json"), encoding="utf-8").read()
        assert raw == json.dumps(json.loads(raw), indent=1, sort_keys=True) + "\n"


class TestGoldenMusicModeB:
    def test_open_mining_matches_fixture(self):
        fixture = golden.load_fixture("music_modeB.json")
        report = golden.mining_report(golden.mine_music_open())
        assert report == fixture

    def test_batched_open_mining_matches_fixture(self):
        fixture = golden.load_fixture("music_modeB.json")
        report = golden.mining_report(golden.mine_music_open(batched=True))
        assert report == fixture

    def test_open_mining_memo_free_matches_fixture(self):
        # Mode B with parse memoisation disabled must agree as well.
        obs = Obs.enabled()
        miner = SentimentMiner(analyzer=reference_analyzer(obs=obs), obs=obs)
        report = golden.mining_report(miner.mine_corpus(golden.music_documents()))
        assert report == golden.load_fixture("music_modeB.json")


class TestGoldenWebModeA:
    def test_unbatched_matches_fixture(self):
        report = golden.mining_report(golden.mine_web(batched=False))
        assert report == golden.load_fixture("web_modeA.json")

    def test_batched_matches_fixture(self):
        report = golden.mining_report(golden.mine_web(batched=True))
        assert report == golden.load_fixture("web_modeA.json")

    def test_reference_path_matches_fixture(self):
        obs = Obs.enabled()
        subjects = golden.web_subjects()
        miner = SentimentMiner(
            subjects=subjects,
            analyzer=reference_analyzer(obs=obs),
            disambiguator=Disambiguator(golden.web_topic_terms()),
            obs=obs,
            spotter=ReferenceSubjectSpotter(subjects),
        )
        report = golden.mining_report(miner.mine_corpus(golden.web_documents()))
        assert report == golden.load_fixture("web_modeA.json")
