"""Synthetic corpus generator and JSONL round-trip tests."""

import json

import pytest

from promptcal.corpus import (
    CorpusRecord,
    corpus_digest,
    generate_corpus,
    load_corpus,
    require_impressions,
    save_corpus,
)
from promptcal.errors import ContractError


class TestGenerator:
    def test_seeded_determinism(self):
        a = generate_corpus(50, seed=3)
        b = generate_corpus(50, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        assert generate_corpus(10, seed=1) != generate_corpus(10, seed=2)

    def test_size(self):
        assert len(generate_corpus(0, seed=1)) == 0
        assert len(generate_corpus(17, seed=1)) == 17

    def test_records_are_valid(self):
        for r in generate_corpus(100, seed=9):
            assert r.findings.strip()
            assert r.impression.strip()
            assert r.id

    def test_negative_size_rejected(self):
        with pytest.raises(ContractError):
            generate_corpus(-1, seed=0)

    def test_impression_content_appears_in_findings(self):
        # impression words come from the findings body, apart from the small
        # fixed set of abstractive rephrasings the templates introduce
        rephrasings = {"stable", "improved", "worsened"}
        for r in generate_corpus(30, seed=4):
            findings_words = set(r.findings.replace(".", " ").split())
            for word in r.impression.replace(".", " ").split():
                assert word in findings_words or word in rephrasings, (word, r.findings)


class TestJsonl:
    def test_round_trip(self, tmp_path):
        records = generate_corpus(25, seed=5)
        path = tmp_path / "corpus.jsonl"
        save_corpus(records, path)
        assert load_corpus(path) == records

    def test_each_line_is_valid_json(self, tmp_path):
        records = generate_corpus(5, seed=6)
        path = tmp_path / "corpus.jsonl"
        save_corpus(records, path)
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            assert set(obj) == {"id", "findings", "impression"}

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x", "findings": "f", "impression": "i"}\nnot json\n')
        with pytest.raises(ContractError, match="bad.jsonl:2"):
            load_corpus(path)

    @pytest.mark.parametrize("line, message", [
        ("[1, 2]", "not a JSON object"),
        ('"text"', "not a JSON object"),
        ('{"id": "x", "findings": null, "impression": "i"}', "'findings' is not a string"),
        ('{"id": "x", "findings": "f", "impression": 3}', "'impression' is not a string"),
        ('{"findings": "f"}', "no 'id'"),
    ], ids=["array", "string", "null-findings", "number-impression", "no-id"])
    def test_line_that_is_not_an_object_of_strings_rejected(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "x", "findings": "f", "impression": "i"}\n' + line + "\n")
        with pytest.raises(ContractError, match=f"bad.jsonl:2: malformed corpus record: {message}"):
            load_corpus(path)

    def test_missing_impression_tolerated_at_load(self, tmp_path):
        # inference-only records may omit the impression; training paths reject them
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "x", "findings": "f"}\n')
        records = load_corpus(path)
        assert records[0].impression == ""
        with pytest.raises(ContractError, match="'x'"):
            require_impressions(records)

    def test_empty_findings_rejected(self):
        with pytest.raises(ContractError):
            CorpusRecord(id="x", findings="  ", impression="i")


class TestDigest:
    def test_stable_and_content_sensitive(self):
        a = generate_corpus(10, seed=7)
        assert corpus_digest(a) == corpus_digest(generate_corpus(10, seed=7))
        assert corpus_digest(a) != corpus_digest(generate_corpus(10, seed=8))
