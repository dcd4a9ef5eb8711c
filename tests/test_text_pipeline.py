import random

import pytest

from botlstm.errors import DataError
from botlstm.text_pipeline import (
    OOV_ID,
    RESERVED_TOKENS,
    SPECIAL_TOKENS,
    Vocabulary,
    build_vocabulary,
    encode,
    normalize_token,
    tokenize,
)


class TestNormalizeToken:
    def test_hashtag(self):
        assert normalize_token("#usopen2019") == "<HASHTAG>"
        assert normalize_token("#SheTheNorth") == "<HASHTAG>"

    def test_mention(self):
        assert normalize_token("@jack") == "<USER>"

    def test_url(self):
        assert normalize_token("http://t.co/abc") == "<URL>"
        assert normalize_token("https://example.com/x?y=1") == "<URL>"
        assert normalize_token("HTTP://T.CO/ABC") == "<URL>"

    def test_plain_word_lowercased(self):
        assert normalize_token("Hello") == "hello"

    def test_rt_marker(self):
        assert normalize_token("RT") == "<RT>"
        assert normalize_token("rt") == "<RT>"
        assert normalize_token("Rt") == "rt"  # only the two exact spellings map

    def test_rt_toggle(self):
        assert normalize_token("RT", map_rt=False) == "rt"

    def test_special_tokens_pass_through(self):
        for tok in SPECIAL_TOKENS:
            assert normalize_token(tok) == tok

    def test_bare_scheme_is_not_a_url(self):
        assert normalize_token("http://") == "http://"

    def test_punctuation_only_prefix_is_not_meme(self):
        assert normalize_token("#") == "#"
        assert normalize_token("@") == "@"


class TestTokenize:
    def test_full_tweet(self):
        got = tokenize("RT @jack: great! #news http://t.co/x")
        assert got == ["<RT>", "<USER>", ":", "great", "!", "<HASHTAG>", "<URL>"]

    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    def test_punctuation_detach(self):
        assert tokenize("lol, thanks") == ["lol", ",", "thanks"]
        assert tokenize("(great!)") == ["(", "great", "!", ")"]
        assert tokenize("'hello'") == ["'", "hello", "'"]

    def test_all_punctuation_chunk(self):
        assert tokenize("...") == [".", ".", "."]

    def test_inner_apostrophe_kept(self):
        assert tokenize("don't stop") == ["don't", "stop"]

    def test_url_keeps_trailing_punctuation(self):
        # URLs own their punctuation: the chunk is not split up
        assert tokenize("see http://t.co/x.") == ["see", "<URL>"]

    def test_detached_core_can_become_special(self):
        assert tokenize("(#news)") == ["(", "<HASHTAG>", ")"]

    def test_rt_toggle(self):
        assert tokenize("RT hi", map_rt=False) == ["rt", "hi"]

    def test_unicode_whitespace_split(self):
        assert tokenize("a b c") == ["a", "b", "c"]

    def test_determinism_and_invariants_fuzzed(self):
        pool = (
            "abcdefgh ABCDEFGH 0123 #@:/.,!?;'\"()[]<>"
            "éßİ世界 \t\n  "
        )
        rnd = random.Random(1234)
        for _ in range(2000):
            s = "".join(rnd.choice(pool) for _ in range(rnd.randrange(0, 40)))
            first = tokenize(s)
            assert first == tokenize(s)
            for tok in first:
                assert tok
                assert not any(ch.isspace() for ch in tok)
                if tok.startswith("<") and tok.endswith(">") and tok.isupper():
                    assert tok in SPECIAL_TOKENS


class TestVocabulary:
    def test_reserved_ids_fixed(self):
        vocab = build_vocabulary([], set())
        assert len(vocab) == 6
        for i, tok in enumerate(RESERVED_TOKENS):
            assert vocab.id_of(tok) == i
            assert vocab.surface_of(i) == tok

    def test_surface_of_out_of_range_rejected(self):
        vocab = build_vocabulary([], set())
        for token_id in (-1, len(vocab)):
            with pytest.raises(ValueError, match="out of range"):
                vocab.surface_of(token_id)

    def test_intersection(self):
        vocab = build_vocabulary([["cat", "zzqx"]], {"cat", "dog"})
        assert "cat" in vocab
        assert "zzqx" not in vocab
        assert "dog" not in vocab

    def test_reserved_kept_with_corpus_specials(self):
        vocab = build_vocabulary([["<URL>", "cat"]], {"cat"})
        assert vocab.id_of("<URL>") == 4
        assert vocab.id_of("cat") == 6

    def test_first_appearance_order(self):
        vocab = build_vocabulary([["b", "a"], ["a", "c"]], {"a", "b", "c"})
        assert vocab.id_of("b") == 6
        assert vocab.id_of("a") == 7
        assert vocab.id_of("c") == 8

    def test_bijective(self):
        corpus = [["alpha", "beta", "gamma", "alpha"]]
        vocab = build_vocabulary(corpus, {"alpha", "beta", "gamma"})
        ids = [vocab.id_of(s) for s in vocab.surfaces]
        assert ids == list(range(len(vocab)))
        assert len(set(vocab.surfaces)) == len(vocab)

    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocabulary([["cat", "dog"]], {"cat", "dog"})
        path = tmp_path / "vocab.tsv"
        vocab.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "<PAD>\t0"
        assert Vocabulary.load(path) == vocab

    def test_load_rejects_malformed(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("<PAD>\tzero\n", encoding="utf-8")
        with pytest.raises(DataError):
            Vocabulary.load(path)

    @pytest.mark.parametrize("bad_id", ["\u00b2", "\u0666"], ids=["superscript-2", "arabic-6"])
    def test_load_requires_ascii_digit_ids(self, tmp_path, bad_id):
        # str.isdigit() passes both, and int() rejects the superscript
        path = tmp_path / "vocab.tsv"
        lines = [f"{s}\t{i}" for i, s in enumerate(RESERVED_TOKENS)]
        path.write_text("\n".join(lines + [f"love\t{bad_id}"]) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="malformed vocabulary line 7$"):
            Vocabulary.load(path)

    def test_load_rejects_non_dense_ids(self, tmp_path):
        path = tmp_path / "vocab.tsv"
        path.write_text("<PAD>\t0\n<OOV>\t2\n", encoding="utf-8")
        with pytest.raises(DataError):
            Vocabulary.load(path)


class TestEncode:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary([["cat", "dog"]], {"cat", "dog"})

    def test_direct_lookup(self, vocab):
        assert encode(["cat"], vocab) == [6]

    def test_oov(self, vocab):
        assert encode(["zzqx"], vocab) == [OOV_ID]

    def test_composition(self, vocab):
        assert encode(["<HASHTAG>", "zzqx", "cat"], vocab) == [2, 1, 6]

    def test_length_preserved(self, vocab):
        tokens = ["cat", "dog", "bird", "<URL>", "cat"]
        assert len(encode(tokens, vocab)) == len(tokens)

    def test_round_trip_for_in_vocab(self, vocab):
        for tok in vocab.surfaces:
            assert vocab.surface_of(vocab.id_of(tok)) == tok

    def test_ids_below_vocab_size(self, vocab):
        rnd = random.Random(7)
        words = ["cat", "dog", "x", "#tag", "@u", "http://t.co/a"]
        for _ in range(200):
            tweet = " ".join(rnd.choice(words) for _ in range(rnd.randrange(1, 8)))
            for i in encode(tokenize(tweet), vocab):
                assert 0 <= i < len(vocab)
