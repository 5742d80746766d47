"""Parse-memo correctness: equivalence, bounds, and no state leaks.

The memo (:mod:`repro.nlp.parse_cache`) may only ever change *speed*,
never output.  These tests pin the three properties that make that
true: a memo hit materialises a parse identical to a fresh parse — also
when the hit is a different sentence of the same shape — the LRU bound
actually bounds the cache, and nothing cached carries document identity
— the same sentence mined under different document ids, sentence
indices, or character offsets yields judgments that each carry their
*own* identity.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analyzer import SentimentAnalyzer
from repro.core.miner import SentimentMiner
from repro.core.model import Subject
from repro.nlp.parse_cache import ParseMemo
from repro.nlp.parser import ShallowParser
from repro.nlp.postagger import PosTagger
from repro.nlp.sentences import SentenceSplitter
from repro.nlp.tokenizer import Tokenizer
from repro.nlp.tokens import TaggedSentence, TaggedToken, Token


def tag_text(text: str) -> list[TaggedSentence]:
    tagger = PosTagger()
    splitter = SentenceSplitter(Tokenizer())
    return [tagger.tag(s) for s in splitter.split_text(text)]


class TestMemoEquivalence:
    def test_hit_materialises_identical_parse(self):
        parser = ShallowParser()
        memo = ParseMemo(parser, maxsize=8)
        [tagged] = tag_text("The camera produces excellent pictures.")

        first, cached_first = memo.parse_with_status(tagged)
        second, cached_second = memo.parse_with_status(tagged)

        assert not cached_first and cached_second
        assert first == parser.parse(tagged)
        assert second == first

    def test_shift_invariance_across_offsets(self):
        # The same sentence text at two different character positions:
        # one shape, one parse slot, and the materialised hit carries
        # the *caller's* offsets, not the first occurrence's.
        parser = ShallowParser()
        memo = ParseMemo(parser, maxsize=8)
        sentence = "The zoom works great."
        [shifted_a] = tag_text(sentence)
        prefix, shifted_b = tag_text("I bought it. " + sentence)

        assert memo.shape(shifted_a) == memo.shape(shifted_b)
        assert shifted_a.tokens[0].start != shifted_b.tokens[0].start

        memo.parse(shifted_a)
        parse_b, cached = memo.parse_with_status(shifted_b)
        assert cached
        assert parse_b == parser.parse(shifted_b)
        # Offsets in the materialised parse belong to shifted_b.
        assert parse_b.clauses[0].predicate.tokens[0].start > prefix.tokens[0].start

    def test_same_shape_different_text_hits(self):
        # Different words under one tag sequence: one slot, and the hit
        # carries the caller's own words and predicate lemma.
        parser = ShallowParser()
        memo = ParseMemo(parser, maxsize=8)
        [first] = tag_text("The camera produces excellent pictures.")
        [second] = tag_text("The lens gives sharp images.")

        assert memo.shape(first) == memo.shape(second)
        memo.parse(first)
        parse, cached = memo.parse_with_status(second)
        assert cached
        assert parse == parser.parse(second)
        assert parse.clauses[0].predicate_lemma == "give"

    def test_copular_and_transitive_verbs_do_not_share_a_slot(self):
        # Same tags (DT NN VBZ DT NN .), but a copular verb makes the
        # post-verbal NP its complement and a transitive one its object.
        parser = ShallowParser()
        memo = ParseMemo(parser, maxsize=8)
        [copular] = tag_text("The camera looks a bargain.")
        [transitive] = tag_text("The camera takes a picture.")
        assert copular.tags == transitive.tags

        memo.parse(copular)
        parse, cached = memo.parse_with_status(transitive)
        assert not cached
        assert parse == parser.parse(transitive)
        [clause] = parse.clauses
        assert clause.complement is None
        assert [o.text for o in clause.objects] == ["a picture"]

    def test_negation_is_recomputed_for_the_caller(self):
        # One shape; the determiner "no" sits inside the 24-character
        # window before the verb in the first sentence, outside it in
        # the second.  A negator in one clause never negates the next.
        parser = ShallowParser()
        memo = ParseMemo(parser, maxsize=8)
        for first, second, negated in (
            ("No cheap lens works.", "No expensive photographer works.", [False]),
            ("The zoom is not bad and works.", "The lens is not great and focuses.", [True, False]),
        ):
            [a] = tag_text(first)
            [b] = tag_text(second)
            memo.parse(a)
            parse, cached = memo.parse_with_status(b)
            assert cached
            assert parse == parser.parse(b)
            assert [clause.negated for clause in parse.clauses] == negated

    def test_disabled_memo_never_caches(self):
        parser = ShallowParser()
        memo = ParseMemo(parser, maxsize=0)
        [tagged] = tag_text("The battery died quickly.")
        for _ in range(3):
            parse, cached = memo.parse_with_status(tagged)
            assert not cached
            assert parse == parser.parse(tagged)
        assert len(memo) == 0
        assert memo.hits == 0 and memo.misses == 0


#: Words per template slot; a slot is a tag, or ``tag/kind`` where one
#: tag has two word classes.  Open-class pools vary in length, so the
#: negation window's 24 characters fall on both sides of a negator; the
#: verb pools mix copular and transitive verbs; closed-class pools vary
#: the text the shape keys on.
_WORDS_BY_SLOT = {
    "DT": ("the", "a", "this", "no"),
    "NN": ("ui", "zoom", "camera", "bargain", "picture", "photographer", "responsiveness"),
    "NNS": ("pictures", "lenses", "manufacturers"),
    "NNP": ("Sony", "Nikon"),
    "JJ": ("bad", "great", "expensive", "disappointing", "extraordinary"),
    "RB": ("well", "really", "never", "not", "hardly", "quickly", "surprisingly"),
    "VBZ": ("is", "looks", "seems", "becomes", "takes", "produces", "works", "gets"),
    "VBD": ("was", "looked", "remained", "took", "produced", "failed"),
    "VB": ("be", "look", "stay", "take", "produce", "work"),
    "VBN": ("been", "improved", "taken"),
    "VBG": ("being", "looking", "taking"),
    "MD": ("can", "will", "should"),
    "IN": ("of", "in", "with", "for", "on"),
    "IN/sub": ("because", "if", "that", "although", "unless"),
    "TO": ("to",),
    "CC": ("and", "but"),
    "PRP": ("it", "they"),
    ",": (",",),
    ".": (".",),
}

#: Sentence templates as slot sequences: copular-or-transitive verb plus
#: NP, negators before and after the verb, a modal-only group, an
#: auxiliary chain, PPs, and coordinated and subordinate clauses (with a
#: negator in one clause near the next clause's verb).
_TEMPLATES = (
    "DT NN VBZ DT NN .",
    "DT JJ NN NN VBZ DT NN .",
    "DT NN VBZ RB DT NN .",
    "DT NN RB VBZ JJ .",
    "DT NN VBD DT NN IN DT NN .",
    "PRP MD RB .",
    "DT NN MD VB DT NN .",
    "DT NN VBZ VBN IN NNS .",
    "IN/sub DT NN VBZ JJ , DT NN VBZ DT NN .",
    "DT NN VBZ JJ CC VBZ DT NN .",
    "DT NN VBZ RB JJ CC VBZ .",
    "DT NN IN NNP VBZ TO DT NN .",
    "DT NN VBZ DT NN IN/sub PRP VBD JJ .",
    "PRP VBD RB JJ IN/sub PRP VBZ RB .",
    "DT NN VBZ JJ IN DT NN .",
    "DT NN IN DT NN VBZ JJ .",
    "IN DT NN , DT NN VBZ JJ .",
    "PRP VBZ TO VB DT NN IN NNS .",
)

#: Mostly templates, sometimes any slot sequence at all.
_template = st.one_of(
    *[st.sampled_from(_TEMPLATES).map(str.split)] * 3,
    st.lists(st.sampled_from(sorted(_WORDS_BY_SLOT)), min_size=2, max_size=12),
)


@st.composite
def same_shape_pair(draw) -> tuple[TaggedSentence, TaggedSentence]:
    """Two tagged sentences over one slot sequence with independent words.

    The second redraws the words of a drawn set of slots, often small
    (so a pair can differ in one closed-class word alone).  Both draw their
    own spacing (one to three spaces before each token, none before the
    first), so negator-to-verb distances differ.
    """
    slots = draw(_template)

    def build(words: list[str]) -> TaggedSentence:
        tokens, position = [], 0
        for i, (word, slot) in enumerate(zip(words, slots)):
            position += draw(st.integers(1, 3)) if i else 0
            token = Token(word, position, position + len(word))
            tokens.append(TaggedToken(token, slot.split("/")[0]))
            position += len(word)
        return TaggedSentence(tokens)

    first = [draw(st.sampled_from(_WORDS_BY_SLOT[slot])) for slot in slots]
    changed = draw(st.sets(st.sampled_from(range(len(slots))), min_size=1))
    second = [
        draw(st.sampled_from(_WORDS_BY_SLOT[slot])) if i in changed else word
        for i, (word, slot) in enumerate(zip(first, slots))
    ]
    return build(first), build(second)


def chunk_spans(clause):
    """The span of every chunk of *clause*, role by role."""
    return (
        clause.predicate.span,
        clause.subject.span if clause.subject else None,
        [o.span for o in clause.objects],
        clause.complement.span if clause.complement else None,
        [pp.noun_phrase.span for pp in clause.prep_phrases],
    )


class TestShapeHits:
    @settings(max_examples=400, deadline=None)
    @given(pair=same_shape_pair())
    def test_shape_hit_equals_fresh_parse(self, pair):
        # Compared clause by clause so a failure names the field.
        first, second = pair
        parser = ShallowParser()
        memo = ParseMemo(parser, maxsize=8)
        memo.parse(first)
        parse, cached = memo.parse_with_status(second)
        assert cached == (memo.shape(first) == memo.shape(second))
        fresh = parser.parse(second)
        assert len(parse.clauses) == len(fresh.clauses)
        for got, want in zip(parse.clauses, fresh.clauses):
            assert got.predicate == want.predicate
            assert got.predicate_lemma == want.predicate_lemma
            assert got.negated == want.negated
            assert got.subject == want.subject
            assert got.objects == want.objects
            assert got.complement == want.complement
            assert got.prep_phrases == want.prep_phrases
            assert got.hypothetical == want.hypothetical
            # ``Chunk.span`` is left out of ``==``: compare it directly.
            assert chunk_spans(got) == chunk_spans(want)
        assert parse == fresh


class TestMemoBounds:
    def test_lru_bound_respected(self):
        memo = ParseMemo(ShallowParser(), maxsize=4)
        # One more adverb each time: ten distinct shapes.
        sentences = [
            tag_text("The camera " + "really " * i + "works.")[0] for i in range(10)
        ]
        assert len({memo.shape(tagged) for tagged in sentences}) == 10
        for tagged in sentences:
            memo.parse(tagged)
            assert len(memo) <= 4
        assert memo.misses == 10 and memo.hits == 0

    def test_least_recently_used_is_evicted(self):
        memo = ParseMemo(ShallowParser(), maxsize=2)
        a, b, c = (
            tag_text("The camera is great.")[0],
            tag_text("I love the zoom.")[0],
            tag_text("It works.")[0],
        )
        assert len({memo.shape(a), memo.shape(b), memo.shape(c)}) == 3
        memo.parse(a)
        memo.parse(b)
        memo.parse(a)  # refresh a; b is now LRU
        memo.parse(c)  # evicts b
        _, cached_a = memo.parse_with_status(a)
        _, cached_b = memo.parse_with_status(b)
        assert cached_a
        assert not cached_b

    def test_clear_empties_cache(self):
        memo = ParseMemo(ShallowParser(), maxsize=8)
        memo.parse(tag_text("The camera is great.")[0])
        assert len(memo) == 1
        memo.clear()
        assert len(memo) == 0
        _, cached = memo.parse_with_status(tag_text("The camera is great.")[0])
        assert not cached


class TestNoStateLeaks:
    def test_document_identity_never_leaks_across_hits(self):
        # Mine the same text under three different document ids.  Docs 2
        # and 3 are served from the memo; every judgment must still carry
        # its own document_id and sentence_index.
        text = "The camera is excellent. I love the zoom."
        subjects = [Subject("camera"), Subject("zoom")]
        miner = SentimentMiner(subjects=subjects)
        memo = miner.analyzer.parse_memo

        results = [miner.mine_document(text, f"doc-{i}") for i in range(3)]

        assert memo.hits > 0  # the fast path actually engaged
        reference = results[0]
        for i, result in enumerate(results):
            assert len(result.judgments) == len(reference.judgments) > 0
            for judgment, expected in zip(result.judgments, reference.judgments):
                assert judgment.spot.document_id == f"doc-{i}"
                assert judgment.spot.sentence_index == expected.spot.sentence_index
                assert judgment.polarity == expected.polarity
                assert judgment.provenance == expected.provenance

    def test_memoised_judgments_equal_memo_free_judgments(self):
        text = (
            "The camera produces excellent pictures. "
            "The camera produces excellent pictures. "
            "I hate the battery."
        )
        subjects = [Subject("camera"), Subject("battery")]
        fast = SentimentAnalyzer().analyze_text(text, subjects, "d1")
        slow = SentimentAnalyzer(parse_memo_size=0).analyze_text(text, subjects, "d1")
        assert fast == slow

    def test_hits_are_read_only_with_respect_to_cache(self):
        # A caller mutating the returned parse must not poison later hits.
        parser = ShallowParser()
        memo = ParseMemo(parser, maxsize=8)
        [tagged] = tag_text("The camera is great.")
        first = memo.parse(tagged)
        first.clauses.clear()
        second, cached = memo.parse_with_status(tagged)
        assert cached
        assert second == parser.parse(tagged)


class TestAnalyzerWiring:
    def test_analyzer_exposes_memo_and_counts(self):
        analyzer = SentimentAnalyzer(parse_memo_size=16)
        assert analyzer.parse_memo.maxsize == 16
        subjects = [Subject("camera")]
        analyzer.analyze_text("The camera is great.", subjects, "d1")
        analyzer.analyze_text("The camera is great.", subjects, "d2")
        assert analyzer.parse_memo.hits >= 1

    def test_memo_disabled_via_constructor(self):
        analyzer = SentimentAnalyzer(parse_memo_size=0)
        subjects = [Subject("camera")]
        analyzer.analyze_text("The camera is great.", subjects, "d1")
        analyzer.analyze_text("The camera is great.", subjects, "d2")
        assert analyzer.parse_memo.hits == 0
        assert len(analyzer.parse_memo) == 0


class TestTagAndSplitMemos:
    """The sentence-tag and split-text memos obey the same contract as
    the parse memo: pure speed, fresh objects per call, caller offsets."""

    def test_tag_memo_matches_memo_free_tagger(self):
        memoised = PosTagger(memo_size=16)
        plain = PosTagger(memo_size=0)
        for text in ("The camera is great. I love it.", "The camera is great."):
            for sentence in SentenceSplitter(Tokenizer(), memo_size=0).split_text(text):
                assert memoised.tag(sentence) == plain.tag(sentence)

    def test_tag_memo_hit_carries_caller_offsets(self):
        tagger = PosTagger(memo_size=16)
        splitter = SentenceSplitter(Tokenizer(), memo_size=0)
        [first] = splitter.split_text("The camera is great.")
        _, second = splitter.split_text("Yes. The camera is great.")
        tagger.tag(first)
        tagged = tagger.tag(second)
        assert [t.tag for t in tagged] == [t.tag for t in tagger.tag(first)]
        assert tagged.tokens[0].start == second.tokens[0].start
        assert tagged.index == second.index

    def test_split_memo_returns_fresh_sentences(self):
        splitter = SentenceSplitter(Tokenizer(), memo_size=8)
        text = "The camera is great. The zoom is bad."
        first = splitter.split_text(text)
        first[0].tokens.clear()  # caller vandalism must not poison the memo
        second = splitter.split_text(text)
        assert second == SentenceSplitter(Tokenizer(), memo_size=0).split_text(text)
        assert [s.index for s in second] == [0, 1]

    def test_split_memo_matches_memo_free_splitter(self):
        memoised = SentenceSplitter(Tokenizer(), memo_size=8)
        plain = SentenceSplitter(Tokenizer(), memo_size=0)
        text = 'He said "wow!" twice. Really? Yes... and no. See fig. 3.'
        for _ in range(3):
            assert memoised.split_text(text) == plain.split_text(text)
