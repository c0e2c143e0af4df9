"""Knowledge graph: loading, entity matching, path enumeration, verbalization."""

from __future__ import annotations

import io
import re
import string
import sys

import pytest
from hypothesis import assume, example, given, strategies as st

from dxcouncil.config import RunConfig
from dxcouncil.errors import GatewayError, KgError, ResourceError
from dxcouncil.gateway import (
    Gateway,
    ReplayChatBackend,
    RecordingBackend,
    ScriptedResponder,
    TaskKind,
    TranscriptRecorder,
)
from dxcouncil.kg import (
    Concept,
    Edge,
    KnowledgeGraph,
    _Lexicon,
    load_kg,
    normalize_term,
    read_concepts,
    term_tokens,
    verbalize_path,
)
from dxcouncil.trace import Trace

from conftest import FIXTURES, make_graph, scripted_gateway


CONCEPTS_TSV = (
    "# id\tname\tsynonyms\ttypes\n"
    "c1\tJaundice\tyellow skin|icterus\tFinding\n"
    "c2\tCholestasis\t\tMechanism\n"
    "c3\tPrimary biliary cholangitis\tPBC\tDisease\n"
)
TRIPLES_TSV = (
    "c1\tindicates\tc2\n"
    "c2\tleads_to\tc3\n"
)


def test_load_counts_concepts_and_edges():
    g = load_kg(io.StringIO(TRIPLES_TSV), io.StringIO(CONCEPTS_TSV))
    assert [p.describe() for p in g.enumerate_paths("c1", "c3", RunConfig.h_max)] == [
        "Jaundice --[indicates]--> Cholestasis --[leads_to]--> Primary biliary cholangitis"]
    assert g.concept("c1").preferred_name == "Jaundice"
    assert g.concept("c3").synonyms == frozenset({"PBC"})


def test_duplicated_triple_counted_once():
    g = load_kg(io.StringIO(TRIPLES_TSV + "c1\tindicates\tc2\n"),
                io.StringIO(CONCEPTS_TSV))
    assert [p.edge_key() for p in g.enumerate_paths("c1", "c2", h_max=1)] == [
        (("c1", "indicates", "c2"),)]


def test_dangling_reference_is_an_error():
    with pytest.raises(ResourceError,
                       match="^<stream>:3: triple references unknown concept id 'c9'$"):
        load_kg(io.StringIO(TRIPLES_TSV + "c1\tindicates\tc9\n"),
                io.StringIO(CONCEPTS_TSV))


def test_malformed_concept_line_reports_position():
    with pytest.raises(ResourceError,
                       match="^<stream>:1: expected 4 tab-separated fields, got 2$"):
        load_kg(io.StringIO(""), io.StringIO("c1\tonly two fields\n"))


def test_duplicate_concept_id_rejected():
    bad = CONCEPTS_TSV + "c1\tAnother\t\t\n"
    with pytest.raises(ResourceError, match="^<stream>:5: duplicate concept id 'c1'$"):
        load_kg(io.StringIO(TRIPLES_TSV), io.StringIO(bad))


def test_a_concept_name_holding_a_line_separator_stays_one_row(tmp_path):
    # str.splitlines would split the row at U+2028
    path = tmp_path / "concepts.tsv"
    path.write_text("c1\tJaundice\u2028yellow skin\ticterus\tFinding\n", encoding="utf-8")
    [concept] = read_concepts(path)
    assert concept.preferred_name == "Jaundice\u2028yellow skin"
    assert concept.synonyms == frozenset({"icterus"})


def test_unknown_concept_lookup():
    g = load_kg(io.StringIO(TRIPLES_TSV), io.StringIO(CONCEPTS_TSV))
    with pytest.raises(KgError, match="^unknown concept id 'nope'$"):
        g.concept("nope")


# -- entity matching ---------------------------------------------------------

def test_exact_synonym_outranks_token_overlap():
    g = make_graph(
        ["alt", "ast"],
        [],
        names={"alt": "Alanine aminotransferase increased",
               "ast": "Elevated AST"},
        synonyms={"alt": frozenset({"Elevated ALT"})},
    )
    matches = g.match_entity("Elevated ALT", limit=5)
    assert matches[0].concept.id == "alt"
    assert matches[0].kind == "exact_synonym"
    assert matches[0].score == 1.0
    # the token-overlap neighbour is still offered, but strictly after
    assert [m.concept.id for m in matches] == ["alt", "ast"]
    assert matches[1].kind == "token_overlap"


def test_punctuation_and_case_normalize_to_exact_match():
    g = make_graph(["c1"], [], names={"c1": "Jaundice"})
    matches = g.match_entity("jaundice!!", limit=5)
    assert matches[0].concept.id == "c1"
    assert matches[0].kind == "exact_name"
    assert matches[0].score == 1.0


def test_zero_overlap_concepts_excluded():
    g = make_graph(["c1"], [], names={"c1": "Jaundice"})
    assert g.match_entity("splenomegaly", limit=5) == []


def test_match_entity_rejects_bad_arguments():
    g = make_graph(["c1"], [], names={"c1": "Jaundice"})
    with pytest.raises(ValueError):
        g.match_entity("jaundice", limit=0)
    assert g.match_entity("!!!", limit=5) == []


def _oracle_match(graph: KnowledgeGraph, mention: str, limit: int):
    """Brute-force reimplementation of the documented ranking."""
    mention_norm = normalize_term(mention)
    mtoks = term_tokens(mention)
    rows = []
    for concept in graph.concepts():
        if normalize_term(concept.preferred_name) == mention_norm:
            rows.append((0, -1.0, concept.id))
            continue
        if any(normalize_term(s) == mention_norm for s in concept.synonyms):
            rows.append((1, -1.0, concept.id))
            continue
        best = 0.0
        for name in concept.matchable_names():
            ntoks = term_tokens(name)
            if ntoks and (mtoks | ntoks):
                best = max(best, len(mtoks & ntoks) / len(mtoks | ntoks))
        if best > 0.0:
            rows.append((2, -best, concept.id))
    rows.sort()
    return [(cid, -neg, tier) for tier, neg, cid in rows[:limit]]


def _ranking(graph: KnowledgeGraph, mention: str, limit: int):
    return [(m.concept.id, m.score, {"exact_name": 0, "exact_synonym": 1,
                                     "token_overlap": 2}[m.kind])
            for m in graph.match_entity(mention, limit=limit)]


@pytest.mark.parametrize("mention", [
    "liver pain", "elevated alt", "Jaundice", "hepatitis B surface antigen",
    "itching of the skin", "fluid in the abdomen", "PBC", "fatty liver",
])
def test_top3_ranking_matches_brute_force(fixture_graph, mention):
    assert _ranking(fixture_graph, mention, 3) == _oracle_match(fixture_graph, mention, 3)


_FIXTURE_NAMES = sorted(
    name
    for concept in load_kg(FIXTURES / "triples.tsv", FIXTURES / "concepts.tsv").concepts()
    for name in concept.matchable_names())
_FIXTURE_TOKENS = sorted({token for name in _FIXTURE_NAMES for token in term_tokens(name)})


@st.composite
def noisy_mentions(draw):
    """A fixture name, or a run of fixture name tokens, with case and
    punctuation noise that normalization must remove."""
    words = draw(st.one_of(
        st.sampled_from(_FIXTURE_NAMES).map(str.split),
        st.lists(st.sampled_from(_FIXTURE_TOKENS), min_size=1, max_size=5)))
    noisy = [draw(st.sampled_from([w, w.upper(), w.lower(), w.title()]))
             + draw(st.sampled_from(["", ",", ".", "!", "?", ")"]))
             for w in words]
    return draw(st.sampled_from([" ", "  ", " - ", "/"])).join(noisy)


@given(noisy_mentions())
def test_full_ranking_matches_brute_force(fixture_graph, mention):
    assume(normalize_term(mention))
    assert _ranking(fixture_graph, mention, 50) == _oracle_match(fixture_graph, mention, 50)


def _exact_top(graph: KnowledgeGraph, mention: str):
    top = graph.match_entity(mention, limit=1)
    return top[0].concept if top and top[0].exact else None


@given(st.one_of(noisy_mentions(), st.text(max_size=12)))
def test_exact_match_is_the_top_match_when_it_is_exact(fixture_graph, mention):
    assert fixture_graph.exact_match(mention) == _exact_top(fixture_graph, mention)


def test_synonym_equal_to_another_concepts_name_ranks_second():
    g = make_graph(["a", "b"], [], names={"a": "Hepatitis", "b": "Viral hepatitis"},
                   synonyms={"a": frozenset({"HEPATITIS!"}), "b": frozenset({"hepatitis"})})
    assert _ranking(g, "HEPATITIS", 50) == [("a", 1.0, 0), ("b", 1.0, 1)]
    assert _ranking(g, "hepatitis", 50) == _oracle_match(g, "hepatitis", 50)
    assert g.exact_match("hepatitis") == _exact_top(g, "hepatitis") == g.concept("a")
    assert g.exact_match("viral hepatitis") == g.concept("b")
    assert g.exact_match("viral") is None


def test_synonyms_normalizing_alike_match_once():
    g = make_graph(["a"], [], names={"a": "Hepatalgia"},
                   synonyms={"a": frozenset({"Liver-Pain", "liver pain"})})
    assert _ranking(g, "liver pain", 50) == [("a", 1.0, 1)]
    assert _ranking(g, "pain", 50) == [("a", 0.5, 2)]


def test_synonym_normalizing_to_nothing_never_matches():
    g = make_graph(["a", "b"], [], names={"a": "Ascites", "b": "Jaundice"},
                   synonyms={"a": frozenset({"!!!", "fluid in abdomen"})})
    assert _ranking(g, "fluid", 50) == [("a", 1 / 3, 2)]
    for mention in ("fluid", "ascites", "jaundice"):
        assert _ranking(g, mention, 50) == _oracle_match(g, mention, 50)


def test_mention_of_unknown_tokens_matches_nothing(fixture_graph):
    assert fixture_graph.match_entity("zzyzx quux", limit=50) == []


@given(tokens=st.lists(
    st.sampled_from(["liver", "elevated", "pain", "chronic", "hepatitis",
                     "abdominal", "fluid", "skin", "b", "antigen"]),
    min_size=1, max_size=4))
def test_exact_tiers_always_sort_before_overlap(fixture_graph, tokens):
    mention = " ".join(tokens)
    tiers = [{"exact_name": 0, "exact_synonym": 1, "token_overlap": 2}[m.kind]
             for m in fixture_graph.match_entity(mention, limit=50)]
    assert tiers == sorted(tiers)


_PUNCTUATION_TO_SPACE = str.maketrans({c: " " for c in string.punctuation})


def _regex_normalize(text: str) -> str:
    """``normalize_term`` as it was first written, with a regex."""
    return re.sub(r"\s+", " ", text.lower().translate(_PUNCTUATION_TO_SPACE)).strip()


# separators \s and str.isspace must agree on, a zero-width space that
# neither counts, and every ASCII punctuation mark
_SPACES_AND_PUNCTUATION = ("\t\n\x0b\x0c\r \x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2009"
                           "\u200a\u200b\u2028\u2029\u202f\u205f\u3000" + string.punctuation)


@given(st.text(alphabet=st.one_of(st.sampled_from(_SPACES_AND_PUNCTUATION), st.characters())))
def test_normalize_term_equals_the_regex_version(text):
    assert normalize_term(text) == _regex_normalize(text)


def test_normalize_term_equals_the_regex_version_on_every_code_point():
    text = "a".join(map(chr, range(sys.maxunicode + 1)))
    assert normalize_term(text) == _regex_normalize(text)


def _two_pass_lexicon(concepts):
    """``_Lexicon.build`` as it was first written: each name normalized
    once for the exact tables and again for its token set."""
    by_name, by_synonym, by_token, name_tokens = {}, {}, {}, {}
    for concept in concepts:
        by_name.setdefault(_regex_normalize(concept.preferred_name), []).append(concept.id)
        for synonym in {_regex_normalize(s) for s in concept.synonyms}:
            by_synonym.setdefault(synonym, []).append(concept.id)
        token_sets = {frozenset(_regex_normalize(n).split()) for n in concept.matchable_names()}
        name_tokens[concept.id] = token_sets
        for token in frozenset().union(*token_sets):
            by_token.setdefault(token, []).append(concept.id)
    return by_name, by_synonym, by_token, name_tokens


_NAMES = st.text(alphabet=st.sampled_from("abAB -,.!\xa0\u3000"), max_size=8)


@st.composite
def concept_lists(draw):
    """Concepts whose names often normalize alike, or to nothing, listed
    in an id order that is not sorted."""
    order = draw(st.permutations(range(draw(st.integers(min_value=1, max_value=8)))))
    return [Concept(id=f"c{i}", preferred_name=draw(_NAMES),
                    synonyms=frozenset(draw(st.lists(_NAMES, max_size=4))))
            for i in order]


@given(concept_lists())
@example(read_concepts(FIXTURES / "concepts.tsv"))
def test_lexicon_tables_equal_the_two_pass_build(concepts):
    lexicon = _Lexicon.build(concepts)
    by_name, by_synonym, by_token, name_tokens = _two_pass_lexicon(concepts)
    assert lexicon.by_name == by_name
    assert lexicon.by_synonym == by_synonym
    assert lexicon.by_token == by_token
    assert {cid: set(sets) for cid, sets in lexicon.name_tokens.items()} == name_tokens
    assert all(len(set(sets)) == len(sets) for sets in lexicon.name_tokens.values())


# -- path enumeration --------------------------------------------------------

def test_two_route_example_ordered_shortest_first():
    g = make_graph(["A", "B", "C"],
                   [("A", "r1", "B"), ("B", "r2", "C"), ("A", "r3", "C")])
    paths = g.enumerate_paths("A", "C", h_max=3)
    assert [p.edge_key() for p in paths] == [
        (("A", "r3", "C"),),
        (("A", "r1", "B"), ("B", "r2", "C")),
    ]
    assert paths[0].describe() == "A --[r3]--> C"
    assert paths[1].describe() == "A --[r1]--> B --[r2]--> C"


def test_h_max_one_keeps_only_direct_hop():
    g = make_graph(["A", "B", "C"],
                   [("A", "r1", "B"), ("B", "r2", "C"), ("A", "r3", "C")])
    paths = g.enumerate_paths("A", "C", h_max=1)
    assert [p.edge_key() for p in paths] == [(("A", "r3", "C"),)]


def test_disconnected_endpoints_yield_no_paths():
    g = make_graph(["A", "B", "C"], [("A", "r1", "B")])
    assert g.enumerate_paths("A", "C", h_max=3) == []


def test_enumerate_paths_argument_errors():
    g = make_graph(["A", "B"], [("A", "r1", "B")])
    with pytest.raises(ValueError):
        g.enumerate_paths("A", "B", h_max=0)
    with pytest.raises(KgError, match="^path start and end are both 'A'$"):
        g.enumerate_paths("A", "A", h_max=2)
    with pytest.raises(KgError, match="^unknown concept id 'Z'$"):
        g.enumerate_paths("A", "Z", h_max=2)


def _oracle_simple_paths(graph: KnowledgeGraph, start: str, end: str, h_max: int):
    """Exhaustive recursive enumeration of bounded simple directed paths."""
    found = []

    def walk(node, used, acc):
        if len(acc) == h_max:
            return
        for edge in graph.out_edges(node):
            if edge.target == end:
                found.append(tuple(e.as_triple() for e in acc + [edge]))
            elif edge.target not in used:
                walk(edge.target, used | {edge.target}, acc + [edge])

    walk(start, {start}, [])
    return found


@st.composite
def random_graph_query(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    ids = [f"n{i}" for i in range(n)]
    raw = draw(st.lists(
        st.tuples(st.sampled_from(ids), st.sampled_from(["r1", "r2", "r3"]),
                  st.sampled_from(ids)),
        max_size=30))
    edges = [(s, r, t) for s, r, t in raw if s != t]
    start = draw(st.sampled_from(ids))
    end = draw(st.sampled_from([i for i in ids if i != start]))
    h_max = draw(st.sampled_from([1, 2, 3]))
    return ids, edges, start, end, h_max


@given(random_graph_query())
def test_enumeration_complete_simple_bounded_and_deterministic(query):
    ids, edges, start, end, h_max = query
    g = make_graph(ids, edges)
    paths = g.enumerate_paths(start, end, h_max=h_max)
    keys = [p.edge_key() for p in paths]

    assert set(keys) == set(_oracle_simple_paths(g, start, end, h_max))
    assert len(keys) == len(set(keys))
    for p in paths:
        nodes = [p.start] + [e.target for e in p.hops]
        assert len(set(nodes)) == len(nodes)
        assert 1 <= len(p.hops) <= h_max
    # documented order: length ascending, then (relation, target) pairs
    assert keys == sorted(keys, key=lambda k: (len(k), tuple((r, t) for _, r, t in k)))
    assert [p.edge_key() for p in g.enumerate_paths(start, end, h_max=h_max)] == keys


def test_path_structure_validation():
    e1, e2 = Edge("A", "r", "B"), Edge("B", "r", "C")
    with pytest.raises(ValueError):
        from dxcouncil.kg import KnowledgePath
        KnowledgePath(hops=())
    from dxcouncil.kg import KnowledgePath
    with pytest.raises(ValueError):
        KnowledgePath(hops=(e1, Edge("C", "r", "D")))
    ok = KnowledgePath(hops=(e1, e2))
    assert (ok.start, ok.hops[-1].target) == ("A", "C")
    assert ok.edge_key() == (("A", "r", "B"), ("B", "r", "C"))


# -- verbalization -----------------------------------------------------------

def test_verbalization_stores_the_scripted_sentence():
    g = make_graph(["A", "B"], [("A", "causes", "B")])
    path = g.enumerate_paths("A", "B", h_max=1)[0]
    gw = scripted_gateway([(TaskKind.VERBALIZE, "A --[causes]--> B", "A causes B.")])
    [out] = verbalize_path([path], gw)
    assert out.verbalization == "A causes B."
    assert path.verbalization == ""  # input untouched


def test_empty_verbalization_is_an_error():
    g = make_graph(["A", "B"], [("A", "causes", "B")])
    path = g.enumerate_paths("A", "B", h_max=1)[0]
    gw = scripted_gateway([(TaskKind.VERBALIZE, "", "   ")])
    with pytest.raises(GatewayError, match="^empty response for task 'verbalize'$"):
        list(verbalize_path([path], gw))


def test_verbalization_replays_identically(tmp_path):
    g = make_graph(["A", "B"], [("A", "causes", "B")])
    path = g.enumerate_paths("A", "B", h_max=1)[0]
    transcript = tmp_path / "t.jsonl"

    recorder = TranscriptRecorder(transcript)
    recording = Gateway(RecordingBackend(
        ScriptedResponder([(TaskKind.VERBALIZE, "", "A causes B.")]), recorder),
        Trace("record"), {})
    [recorded] = verbalize_path([path], recording)
    recorder.close()

    replaying = Gateway(ReplayChatBackend.from_file(transcript), Trace("replay"), {})
    [replayed] = verbalize_path([path], replaying)
    assert replayed.verbalization == recorded.verbalization == "A causes B."
