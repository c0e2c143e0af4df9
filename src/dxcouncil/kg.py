"""In-memory medical knowledge graph.

Holds concepts with synonym sets, typed directed edges, lexical entity
matching, bounded simple-path enumeration, and deterministic path
verbalization through the model gateway, one gateway branch per path.

Traversal follows stored edge direction only; a loader that wants
bidirectional reasoning must materialize inverse triples itself.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import KgError, ResourceError
from .jsonl import open_lines
from .templates import TaskKind

# each ASCII punctuation mark; a regex replaces them in one C pass, where
# str.translate looks up each distinct character of every call in a dict
_PUNCT = re.compile(f"[{re.escape(string.punctuation)}]")


def normalize_term(text: str) -> str:
    """Lowercase, strip punctuation, collapse whitespace."""
    return " ".join(_PUNCT.sub(" ", text.lower()).split())


def term_tokens(text: str) -> frozenset[str]:
    return frozenset(normalize_term(text).split())


@dataclass(frozen=True)
class Concept:
    """A standardized medical concept with a stable CUI-like id."""

    id: str
    preferred_name: str
    synonyms: frozenset[str] = frozenset()
    semantic_types: frozenset[str] = frozenset()

    def matchable_names(self) -> frozenset[str]:
        return self.synonyms | {self.preferred_name}


@dataclass(frozen=True)
class Edge:
    source: str
    relation: str
    target: str

    def as_triple(self) -> tuple[str, str, str]:
        return (self.source, self.relation, self.target)


@dataclass
class KnowledgePath:
    """A simple directed path of 1..h_max hops, verbalized lazily.

    ``start`` is read off the hops. ``node_labels`` carries the preferred
    names along the path (start node first) so verbalization does not need
    the graph again.
    """

    hops: tuple[Edge, ...]
    node_labels: tuple[str, ...] = ()
    verbalization: str = ""

    def __post_init__(self):
        if not self.hops:
            raise ValueError("a knowledge path needs at least one hop")
        for prev, nxt in zip(self.hops, self.hops[1:]):
            if prev.target != nxt.source:
                raise ValueError("path hops do not form a chain")
        visited = [self.start] + [e.target for e in self.hops]
        if len(set(visited)) != len(visited):
            raise ValueError("path revisits a node")

    @property
    def start(self) -> str:
        return self.hops[0].source

    def edge_key(self) -> tuple[tuple[str, str, str], ...]:
        """Structural identity: the ordered hop triples."""
        return tuple(e.as_triple() for e in self.hops)

    def describe(self) -> str:
        """Render the hop chain with node names, e.g. ``a --[r]--> b``."""
        labels = self.node_labels or tuple([self.start] + [e.target for e in self.hops])
        parts = [labels[0]]
        for edge, label in zip(self.hops, labels[1:]):
            parts.append(f" --[{edge.relation}]--> {label}")
        return "".join(parts)


@dataclass(frozen=True)
class ConceptMatch:
    """One entity-matching candidate with its score and match tier."""

    concept: Concept
    score: float
    kind: str  # "exact_name" | "exact_synonym" | "token_overlap"

    @property
    def exact(self) -> bool:
        """Whether the mention is the concept's name or one of its synonyms."""
        return self.kind != "token_overlap"


_MATCH_KINDS = ("exact_name", "exact_synonym", "token_overlap")


@dataclass(frozen=True)
class _Lexicon:
    """Normalized-name lookup tables for entity matching.

    ``by_name`` and ``by_synonym`` map a normalized string to the ids of the
    concepts carrying it; ``by_token`` maps a token to the ids of the
    concepts with a name containing it; ``name_tokens`` holds each concept's
    distinct name token sets. Id lists follow load order, without repeats.
    """

    by_name: dict[str, list[str]]
    by_synonym: dict[str, list[str]]
    by_token: dict[str, list[str]]
    name_tokens: dict[str, tuple[frozenset[str], ...]]

    @classmethod
    def build(cls, concepts: Iterable[Concept]) -> "_Lexicon":
        lexicon = cls({}, {}, {}, {})
        for concept in concepts:
            name = normalize_term(concept.preferred_name)
            synonyms = {normalize_term(s) for s in concept.synonyms}
            lexicon.by_name.setdefault(name, []).append(concept.id)
            for synonym in synonyms:
                lexicon.by_synonym.setdefault(synonym, []).append(concept.id)
            token_sets = {frozenset(n.split()) for n in synonyms | {name}}
            lexicon.name_tokens[concept.id] = tuple(token_sets)
            for token in frozenset().union(*token_sets):
                lexicon.by_token.setdefault(token, []).append(concept.id)
        return lexicon


class KnowledgeGraph:
    """Immutable after load; all read operations are thread-safe.

    The entity-matching lexicon is built once per graph, on the first
    ``match_entity`` call, and never changes afterwards. The build is one
    pass over the concepts: it normalizes each preferred name and synonym
    once, and takes every token set from those normalized names. Threads
    racing on that first call may each build it, but every build is
    identical and matching only reads it.
    """

    def __init__(self, concepts: Iterable[Concept], edges: Iterable[Edge]):
        self._concepts: dict[str, Concept] = {}
        for concept in concepts:
            if concept.id in self._concepts:
                raise ValueError(f"duplicate concept id {concept.id!r}")
            self._concepts[concept.id] = concept
        self._out: dict[str, list[Edge]] = {}
        for edge in dict.fromkeys(edges):  # equal triples collapse to the first
            if edge.source not in self._concepts:
                raise KgError(f"edge source {edge.source!r} is not a loaded concept")
            if edge.target not in self._concepts:
                raise KgError(f"edge target {edge.target!r} is not a loaded concept")
            self._out.setdefault(edge.source, []).append(edge)

    def concept(self, concept_id: str) -> Concept:
        try:
            return self._concepts[concept_id]
        except KeyError:
            raise KgError(f"unknown concept id {concept_id!r}") from None

    def concepts(self) -> list[Concept]:
        return list(self._concepts.values())

    def out_edges(self, concept_id: str) -> list[Edge]:
        return list(self._out.get(concept_id, ()))

    # -- entity matching -----------------------------------------------------

    @cached_property
    def _lexicon(self) -> _Lexicon:
        return _Lexicon.build(self._concepts.values())

    def match_entity(self, raw_mention: str, limit: int) -> list[ConceptMatch]:
        """Rank concepts against a raw mention.

        Tiers: exact normalized preferred-name match (score 1.0), then exact
        synonym match (score 1.0), then token-overlap Jaccard; ties broken by
        ascending concept id. Concepts with zero overlap are excluded, and a
        mention that normalizes to nothing matches nothing, even a concept
        whose name normalizes to nothing too.
        """
        if limit < 1:
            raise ValueError("limit must be positive")
        mention = normalize_term(raw_mention)
        if not mention:
            return []
        mention_tokens = frozenset(mention.split())
        lexicon = self._lexicon

        # (tier, -score, concept id), so the rows sort into the ranking
        scored: list[tuple[int, float, str]] = []
        exact: set[str] = set()
        for tier, table in enumerate((lexicon.by_name, lexicon.by_synonym)):
            for concept_id in table.get(mention, ()):
                if concept_id not in exact:
                    exact.add(concept_id)
                    scored.append((tier, -1.0, concept_id))
        overlapping = set().union(*(lexicon.by_token.get(t, ()) for t in mention_tokens))
        size = len(mention_tokens)
        for concept_id in overlapping - exact:
            best = 0.0
            for tokens in lexicon.name_tokens[concept_id]:
                shared = len(mention_tokens & tokens)
                # the Jaccard index; the union's size is counted, not built
                best = max(best, shared / (size + len(tokens) - shared))
            scored.append((2, -best, concept_id))

        scored.sort()
        return [ConceptMatch(self._concepts[concept_id], -negated, _MATCH_KINDS[tier])
                for tier, negated, concept_id in scored[:limit]]

    def exact_match(self, raw_mention: str) -> Concept | None:
        """The concept ``match_entity(raw_mention, limit=1)`` ranks first when
        that match is exact (a name or synonym tier), else None: the lowest
        id among the concepts named by the normalized mention, else among
        those holding it as a synonym."""
        mention = normalize_term(raw_mention)
        lexicon = self._lexicon
        ids = lexicon.by_name.get(mention) or lexicon.by_synonym.get(mention)
        return self._concepts[min(ids)] if mention and ids else None

    # -- path enumeration ----------------------------------------------------

    def enumerate_paths(self, start: str, end: str, h_max: int) -> list[KnowledgePath]:
        """All simple directed paths ``start -> end`` of length <= h_max.

        Deterministic: ordered by length ascending, then lexicographically
        over the sequence of (relation, target) pairs.
        """
        if h_max < 1:
            raise ValueError("h_max must be >= 1")
        if start == end:
            raise KgError(f"path start and end are both {start!r}")
        self.concept(start)
        self.concept(end)

        found: list[tuple[Edge, ...]] = []
        stack: list[Edge] = []
        visited: set[str] = {start}

        def walk(node: str) -> None:
            if len(stack) == h_max:
                return
            for edge in self._out.get(node, ()):
                if edge.target == end:
                    found.append(tuple(stack) + (edge,))
                    continue
                if edge.target in visited:
                    continue
                visited.add(edge.target)
                stack.append(edge)
                walk(edge.target)
                stack.pop()
                visited.remove(edge.target)

        walk(start)
        found.sort(key=lambda hops: (len(hops), tuple((e.relation, e.target) for e in hops)))
        return [self._make_path(hops) for hops in found]

    def _make_path(self, hops: tuple[Edge, ...]) -> KnowledgePath:
        node_ids = [hops[0].source] + [e.target for e in hops]
        labels = tuple(self._concepts[i].preferred_name for i in node_ids)
        return KnowledgePath(hops=hops, node_labels=labels)


# -- loading -----------------------------------------------------------------

def _tsv_rows(source: str | Path | TextIO, width: int
              ) -> Iterator[tuple[str, int, list[str]]]:
    """``(file name, line number, stripped fields)`` of each row of a
    tab-separated file, skipping blank and ``#`` lines; a row without
    ``width`` fields is a ``ResourceError``."""
    name, lines = open_lines(source)
    for line_no, line in enumerate(lines, start=1):
        head = line.lstrip()
        if not head or head[0] == "#":
            continue
        fields = line.split("\t")
        if len(fields) != width:
            raise ResourceError(f"{name}:{line_no}: expected {width} tab-separated "
                                f"fields, got {len(fields)}")
        yield name, line_no, list(map(str.strip, fields))


def read_concepts(source: str | Path | TextIO) -> list[Concept]:
    """Parse the tab-separated concept file.

    Format per line: ``id \\t preferred_name \\t syn1|syn2 \\t st1|st2``;
    synonym and semantic-type fields may be empty; ``#`` lines are comments.
    """
    concepts: list[Concept] = []
    seen: set[str] = set()
    # each distinct synonym or semantic-type field, split once: most
    # concepts share their semantic types with others
    names: dict[str, frozenset[str]] = {}
    for name, line_no, (concept_id, preferred, synonyms, semtypes) in _tsv_rows(source, 4):
        if not concept_id:
            raise ResourceError(f"{name}:{line_no}: empty concept id")
        if not preferred:
            raise ResourceError(f"{name}:{line_no}: empty preferred name")
        if concept_id in seen:
            raise ResourceError(f"{name}:{line_no}: duplicate concept id {concept_id!r}")
        seen.add(concept_id)
        for field in (synonyms, semtypes):
            if field not in names:
                names[field] = frozenset(filter(None, map(str.strip, field.split("|"))))
        concepts.append(Concept(concept_id, preferred, names[synonyms], names[semtypes]))
    return concepts


def read_triples(source: str | Path | TextIO) -> list[tuple[str, Edge]]:
    """Parse the tab-separated triple file into ``(file:line, edge)`` pairs."""
    triples: list[tuple[str, Edge]] = []
    for name, line_no, (source_id, relation, target_id) in _tsv_rows(source, 3):
        if not source_id or not relation or not target_id:
            raise ResourceError(f"{name}:{line_no}: empty field in triple")
        triples.append((f"{name}:{line_no}", Edge(source_id, relation, target_id)))
    return triples


def load_kg(triples_source: str | Path | TextIO,
            concepts_source: str | Path | TextIO) -> KnowledgeGraph:
    """Build a graph from concept and triple files.

    Duplicate triples collapse to one edge; an edge referencing an id not in
    the concept file is a dangling-reference error.
    """
    concepts = read_concepts(concepts_source)
    ids = {c.id for c in concepts}
    edges: list[Edge] = []
    for location, edge in read_triples(triples_source):
        for concept_id in (edge.source, edge.target):
            if concept_id not in ids:
                raise ResourceError(
                    f"{location}: triple references unknown concept id {concept_id!r}")
        edges.append(edge)
    return KnowledgeGraph(concepts, edges)


# -- verbalization -----------------------------------------------------------

def verbalize_path(paths: list[KnowledgePath], gw) -> list[KnowledgePath]:
    """Have the gateway render each path as one natural-language sentence.

    The raw hop-chain rendering goes into the prompt (and therefore the
    trace), so verbalization is replayable. Each path's call runs as a
    gateway branch; the result holds, in order, new paths with the
    verbalization set.
    """
    def verbalize(path: KnowledgePath) -> KnowledgePath:
        return KnowledgePath(path.hops, path.node_labels, gw.complete(
            TaskKind.VERBALIZE, {"path": path.describe()}))

    return gw.branches([partial(verbalize, path) for path in paths])
