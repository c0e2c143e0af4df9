"""Shared fixtures and harnesses for the test suite."""

from __future__ import annotations

import ipaddress
import json
import re
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import settings

from dxcouncil.backends import HashEmbedder, LexicalOverlapScorer
from dxcouncil.config import RunConfig
from dxcouncil.deliberation import SpecialistRoster, run_deliberation_loop
from dxcouncil.differential import CaseDescription, HypothesisSet
from dxcouncil.evidence import EvidencePackage, build_supplement_package
from dxcouncil.gateway import Gateway, ScriptedResponder, TaskKind
from dxcouncil.guidelines import GuidelineSegment, ingest_corpus
from dxcouncil.kg import Concept, Edge, KnowledgeGraph, load_kg
from dxcouncil.trace import Trace

settings.register_profile("suite", deadline=None, max_examples=50)
settings.load_profile("suite")

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def fixture_graph() -> KnowledgeGraph:
    return load_kg(FIXTURES / "triples.tsv", FIXTURES / "concepts.tsv")


@pytest.fixture(scope="session")
def fixture_cases() -> list[dict]:
    rows = []
    for line in (FIXTURES / "cases.jsonl").read_text().splitlines():
        if line.strip():
            rows.append(json.loads(line))
    return rows


def make_graph(concept_ids: list[str], triples: list[tuple[str, str, str]],
               names: dict[str, str] | None = None,
               synonyms: dict[str, frozenset[str]] | None = None) -> KnowledgeGraph:
    """Inline graph builder: ids double as preferred names unless overridden."""
    names = names or {}
    synonyms = synonyms or {}
    concepts = [Concept(id=c, preferred_name=names.get(c, c),
                        synonyms=synonyms.get(c, frozenset()))
                for c in concept_ids]
    return KnowledgeGraph(concepts, [Edge(*t) for t in triples])


def scripted_gateway(rules, trace: Trace | None = None) -> Gateway:
    return Gateway(ScriptedResponder(rules), trace or Trace("scripted"), {})


def read_timings(output_dir: Path) -> dict[str, dict]:
    """Each case's line of a run's timing sidecar, under its case id."""
    text = (Path(output_dir) / "timings.jsonl").read_text(encoding="utf-8")
    return {row["case_id"]: row for row in map(json.loads, text.splitlines())}


def backend_label(trace: Trace, record: dict) -> str | None:
    """The backend label ``trace`` keeps for one of its records."""
    return trace.timings()["backend"][record["seq"]]


def _loopback(address) -> bool:
    """Whether a connect address is a loopback IP; a host name is not
    resolved, so it never is."""
    try:
        return ipaddress.ip_address(address[0]).is_loopback
    except (ValueError, TypeError, IndexError):
        return False


@contextmanager
def blocked_network():
    """Fail the test if anything tries to connect a socket to an address
    other than loopback."""
    connect, create_connection = socket.socket.connect, socket.create_connection

    def guarded_connect(sock, address):
        if not _loopback(address):
            raise AssertionError("network access attempted during an offline test")
        return connect(sock, address)

    def guarded_create_connection(address, *args, **kwargs):
        if not _loopback(address):
            raise AssertionError("network access attempted during an offline test")
        return create_connection(address, *args, **kwargs)

    with mock.patch.object(socket.socket, "connect", guarded_connect), \
            mock.patch.object(socket, "create_connection", guarded_create_connection):
        yield


@pytest.fixture
def no_network():
    with blocked_network():
        yield


# -- loopback HTTP stub ------------------------------------------------------

HANG = "hang"  # accept the request and never answer it
DROP = "drop"  # read the request and close the connection without answering


class HttpStub:
    """An HTTP server on 127.0.0.1 that answers each POST with the next
    queued reply and keeps every request it read, as ``{"path": ...,
    "content_type": ..., "body": <decoded JSON>}``."""

    def __init__(self):
        self.requests: list[dict] = []
        self._replies: list = []
        self._released = threading.Event()
        stub = self

        class Handler(BaseHTTPRequestHandler):
            # the status line, headers and body go out in separate writes;
            # with Nagle's algorithm on, delayed ACKs would stall each one
            disable_nagle_algorithm = True

            def do_POST(self):
                raw = self.rfile.read(int(self.headers["Content-Length"]))
                stub.requests.append({"path": self.path,
                                      "content_type": self.headers["Content-Type"],
                                      "body": json.loads(raw)})
                reply = stub._replies.pop(0) if stub._replies else (500, b"no reply queued")
                if reply == HANG:
                    stub._released.wait()
                if reply in (HANG, DROP):
                    return
                status, body = reply
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, format, *args):
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_port}"
        # a short poll lets close() stop the server without a half-second wait
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.01,))
        self._thread.start()

    def reply(self, payload, status: int = 200) -> None:
        """Queue one reply: ``HANG``, ``DROP``, or ``status`` with
        ``payload`` as its body, sent as is if bytes, else as JSON."""
        if payload in (HANG, DROP):
            self._replies.append(payload)
        else:
            self._replies.append((status, payload if isinstance(payload, bytes)
                                  else json.dumps(payload).encode("utf-8")))

    def close(self) -> None:
        """Stop serving and close the listening socket; a later connect to
        ``url`` is refused. Safe to call twice."""
        if self._thread.is_alive():
            self._released.set()
            self._server.shutdown()
            self._thread.join()
            self._server.server_close()


@pytest.fixture
def http_stub():
    stub = HttpStub()
    yield stub
    stub.close()


@pytest.fixture
def refused_url() -> str:
    """The URL of a loopback port that was bound and then closed."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


# -- panel harness -----------------------------------------------------------

_OPINION_ROUND = re.compile(r"Deliberation round: (\d+)\n")
_SPECIALIST = re.compile(r"consulting (.+?) specialist")
_PATH_COUNT = re.compile(r"Candidate explanations \((\d+) total\):")

PANEL_CORPUS = [
    GuidelineSegment("s1", "doc", "General guidance on liver disease evaluation."),
    GuidelineSegment("s2", "doc", "Criteria for staging chronic hepatic conditions."),
]


def run_panel(rounds: list[list[tuple[str, str]]], *, tau_suff: float = RunConfig.tau_suff,
              tau_high: float = RunConfig.tau_high, t_max: int = RunConfig.t_max):
    """Drive one hypothesis's deliberation with scripted opinion streams.

    rounds[t] lists (stance, sufficiency) per specialist for round t; the
    roster size is len(rounds[0]). Returns (final snapshots, trace).
    """
    specialists = RunConfig.roster[:len(rounds[0])]
    case = CaseDescription("panel-case", "A patient under panel review.")
    hypothesis = "Condition X"

    def opinion(system: str, user: str) -> str:
        t = int(_OPINION_ROUND.search(user).group(1))
        name = _SPECIALIST.search(system).group(1)
        stance, suff = rounds[t][specialists.index(name)]
        return json.dumps({"stance": stance, "confidence": 0.6,
                           "sufficiency": suff,
                           "justification": "scripted panel stream"})

    rules = [
        (TaskKind.SPECIALIST_OPINION, "", opinion),
        (TaskKind.INTERIM_CONSENSUS, "", '{"report": "panel interim summary"}'),
        (TaskKind.REFINE_QUERY, "", '["staging criteria for this condition"]'),
    ]
    trace = Trace(case.case_id)
    gateway = scripted_gateway(rules, trace)
    graph = make_graph(["a", "b"], [("a", "causes", "b")])
    index = ingest_corpus(PANEL_CORPUS, HashEmbedder(dim=16))
    package = EvidencePackage(hypothesis=hypothesis, iteration=0,
                              guideline_excerpts=(), pruned_paths=())
    roster = SpecialistRoster(hypothesis=hypothesis, specialties=tuple(specialists))

    def supplement(base: EvidencePackage, queries: list[str]) -> EvidencePackage:
        return build_supplement_package(
            case, [], base, queries, graph, index, LexicalOverlapScorer(), gateway,
            RunConfig.k, RunConfig.n, RunConfig.h_max, RunConfig.prune_batch)

    finals = run_deliberation_loop(
        case, [], HypothesisSet((hypothesis,)), [package], [roster], supplement, gateway,
        tau_suff=tau_suff, tau_high=tau_high, t_max=t_max)
    return finals, trace


def approve_all_pruner(system: str, user: str) -> str:
    """PRUNE response accepting every path in the batch."""
    count = int(_PATH_COUNT.search(user).group(1))
    return ",".join(["1"] * count)
