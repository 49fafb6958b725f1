"""Reports stay byte-identical: one sha256 over the `emit_report` text of a
fixed corpus, on every kernel backend, one over the 2esb and 2vsb sets
of the same corpus, as given and made bidirected, which no report holds,
one over the four block families of two ear graphs with n = 1000, and
one over the `emit_report` text of the four `scale/run.py` inputs at
n = 500.

The report digest was computed before the probes shared their strong-cut
splits and the clique search moved to twin classes, from the code those
changes started from; the 2esb / 2vsb digest before the 2vsb step read
the class of vertex 0 as an implicit part; the block digest at scale
while a clique search over bit rows still read the families; the scale
digest before the pure kernels kept the scanned vertex and its low
point in local variables, and each of its four reports also has the
`report_sha256` that BENCH_setup-cut.json records for its input.  The
corpus graphs are small, so no block of theirs covers nearly all of V,
as one does at scale.  A change that alters any result on these graphs,
on either backend, fails here; one that means to change a result must
say so and record the new digest with its reason.
"""

import hashlib
import json

import pytest

import sbgraph as sg
from sbgraph import _kernels
from helpers import (
    bidirected,
    bidirected_complete,
    c3,
    ear_graph,
    glued,
    random_sb_corpus,
    scale_run,
)

GOLDEN_SHA256 = (
    "9f7f9a644ef6e8712cd81a0e06fc8fd5ac161554f3a8c06673cc93de51a8d4e9"
)
GOLDEN_2ESB_2VSB_SHA256 = (
    "003a7ce43e410c5b1c97937aad4d6c9ca9a0f650464977d157bcc4dab6949c9d"
)
GOLDEN_BLOCKS_AT_SCALE_SHA256 = (
    "88fc0a745b16bba8fc6dc2985ea9f0b7b9815e029387e1826ab25bb967b3d0d1"
)
GOLDEN_SCALE_REPORTS_SHA256 = (
    "937638106959385d16b2656c92e9d7b5881a8a9e0b21c322e601a8783a6cc10b"
)

BACKENDS = ["pure", pytest.param("c", marks=pytest.mark.needs_compiled)]


def _corpus(fig1, fig2):
    """(n, arcs) of every corpus graph, in a fixed order: the paper's two
    figures, 30 `gen_random_sb` graphs with n 5-14, 8 long-ear graphs
    with n 20-62, and 8 strongly connected graphs that are not strongly
    biconnected, glued from those."""
    graphs = [fig1, fig2]
    sampled = random_sb_corpus(30, seed_base=5100, nmin=5, nmax=14, p=0.45)
    ears = [ear_graph(5200 + i, 20 + 6 * i) for i in range(8)]
    graphs += sampled + ears
    graphs += [glued(a, b) for a, b in zip(ears[:4], ears[4:])]
    graphs += [glued(a, b) for a, b in zip(sampled[:3], sampled[10:13])]
    graphs.append(glued(bidirected_complete(4), c3()))
    return [(g.n, g.edges) for g in graphs]


@pytest.mark.parametrize("backend", BACKENDS)
def test_reports_match_the_golden_digest(backend, fig1, fig2):
    corpus = _corpus(fig1, fig2)
    digest = hashlib.sha256()
    with _kernels.use_backend(backend):
        for n, arcs in corpus:
            # A fresh graph per backend: nothing kept from another run.
            digest.update(sg.emit_report(sg.build_digraph(n, arcs)).encode())
    assert digest.hexdigest() == GOLDEN_SHA256


@pytest.mark.parametrize("backend", BACKENDS)
def test_2esb_2vsb_sets_match_their_golden_digest(backend, fig1, fig2):
    # Each graph runs as given and bidirected.  Bidirected, every graph
    # keeps sets of three or more vertices for the 2vsb split step, but
    # has no strong articulation point, so the class of vertex 0 is
    # never an implicit part there; as given, some graphs make it one.
    corpus = _corpus(fig1, fig2)
    digest = hashlib.sha256()
    with _kernels.use_backend(backend):
        for n, arcs in corpus:
            g = sg.build_digraph(n, arcs)
            for h in (g, bidirected(g)):
                for sets in (sg.components_2esb(h), sg.components_2vsb(h)):
                    digest.update(json.dumps(sets).encode())
    assert digest.hexdigest() == GOLDEN_2ESB_2VSB_SHA256


@pytest.mark.parametrize("backend", BACKENDS)
def test_block_families_at_scale_match_their_golden_digest(backend):
    # Long ears leave 70 2-strong-biconnected blocks of up to 75 vertices;
    # short ears with n chords leave one 2-edge block of 632 vertices and
    # 246 2-strong-biconnected blocks, the largest of 631.
    graphs = [
        ear_graph(31, 1000, ears=(3, 8)),
        ear_graph(32, 1000, ears=(1, 2), chords=1000),
    ]
    families = (
        sg.two_edge_biconnected_blocks,
        sg.two_strong_biconnected_blocks,
        sg.two_edge_blocks,
        sg.two_strong_blocks,
    )
    digest = hashlib.sha256()
    with _kernels.use_backend(backend):
        for g in graphs:
            for family in families:
                digest.update(json.dumps(family(g)).encode())
    assert digest.hexdigest() == GOLDEN_BLOCKS_AT_SCALE_SHA256


@pytest.mark.parametrize("backend", BACKENDS)
def test_scale_reports_match_their_golden_digest(backend):
    # The long, short, twinned and cycle inputs of scale/run.py at
    # n = 500, parsed from the text the harness writes.  Twinned is the
    # one shape whose root classes split, so a wrong `bcc` or
    # `biconnected` answer shows there.
    run = scale_run()
    digest = hashlib.sha256()
    with _kernels.use_backend(backend):
        for shape in run.SHAPES:
            text = run.gen.edge_list_text(500, run.arcs_of(shape, 500))
            digest.update(sg.emit_report(sg.parse_edge_list(text)).encode())
    assert digest.hexdigest() == GOLDEN_SCALE_REPORTS_SHA256
