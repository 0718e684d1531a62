"""Transactional graph-DB layer: aids format roundtrip on a hand-written
five-tree fixture (``tests/fixtures/5trees.aids.txt``), per-graph measure
kernels vs brute force, canonical tree strings (isomorphism invariance +
roundtrip)."""

import itertools
import os

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from graphminingtools_ray.functions.cstring import (
    canonical_tree_string,
    parse_cstring,
)
from graphminingtools_ray.graph.gdb import (
    filter_graphs,
    graph_measures,
    measures_for_graph,
)
from graphminingtools_ray.sources.aids import (
    parse_aids_text,
    read_aids,
    write_aids_text,
)

# five hand-written trees (path, star, single vertex, 44-vertex caterpillar,
# branching tree) with non-consecutive ids, in the upstream 5hivtrees layout
HIV5 = os.path.join(os.path.dirname(__file__), "fixtures", "5trees.aids.txt")


def test_aids_parse_reference_file():
    t = read_aids(HIV5)
    g = t["gdb_graphs"]
    assert g.num_rows == 5
    # header n/m must match actual vertex/edge row counts
    vc = t["gdb_vertices"].to_pandas().groupby("graph_id").size()
    ec = t["gdb_edges"].to_pandas().groupby("graph_id").size()
    for r in g.to_pylist():
        assert vc[r["graph_id"]] == r["n"]
        assert ec.get(r["graph_id"], 0) == r["m"]


def test_aids_roundtrip():
    t = read_aids(HIV5)
    text = write_aids_text(t)
    t2 = parse_aids_text(text)
    for k in t:
        assert t[k].equals(t2[k]), k


def test_aids_edgeless_graph_mid_file_roundtrips():
    """An m = 0 graph keeps its (blank) edge line; the records after it must
    not shift, and write_aids_text -> parse_aids_text is an inverse."""
    text = "# 1 0 3 2\nC O N\n1 2 1 3 2 1\n# 5 -1 1 0\nCU\n\n# 9 1 2 1\nC H\n2 1 1\n$\n"
    t = parse_aids_text(text)
    assert t["gdb_graphs"].to_pylist() == [
        {"graph_id": 1, "label": 0, "n": 3, "m": 2},
        {"graph_id": 5, "label": -1, "n": 1, "m": 0},
        {"graph_id": 9, "label": 1, "n": 2, "m": 1},
    ]
    assert t["gdb_vertices"]["label"].to_pylist() == ["C", "O", "N", "CU", "C", "H"]
    assert t["gdb_edges"].to_pylist()[-1] == {
        "graph_id": 9, "v": 2, "w": 1, "label": "1"
    }
    t2 = parse_aids_text(write_aids_text(t))
    for k in t:
        assert t[k].equals(t2[k]), k


def test_aids_edge_endpoint_out_of_range_raises():
    text = "# 4 0 42 1\n" + " ".join(["C"] * 42) + "\n1 43 1\n$\n"
    with pytest.raises(ValueError, match="endpoint 43 outside 1..42"):
        parse_aids_text(text)
    with pytest.raises(ValueError, match="endpoint 0 outside 1..2"):
        parse_aids_text("# 4 0 2 1\nC C\n0 1 1\n$\n")


def test_aids_truncated_record_raises():
    with pytest.raises(ValueError, match="truncated"):
        parse_aids_text("# 1 0 2 1\nC O\n1 2 1\n# 2 0 2 1\nC O\n")


def test_half_edges_directed_vs_undirected():
    """loading.c:407-425 (undirected: both half-edges) vs loading.c:437-532
    (directed: forward only, :523). Degrees over the views must match the
    reference's neighborhood-list lengths in each mode."""
    from graphminingtools_ray.sources.aids import half_edges

    t = parse_aids_text(
        "# 7 1 4 3\n a b c d \n 1 2 x 1 3 y 3 4 z\n$\n"
    )
    und = half_edges(t, directed=False).to_pandas()
    dire = half_edges(t, directed=True).to_pandas()
    assert len(und) == 6 and len(dire) == 3
    # directed = exactly the written rows, order and labels preserved
    assert dire.equals(t["gdb_edges"].to_pandas())
    # undirected degree of vertex 1 is 2 (edges to 2 and 3); out-degree is 2
    # for vertex 1 but 0 for vertex 4 in directed mode
    und_deg = und.groupby("v").size()
    out_deg = dire.groupby("v").size()
    assert und_deg[1] == 2 and und_deg[4] == 1
    assert out_deg[1] == 2 and 4 not in out_deg.index
    # every undirected half-edge has its reverse present with the same label
    fwd = set(map(tuple, und[["v", "w", "label"]].itertuples(index=False)))
    assert {(w, v, l) for v, w, l in fwd} == fwd
    # reference fixture: symmetrized view doubles the stored edge count
    hv = read_aids(HIV5)
    assert half_edges(hv).num_rows == 2 * hv["gdb_edges"].num_rows


def _brute_measures(n, edges):
    """Independent brute-force oracle (adjacency-matrix based)."""
    import numpy as np

    A = np.zeros((n, n), dtype=int)
    n_self = sum(1 for v, w in edges if v == w)
    for v, w in edges:
        if v != w:
            A[v, w] += 1
            A[w, v] += 1
    deg = A.sum(axis=1)
    # components by repeated matrix powers (reachability)
    R = np.eye(n, dtype=bool) | (A > 0)
    for _ in range(n):
        R = R | (R @ R)
    comps = len({tuple(r) for r in R}) if n else 0
    connected = comps <= 1
    m = len(edges)
    is_tree = connected and m == n - 1 and n_self == 0
    is_path = is_tree and (n == 0 or deg.max() <= 2)
    return {
        "n_components": comps,
        "connected": connected,
        "is_tree": is_tree,
        "is_path": is_path,
        "max_degree": int(deg.max()) if n else 0,
        "min_degree": int(deg.min()) if n else 0,
    }


CASES = [
    (3, [(0, 1), (1, 2), (2, 0)]),           # triangle: 1 block, 0 bridges
    (4, [(0, 1), (1, 2), (2, 3)]),           # path: 3 bridges, tree, path
    (4, [(0, 1), (2, 3)]),                   # 2 components
    (1, []),                                  # isolated vertex
    (0, []),                                  # empty graph
    (5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)]),  # triangle + tail
    (2, [(0, 1), (0, 1)]),                   # parallel edges: a block, no bridge
    (3, [(0, 0), (1, 2)]),                   # self-loop + edge
    (6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),  # two triangles
]


@pytest.mark.parametrize("case", range(len(CASES)))
def test_measures_vs_bruteforce(case):
    n, edges = CASES[case]
    got = measures_for_graph(n, edges)
    want = _brute_measures(n, edges)
    for k, v in want.items():
        assert got[k] == v, (k, got[k], v)


def test_blocks_and_bridges():
    # triangle + tail: 1 block (the triangle), 2 bridges (2-3, 3-4)
    got = measures_for_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert got["n_blocks"] == 1 and got["n_bridges"] == 2
    # parallel edges form a block, not a bridge
    got = measures_for_graph(2, [(0, 1), (0, 1)])
    assert got["n_blocks"] == 1 and got["n_bridges"] == 0
    # path: all bridges
    got = measures_for_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert got["n_blocks"] == 0 and got["n_bridges"] == 3


def test_simple_cycles_and_bridge_trees():
    # triangle: 1 cycle; K4: 4 triangles + 3 squares = 7 cycles
    assert measures_for_graph(3, [(0, 1), (1, 2), (2, 0)])["n_simple_cycles"] == 1
    k4 = list(itertools.combinations(range(4), 2))
    assert measures_for_graph(4, k4)["n_simple_cycles"] == 7
    # path has no cycles; bridge-tree count of a path = 1 component
    path = measures_for_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert path["n_simple_cycles"] == 0
    assert path["n_bridge_trees"] == 1
    # triangle+tail: removing block edges leaves the 2 bridges + 3 isolated-
    # in-forest vertices collapsed: components of (V, bridges) = 3
    tt = measures_for_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])
    assert tt["n_bridge_trees"] == 3
    assert tt["max_blocks_per_component"] == 1
    # two triangles, separate components → 2 cycles, max 1 block/component
    two = measures_for_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert two["n_simple_cycles"] == 2
    assert two["max_blocks_per_component"] == 1


def test_is_cactus():
    assert measures_for_graph(3, [(0, 1), (1, 2), (2, 0)])["is_cactus"]  # triangle
    assert measures_for_graph(4, [(0, 1), (1, 2), (2, 3)])["is_cactus"]  # path/tree
    # triangle + tail
    assert measures_for_graph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4)])["is_cactus"]
    # two triangles sharing a vertex
    assert measures_for_graph(
        5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]
    )["is_cactus"]
    # two triangles sharing an EDGE → one block with 5 edges / 4 vertices
    assert not measures_for_graph(
        4, [(0, 1), (1, 2), (2, 0), (1, 3), (3, 2)]
    )["is_cactus"]
    k4 = list(itertools.combinations(range(4), 2))
    assert not measures_for_graph(4, k4)["is_cactus"]
    assert not measures_for_graph(4, [(0, 1), (2, 3)])["is_cactus"]  # disconnected


def test_spanning_trees():
    assert measures_for_graph(3, [(0, 1), (1, 2), (2, 0)])["spanning_trees"] == 3
    assert measures_for_graph(4, [(0, 1), (1, 2), (2, 3)])["spanning_trees"] == 1
    # K4 has 16 spanning trees (Cayley)
    k4 = list(itertools.combinations(range(4), 2))
    assert measures_for_graph(4, k4)["spanning_trees"] == 16
    assert measures_for_graph(4, [(0, 1), (2, 3)])["spanning_trees"] == 0


def test_hivtrees_are_trees_distributed():
    """The five-tree fixture (standing in for the reference's HIV tree
    corpora) is all trees — run the kernel as the real
    groupby(graph_id).map_groups Dataset pipeline."""
    t = read_aids(HIV5)
    measures = graph_measures(
        rd.from_arrow(t["gdb_vertices"]), rd.from_arrow(t["gdb_edges"])
    ).to_pandas()
    assert len(measures) == 5
    assert measures["is_tree"].all()
    assert measures["connected"].all()
    assert (measures["n_bridges"] == measures["m"]).all()
    # gf-style filter: graphs with n >= 40, project id+value
    big = filter_graphs(
        graph_measures(
            rd.from_arrow(t["gdb_vertices"]), rd.from_arrow(t["gdb_edges"])
        ),
        "n", ">=", 40, projection="id+value",
    ).to_pandas()
    want = measures[measures["n"] >= 40][["graph_id", "n"]]
    assert sorted(big["graph_id"]) == sorted(want["graph_id"])


def _random_tree(rng, n, n_labels=3):
    """Random labeled tree via random parent attachment."""
    edges = []
    for v in range(1, n):
        p = int(rng.integers(0, v))
        edges.append((p, v, str(rng.integers(0, n_labels))))
    vlabels = {v: str(rng.integers(0, n_labels)) for v in range(n)}
    return vlabels, edges


def test_cstring_isomorphism_invariance():
    rng = np.random.default_rng(5)
    for trial in range(20):
        n = int(rng.integers(2, 12))
        vlabels, edges = _random_tree(rng, n)
        base = canonical_tree_string(vlabels, edges)
        assert base is not None and base.endswith(" ")
        # random relabeling of vertex ids must not change the cstring
        perm = rng.permutation(n)
        vl2 = {int(perm[v]): lab for v, lab in vlabels.items()}
        e2 = [(int(perm[v]), int(perm[w]), el) for v, w, el in edges]
        rng.shuffle(e2)
        assert canonical_tree_string(vl2, e2) == base


def test_cstring_distinguishes_labels():
    a = canonical_tree_string({0: "a", 1: "b"}, [(0, 1, "x")])
    b = canonical_tree_string({0: "a", 1: "b"}, [(0, 1, "y")])
    c = canonical_tree_string({0: "a", 1: "c"}, [(0, 1, "x")])
    assert len({a, b, c}) == 3


def test_cstring_non_tree_none():
    assert canonical_tree_string({0: "a", 1: "b", 2: "c"},
                                 [(0, 1, "x"), (1, 2, "x"), (2, 0, "x")]) is None
    assert canonical_tree_string({0: "a", 1: "b", 2: "c"}, [(0, 1, "x")]) is None


def test_cstring_docs_example_shape():
    # "2 ( 1 2 ) ( 1 6 ) " from fileformat.md: star with center 2
    s = canonical_tree_string(
        {0: "2", 1: "2", 2: "6"}, [(0, 1, "1"), (0, 2, "1")]
    )
    assert s == "2 ( 1 2 ) ( 1 6 ) "


def test_cstring_roundtrip():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 10))
        vlabels, edges = _random_tree(rng, n)
        s = canonical_tree_string(vlabels, edges)
        v2, e2 = parse_cstring(s)
        assert canonical_tree_string(v2, e2) == s


# ---------------------------------------------------------------------------
# round-2 kernel pack: outerplanarity, block degree/criticality, ST estimate,
# non-isomorphic cycles / spanning trees, canonical cycle strings
# ---------------------------------------------------------------------------

import itertools
import random

from graphminingtools_ray.functions.cstring import canonical_cycle


def test_canonical_cycle_rotation_reflection_invariant():
    rng = random.Random(3)
    for _ in range(200):
        k = rng.randint(3, 7)
        vl = [rng.choice("abc") for _ in range(k)]
        el = [rng.choice("xy") for _ in range(k)]
        base = canonical_cycle(vl, el)
        r = rng.randrange(k)
        assert canonical_cycle(vl[r:] + vl[:r], el[r:] + el[:r]) == base
        vl_f = [vl[(0 - i) % k] for i in range(k)]
        el_f = [el[(-1 - i) % k] for i in range(k)]
        assert canonical_cycle(vl_f, el_f) == base


def test_kernel_pack_known_graphs():
    C5 = [(i, (i + 1) % 5) for i in range(5)]
    K4 = list(itertools.combinations(range(4), 2))
    K23 = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    W4 = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
    fan = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 1), (4, 2), (4, 3)]
    tree = [(0, 1), (1, 2), (1, 3)]

    assert measures_for_graph(5, C5)["is_outerplanar"]
    assert not measures_for_graph(4, K4)["is_outerplanar"]
    assert measures_for_graph(4, K4[:-1])["is_outerplanar"]
    assert not measures_for_graph(5, K23)["is_outerplanar"]
    assert not measures_for_graph(5, W4)["is_outerplanar"]
    assert measures_for_graph(5, fan)["is_outerplanar"]

    mt = measures_for_graph(4, tree)
    # blockDegree counts only m>1 components (listComponents.c:52-88,
    # filter.c:516-521): a tree has no blocks, so max/min are 0; the
    # articulation count uses criticality (bridges included).
    assert mt["n_articulation_points"] == 1
    assert mt["max_block_degree"] == 0 and mt["min_block_degree"] == 0
    # two triangles sharing vertex 2, plus a pendant bridge at 0: vertex 2
    # sits in two blocks (block degree 2), the pendant vertex 5 in none
    bowtie = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (0, 5)]
    mb = measures_for_graph(6, bowtie)
    assert mb["max_block_degree"] == 2 and mb["min_block_degree"] == 0
    assert mb["n_articulation_points"] == 2  # vertices 0 and 2
    mc5b = measures_for_graph(5, C5)
    assert mc5b["max_block_degree"] == 1 and mc5b["min_block_degree"] == 1

    mk4 = measures_for_graph(4, K4)
    assert mk4["spanning_trees"] == 16
    assert mk4["n_noniso_spanning_trees"] == 2  # path vs star on 4 vertices
    assert mk4["spanning_tree_estimate"] >= mk4["spanning_trees"]
    mc5 = measures_for_graph(5, C5)
    assert mc5["spanning_trees"] == 5 and mc5["n_noniso_spanning_trees"] == 1
    assert mc5["n_noniso_cycles"] == 1 and mc5["n_simple_cycles"] == 1


def _has_minor(n, adj, H_edges, h):
    """Brute-force H-minor test: partition a vertex subset into h connected
    classes with every H-edge realized (exponential — oracle only)."""
    for assign in itertools.product(range(-1, h), repeat=n):
        classes = [set() for _ in range(h)]
        for v, c in enumerate(assign):
            if c >= 0:
                classes[c].add(v)
        if any(not c for c in classes):
            continue
        ok = True
        for cl in classes:
            start = next(iter(cl))
            seen = {start}
            st = [start]
            while st:
                v = st.pop()
                for w in adj[v]:
                    if w in cl and w not in seen:
                        seen.add(w)
                        st.append(w)
            if seen != cl:
                ok = False
                break
        if not ok:
            continue
        for a, b in H_edges:
            if not any(w in classes[b] for v in classes[a] for w in adj[v]):
                ok = False
                break
        if ok:
            return True
    return False


def test_outerplanarity_matches_minor_oracle():
    """is_outerplanar == (no K4 minor and no K2,3 minor) — the textbook
    characterization, brute-forced on random small graphs."""
    K4E = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    K23E = [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]
    rng = np.random.default_rng(9)
    for trial in range(40):
        n = int(rng.integers(3, 8))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.45
        ]
        adj = [set() for _ in range(n)]
        for a, b in edges:
            adj[a].add(b)
            adj[b].add(a)
        got = measures_for_graph(n, edges)["is_outerplanar"]
        want = not (_has_minor(n, adj, K4E, 4) or _has_minor(n, adj, K23E, 5))
        assert got == want, (n, edges)


def test_articulation_points_match_removal_oracle():
    rng = np.random.default_rng(21)
    for trial in range(30):
        n = int(rng.integers(3, 9))
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.4
        ]

        def n_comps(nn, es, skip=None):
            adj = [set() for _ in range(nn)]
            for a, b in es:
                if skip in (a, b):
                    continue
                adj[a].add(b)
                adj[b].add(a)
            seen = set()
            c = 0
            for s in range(nn):
                if s == skip or s in seen:
                    continue
                c += 1
                st = [s]
                seen.add(s)
                while st:
                    v = st.pop()
                    for w in adj[v]:
                        if w not in seen:
                            seen.add(w)
                            st.append(w)
            return c

        base = n_comps(n, edges)
        want = sum(
            1 for v in range(n) if n_comps(n, edges, skip=v) > base
        )
        got = measures_for_graph(n, edges)["n_articulation_points"]
        assert got == want, (n, edges, got, want)


# --- round-2b kernel pack: traceability + local easiness ---------------------


def _ham_path_exists(n, edges):
    adj = [set() for _ in range(n)]
    for v, w in edges:
        if v != w:
            adj[v].add(w)
            adj[w].add(v)
    if n <= 1:
        return True
    for perm in itertools.permutations(range(n)):
        if all(perm[i + 1] in adj[perm[i]] for i in range(n - 1)):
            return True
    return False


def test_traceable_cactus_matches_hamiltonian_oracle():
    """On cactus graphs the hp_cactus.c criterion is exact: traceable ⟺ a
    Hamiltonian path exists (brute-force permutation oracle)."""
    import random

    rng = random.Random(7)
    checked_cacti = 0
    for _ in range(500):
        n = rng.randint(1, 7)
        pool = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        meas = measures_for_graph(n, edges)
        hp = _ham_path_exists(n, edges)
        if meas["is_cactus"]:
            checked_cacti += 1
            assert meas["is_traceable_cactus"] == hp, (n, edges)
        # weak traceability is a NECESSARY condition on connected graphs
        if meas["connected"] and hp:
            assert meas["is_weakly_traceable"], (n, edges)
    assert checked_cacti > 30  # the random mix must actually hit cacti


def test_traceable_cactus_known_graphs():
    # path: traceable cactus
    assert measures_for_graph(4, [(0, 1), (1, 2), (2, 3)])[
        "is_traceable_cactus"]
    # star K1,3: cactus but NOT traceable (center criticality 3)
    st = measures_for_graph(4, [(0, 1), (0, 2), (0, 3)])
    assert st["is_cactus"] and not st["is_traceable_cactus"]
    assert not st["is_weakly_traceable"]
    # triangle with a pendant at one vertex: traceable cactus
    m = measures_for_graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert m["is_traceable_cactus"] and m["is_weakly_traceable"]
    # two triangles sharing a vertex: criticality 2 at the cut vertex, each
    # block has ONE critical vertex -> traceable
    m2 = measures_for_graph(
        5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])
    assert m2["is_traceable_cactus"]
    # K4 is not a cactus; weakly-traceable conditions hold (no articulation)
    k4 = measures_for_graph(4, list(itertools.combinations(range(4), 2)))
    assert not k4["is_cactus"] and k4["is_weakly_traceable"]


def test_local_easiness_block_products():
    """easiness(v) = Π #ST(block ∋ v) over multi-edge blocks; min/max over
    vertices (localEasiness.c:10-107)."""
    # C4 with pendant: blocks = {C4 (4 STs), bridge}; pendant vertex easiness
    # 1, cycle vertices 4
    m = measures_for_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    assert (m["min_local_easiness"], m["max_local_easiness"]) == (1, 4)
    # triangle + C4 sharing vertex 0: easiness(0) = 3*4 = 12, others 3 or 4
    m2 = measures_for_graph(
        6, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 5), (5, 0)])
    assert (m2["min_local_easiness"], m2["max_local_easiness"]) == (3, 12)
    # tree: every block is a bridge -> all easiness 1
    m3 = measures_for_graph(4, [(0, 1), (1, 2), (1, 3)])
    assert (m3["min_local_easiness"], m3["max_local_easiness"]) == (1, 1)
    # empty graph: sentinel
    m4 = measures_for_graph(0, [])
    assert (m4["min_local_easiness"], m4["max_local_easiness"]) == (-1, -1)


def test_gaston_conversion_roundtrip():
    """formatConverter (gfc) semantics: aids -> gaston -> tabular preserves
    structure (0/1-based shift, a<b edge order)."""
    from graphminingtools_ray.sources.aids import (
        parse_gaston_text,
        read_aids,
        write_gaston_text,
    )

    tables = read_aids(HIV5)
    gt = write_gaston_text(tables)
    assert gt.startswith("t # ")
    back = parse_gaston_text(gt)
    assert back["gdb_graphs"].num_rows == tables["gdb_graphs"].num_rows
    assert back["gdb_vertices"]["label"].to_pylist() == (
        tables["gdb_vertices"]["label"].to_pylist()
    )
    # edge multiset per graph is preserved (order-insensitive, a<b canon)
    def canon(t):
        return sorted(
            (r["graph_id"], min(r["v"], r["w"]), max(r["v"], r["w"]), r["label"])
            for r in t["gdb_edges"].to_pylist()
        )

    assert canon(back) == canon(tables)


def test_aids99_label_map_and_unlabeled():
    from graphminingtools_ray.sources.aids import (
        aids99_vertex_label,
        apply_aids99_labels,
        labeled_to_unlabeled,
        parse_aids_text,
    )

    assert aids99_vertex_label(2) == "C"
    assert aids99_vertex_label(63) == "AC"
    assert aids99_vertex_label(999) == "ERR"
    txt = "# 1 0 3 2\n1 2 3 \n1 2 1 2 3 2 \n$"
    tables = parse_aids_text(txt)
    mapped = apply_aids99_labels(tables)
    assert mapped["gdb_vertices"]["label"].to_pylist() == ["H", "C", "O"]
    # edge labels untouched (aids99EdgeLabel is numeric passthrough)
    assert mapped["gdb_edges"]["label"].to_pylist() == ["1", "2"]
    un = labeled_to_unlabeled(tables)
    assert set(un["gdb_vertices"]["label"].to_pylist()) == {"1"}
    assert set(un["gdb_edges"]["label"].to_pylist()) == {"1"}


def test_dot_writer():
    from graphminingtools_ray.sources.aids import parse_aids_text, write_dot_text

    txt = "# 7 0 2 1\nA B \n1 2 x \n$"
    dot = write_dot_text(parse_aids_text(txt), 7)
    assert 'v1 [label="A"]' in dot and "v1 -- v2" in dot


def test_vertex_cycle_degrees_pipeline(ray_session):
    """ccd output mode 'a' (countCycleDegree.c): per-vertex count of m>1
    biconnected components; pinned on a bowtie+pendant fixture and checked
    for consistency with the per-graph max/min measures on a generated DB."""
    import pyarrow as pa
    import ray.data as rd

    from graphminingtools_ray.graph.gdb import (
        graph_measures,
        vertex_cycle_degrees,
    )
    from graphminingtools_ray.sources.generators import (
        block_chain_db,
        gdb_from_long,
    )

    # bowtie (two triangles sharing vertex 2) + pendant 5 at 0
    v = rd.from_arrow(pa.table({
        "graph_id": [0] * 6, "vertex_id": list(range(6)),
        "label": ["x"] * 6,
    }))
    e_pairs = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (0, 5)]
    e = rd.from_arrow(pa.table({
        "graph_id": [0] * len(e_pairs),
        "v": [a for a, _ in e_pairs], "w": [b for _, b in e_pairs],
        "label": ["x"] * len(e_pairs),
    }))
    out = vertex_cycle_degrees(v, e).to_pandas().sort_values(
        "vertex_id"
    ).reset_index(drop=True)
    assert out["cycle_degree"].tolist() == [1, 1, 2, 1, 1, 0]

    # generated DB: per-vertex max/min must reproduce the measure columns
    long_ds = block_chain_db(6, 3, 4, diagonal_prob=0.3, seed=13)
    gv, ge = gdb_from_long(long_ds)
    per_v = vertex_cycle_degrees(gv, ge).to_pandas()
    meas = graph_measures(gv, ge).to_pandas()
    agg = per_v.groupby("graph_id")["cycle_degree"].agg(["max", "min"])
    for r in meas.itertuples():
        assert agg.loc[r.graph_id, "max"] == r.max_block_degree
        assert agg.loc[r.graph_id, "min"] == r.min_block_degree


def test_random_sample_filter(ray_session):
    """gf -f randomSample (filter.c:398) as a deterministic seeded measure:
    stable across runs/partitionings, rate tracks the threshold, and it
    composes with the gf comparator dispatch."""
    import pandas as pd

    from graphminingtools_ray.graph.gdb import filter_graphs, with_random_sample

    t = pa.table({"graph_id": pa.array(range(2000), pa.int64())})
    ds = rd.from_arrow(t)
    m1 = with_random_sample(ds, seed=7).to_pandas().sort_values("graph_id")
    m2 = with_random_sample(ds.repartition(8), seed=7).to_pandas().sort_values(
        "graph_id"
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(m1.reset_index(drop=True), m2)
    assert (m1["random_sample"] >= 0).all() and (m1["random_sample"] < 1000).all()
    kept = filter_graphs(
        with_random_sample(ds, seed=7), "random_sample", "<", 100
    ).to_pandas()
    assert 130 < len(kept) < 270  # ~10% of 2000
    # different seed, different subset
    kept2 = filter_graphs(
        with_random_sample(ds, seed=8), "random_sample", "<", 100
    ).to_pandas()
    assert set(kept["graph_id"]) != set(kept2["graph_id"])
