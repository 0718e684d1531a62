"""Reader/writer for the reference's transactional graph-DB text format
("aids": 3 lines per graph, ``$`` terminator — spec re-derived from
``/root/reference/doc/content/pages/fileformat.md:17-53``; reference parser
``loading.c:333-433``).

Tabular twin (FIXTURES.md §4):
    gdb_graphs   (graph_id: int64, label: int64, n: int32, m: int32)
    gdb_vertices (graph_id: int64, vertex_id: int32, label: string)   # 1-based ids
    gdb_edges    (graph_id: int64, v: int32, w: int32, label: string)

Undirected semantics: each edge stored ONCE here (v, w as written); consumers
needing both half-edges symmetrize (the reference's loader adds both
directions in memory, ``loading.c:407-425``).

Parsing is driver-side for fixture files (they are small by the reference's
own standards); a 100 TB corpus would arrive as parquet, not aids text.
"""

from __future__ import annotations

import pyarrow as pa


def parse_aids_text(text: str) -> dict[str, pa.Table]:
    """aids text → tabular twin. Each record is exactly three physical lines
    (header, vertex labels, edge triples); the edge line of an ``m = 0`` graph
    is blank but still present, so blank lines are skipped only between
    records. A truncated record, a count that disagrees with its header, or
    an edge endpoint outside ``1..n`` raises ``ValueError``."""
    lines = text.splitlines()
    g_ids, g_labels, g_ns, g_ms = [], [], [], []
    v_gid, v_vid, v_lab = [], [], []
    e_gid, e_v, e_w, e_lab = [], [], [], []
    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        if line == "$":
            break
        parts = line.split()
        if parts[0] != "#" or len(parts) != 5:
            raise ValueError(f"expected header line, got {line[:40]!r}")
        gid, glabel, n, m = (int(p) for p in parts[1:])
        if i + 2 >= len(lines):
            raise ValueError(f"graph {gid}: truncated record")
        vlabels = lines[i + 1].split()
        if len(vlabels) != n:
            raise ValueError(f"graph {gid}: {len(vlabels)} vertex labels, header n={n}")
        etokens = lines[i + 2].split()
        if len(etokens) != 3 * m:
            raise ValueError(f"graph {gid}: {len(etokens)} edge tokens, header m={m}")
        vs = [int(t) for t in etokens[0::3]]
        ws = [int(t) for t in etokens[1::3]]
        for x in vs + ws:
            if not 1 <= x <= n:
                raise ValueError(f"graph {gid}: edge endpoint {x} outside 1..{n}")
        g_ids.append(gid)
        g_labels.append(glabel)
        g_ns.append(n)
        g_ms.append(m)
        for vi, lab in enumerate(vlabels, start=1):
            v_gid.append(gid)
            v_vid.append(vi)
            v_lab.append(lab)
        e_gid.extend([gid] * m)
        e_v.extend(vs)
        e_w.extend(ws)
        e_lab.extend(etokens[2::3])
        i += 3

    return {
        "gdb_graphs": pa.table(
            {
                "graph_id": pa.array(g_ids, pa.int64()),
                "label": pa.array(g_labels, pa.int64()),
                "n": pa.array(g_ns, pa.int32()),
                "m": pa.array(g_ms, pa.int32()),
            }
        ),
        "gdb_vertices": pa.table(
            {
                "graph_id": pa.array(v_gid, pa.int64()),
                "vertex_id": pa.array(v_vid, pa.int32()),
                "label": pa.array(v_lab, pa.string()),
            }
        ),
        "gdb_edges": pa.table(
            {
                "graph_id": pa.array(e_gid, pa.int64()),
                "v": pa.array(e_v, pa.int32()),
                "w": pa.array(e_w, pa.int32()),
                "label": pa.array(e_lab, pa.string()),
            }
        ),
    }


def read_aids(path: str) -> dict[str, pa.Table]:
    with open(path) as f:
        return parse_aids_text(f.read())


# AIDS99 numeric → element-symbol vertex label map
# (reference ``loading.c:568-845`` aids99VertexLabel switch; edge labels stay
# numeric strings per aids99EdgeLabel ``loading.c:558-563``)
AIDS99_VERTEX_LABELS = {
    1: "H", 2: "C", 3: "O", 4: "CU", 5: "N", 6: "S", 7: "P", 8: "CL",
    9: "ZN", 10: "B", 11: "BR", 12: "CO", 13: "MN", 14: "AS", 15: "AL",
    16: "NI", 17: "SE", 18: "SI", 19: "V", 20: "SN", 21: "I", 22: "F",
    23: "LI", 24: "SB", 25: "FE", 26: "PD", 27: "HG", 28: "BI", 29: "NA",
    30: "CA", 31: "TI", 32: "ZR", 33: "HO", 34: "GE", 35: "PT", 36: "RU",
    37: "RH", 38: "CR", 39: "GA", 40: "K", 41: "AG", 42: "AU", 43: "TB",
    44: "IR", 45: "TE", 46: "MG", 47: "PB", 48: "W", 49: "CS", 50: "MO",
    51: "RE", 52: "CD", 53: "OS", 54: "PR", 55: "ND", 56: "SM", 57: "GD",
    58: "YB", 59: "ER", 60: "U", 61: "TL", 62: "NB", 63: "AC",
}


def aids99_vertex_label(label: int | str) -> str:
    """Numeric AIDS99 vertex label → element symbol ("ERR" outside the map,
    matching the reference's default case)."""
    try:
        return AIDS99_VERTEX_LABELS.get(int(label), "ERR")
    except (TypeError, ValueError):
        return "ERR"


def half_edges(tables: dict[str, pa.Table], directed: bool = False) -> pa.Table:
    """The in-memory half-edge view the reference loader materializes.

    Undirected mode adds BOTH directions per stored edge (``loading.c:407-425``
    appends (v,w) and (w,v) to the two adjacency lists); directed mode keeps
    only the written direction (``loading.c:437-532`` — the reverse half-edge
    is deliberately not added, ``loading.c:523``). Degree measures over this
    view therefore mean out-degree in directed mode, matching the reference's
    ``neighborhood`` list length in each case.

    Returns a table (graph_id, v, w, label) with one row per half-edge."""
    e = tables["gdb_edges"]
    if directed or e.num_rows == 0:
        return e
    rev = pa.table(
        {
            "graph_id": e["graph_id"],
            "v": e["w"],
            "w": e["v"],
            "label": e["label"],
        }
    )
    return pa.concat_tables([e, rev]).combine_chunks()


def apply_aids99_labels(tables: dict[str, pa.Table]) -> dict[str, pa.Table]:
    """Dictionary-replace the numeric labels of an aids DB with AIDS99
    element symbols — the ingest-time label normalizer (vectorized
    dictionary-encode → replace on the dictionary, one pass)."""
    v = tables["gdb_vertices"]
    col = v["label"]
    enc = (col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
           ).dictionary_encode()
    new_dict = pa.array(
        [aids99_vertex_label(s) for s in enc.dictionary.to_pylist()],
        pa.string(),
    )
    replaced = pa.DictionaryArray.from_arrays(enc.indices, new_dict).cast(
        pa.string()
    )
    out = dict(tables)
    out["gdb_vertices"] = v.set_column(
        v.schema.get_field_index("label"), "label", replaced
    )
    return out


def labeled_to_unlabeled(tables: dict[str, pa.Table]) -> dict[str, pa.Table]:
    """Strip labels to a single constant class (reference
    ``executables/labeled2unlabeledMain.c``: every vertex/edge label becomes
    the same symbol, here "1")."""
    out = dict(tables)
    for name, col in (("gdb_vertices", "label"), ("gdb_edges", "label")):
        t = tables[name]
        out[name] = t.set_column(
            t.schema.get_field_index(col), col,
            pa.array(["1"] * t.num_rows, pa.string()),
        )
    return out


def write_gaston_text(tables: dict[str, pa.Table]) -> str:
    """aids → gaston text (reference ``executables/formatConverter.c``
    ``gastonConverterSlow``): per graph ``t # id`` then 0-based ``v i label``
    lines then ``e a b label`` lines (each undirected edge once, a < b)."""
    graphs = tables["gdb_graphs"].to_pylist()
    verts = tables["gdb_vertices"].to_pylist()
    edges = tables["gdb_edges"].to_pylist()
    vmap: dict[int, list] = {}
    for r in verts:
        vmap.setdefault(r["graph_id"], []).append(r)
    emap: dict[int, list] = {}
    for r in edges:
        emap.setdefault(r["graph_id"], []).append(r)
    out = []
    for g in graphs:
        gid = g["graph_id"]
        out.append(f"t # {gid}")
        vs = sorted(vmap.get(gid, []), key=lambda r: r["vertex_id"])
        for i, r in enumerate(vs):
            out.append(f"v {i} {r['label']}")
        for r in emap.get(gid, []):
            a, b = r["v"] - 1, r["w"] - 1  # aids is 1-based, gaston 0-based
            if a > b:
                a, b = b, a
            out.append(f"e {a} {b} {r['label']}")
    return "\n".join(out) + "\n"


def parse_gaston_text(text: str) -> dict[str, pa.Table]:
    """Inverse converter (gaston → tabular aids twin) so round-trips are
    testable; graph label defaults to 0 and header n/m are derived."""
    g_ids, g_labels, g_ns, g_ms = [], [], [], []
    v_gid, v_vid, v_lab = [], [], []
    e_gid, e_v, e_w, e_lab = [], [], [], []
    gid = None
    n = m = 0
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "t":
            if gid is not None:
                g_ids.append(gid); g_labels.append(0); g_ns.append(n); g_ms.append(m)
            gid = int(parts[2])
            n = m = 0
        elif parts[0] == "v":
            n += 1
            v_gid.append(gid)
            v_vid.append(int(parts[1]) + 1)
            v_lab.append(parts[2])
        elif parts[0] == "e":
            m += 1
            e_gid.append(gid)
            e_v.append(int(parts[1]) + 1)
            e_w.append(int(parts[2]) + 1)
            e_lab.append(parts[3])
    if gid is not None:
        g_ids.append(gid); g_labels.append(0); g_ns.append(n); g_ms.append(m)
    return {
        "gdb_graphs": pa.table(
            {
                "graph_id": pa.array(g_ids, pa.int64()),
                "label": pa.array(g_labels, pa.int64()),
                "n": pa.array(g_ns, pa.int32()),
                "m": pa.array(g_ms, pa.int32()),
            }
        ),
        "gdb_vertices": pa.table(
            {
                "graph_id": pa.array(v_gid, pa.int64()),
                "vertex_id": pa.array(v_vid, pa.int32()),
                "label": pa.array(v_lab, pa.string()),
            }
        ),
        "gdb_edges": pa.table(
            {
                "graph_id": pa.array(e_gid, pa.int64()),
                "v": pa.array(e_v, pa.int32()),
                "w": pa.array(e_w, pa.int32()),
                "label": pa.array(e_lab, pa.string()),
            }
        ),
    }


def write_dot_text(tables: dict[str, pa.Table], graph_id: int) -> str:
    """One graph as graphviz dot (debug scope — reference
    ``graphPrinting.c:214-297``)."""
    verts = [r for r in tables["gdb_vertices"].to_pylist()
             if r["graph_id"] == graph_id]
    edges = [r for r in tables["gdb_edges"].to_pylist()
             if r["graph_id"] == graph_id]
    lines = [f"graph g{graph_id} {{"]
    for r in sorted(verts, key=lambda r: r["vertex_id"]):
        lines.append(f'  v{r["vertex_id"]} [label="{r["label"]}"];')
    for r in edges:
        lines.append(f'  v{r["v"]} -- v{r["w"]} [label="{r["label"]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_aids_text(tables: dict[str, pa.Table]) -> str:
    """Inverse of parse_aids_text (same 3-line layout, ``$`` terminated)."""
    graphs = tables["gdb_graphs"].to_pylist()
    verts = tables["gdb_vertices"].to_pylist()
    edges = tables["gdb_edges"].to_pylist()
    vmap: dict[int, list] = {}
    for r in verts:
        vmap.setdefault(r["graph_id"], []).append(r)
    emap: dict[int, list] = {}
    for r in edges:
        emap.setdefault(r["graph_id"], []).append(r)
    out = []
    for g in graphs:
        gid = g["graph_id"]
        out.append(f"# {gid} {g['label']} {g['n']} {g['m']}")
        vs = sorted(vmap.get(gid, []), key=lambda r: r["vertex_id"])
        out.append(" ".join(r["label"] for r in vs) + " ")
        es = emap.get(gid, [])
        out.append(" ".join(f"{r['v']} {r['w']} {r['label']}" for r in es) + " ")
    out.append("$")
    return "\n".join(out)
