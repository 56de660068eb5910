import pytest

from chromatic_schur.graphs import (
    complete_graph,
    generalized_net,
    path_graph,
    star_graph,
    with_disjoint_path,
)
from chromatic_schur.partitions import UNDEFINED, partitions_of
from chromatic_schur.tabloids import _content_table, bottom_hooks
from tabloid_helpers import (
    content_table,
    fragment_vertices,
    peel_bottom_hooks,
    reference_content_table,
    split_head_tail,
    srh_g_tabloids,
    srh_tabloids,
    tabloids_with_bottom_vertex,
)


# --- independent oracle -----------------------------------------------------
#
# Enumerate tilings without the peel order: generate every north/east cell
# path starting in the first column, backtrack over exact covers of the
# diagram, then validate the bottom-to-top removal condition by replaying it.
# Signs come from the north steps counted on these paths.


def _all_first_column_paths(shape):
    cells = {(r + 1, c + 1) for r, width in enumerate(shape) for c in range(width)}
    paths = []

    def extend(path):
        paths.append(tuple(path))
        r, c = path[-1]
        for nxt in ((r - 1, c), (r, c + 1)):  # north or east
            if nxt in cells:
                path.append(nxt)
                extend(path)
                path.pop()

    for r in range(1, len(shape) + 1):
        extend([(r, 1)])
    return paths


def _is_partition_diagram(cells):
    rows = {}
    for r, c in cells:
        rows.setdefault(r, set()).add(c)
    if not rows:
        return True
    if set(rows) != set(range(1, max(rows) + 1)):
        return False
    widths = []
    for r in sorted(rows):
        cols = rows[r]
        if cols != set(range(1, len(cols) + 1)):
            return False
        widths.append(len(cols))
    return all(widths[i] >= widths[i + 1] for i in range(len(widths) - 1))


def brute_force_tiling_counts(shape):
    """The number of tilings and the sum of their signs."""
    cells = frozenset((r + 1, c + 1) for r, width in enumerate(shape) for c in range(width))
    paths = _all_first_column_paths(shape)

    def covers(remaining, chosen):
        if not remaining:
            # replay removals bottom-to-top; each must leave a partition diagram
            left = set(cells)
            for path in sorted(chosen, key=lambda p: -p[0][0]):
                left -= set(path)
                if not _is_partition_diagram(left):
                    return 0, 0
            north = sum(a[0] != b[0] for path in chosen for a, b in zip(path, path[1:]))
            return 1, (-1) ** north
        target = max(remaining)  # fill the lowest-rightmost cell next
        count = signed = 0
        for path in paths:
            if target in path and set(path) <= remaining:
                c, s = covers(remaining - set(path), chosen + [path])
                count += c
                signed += s
        return count, signed

    return covers(cells, [])


# --- golden and derived cases ----------------------------------------------


def test_golden_shape_4_2_2():
    tabs = list(srh_tabloids((4, 2, 2)))
    assert [t.content for t in tabs] == [
        (2, 2, 4),
        (2, 5, 1),
        (3, 1, 4),
        (3, 5),
        (6, 1, 1),
        (6, 2),
    ]
    assert [t.sign for t in tabs] == [1, -1, -1, 1, 1, -1]


def test_small_shapes():
    (only,) = srh_tabloids((1,))
    assert only.content == (1,) and only.sign == 1
    tabs = list(srh_tabloids((2, 1)))
    assert [(t.content, t.sign) for t in tabs] == [((1, 2), 1), ((3,), -1)]
    (empty,) = srh_tabloids(())
    assert empty.content == () and empty.sign == 1


def test_single_row_always_positive():
    for n in range(1, 7):
        for t in srh_tabloids((n,)):
            assert t.sign == 1


def test_tiling_invariants():
    for n in range(0, 8):
        for shape in partitions_of(n):
            diagram = {(r + 1, c + 1) for r, width in enumerate(shape) for c in range(width)}
            for t in srh_tabloids(shape):
                covered = [c for hook in t.hooks for c in hook.cells]
                assert len(covered) == len(set(covered)) == len(diagram)
                assert set(covered) == diagram
                assert all(hook.cells[0][1] == 1 for hook in t.hooks)
                assert sum(t.content) == n


def test_peel_count_matches_brute_force_tiler():
    for n in range(0, 9):
        for shape in partitions_of(n):
            tabs = list(srh_tabloids(shape))
            assert (len(tabs), sum(t.sign for t in tabs)) == brute_force_tiling_counts(shape)


def test_signed_content_table_matches_enumerated_tabloids():
    for n in range(0, 11):
        for shape in partitions_of(n):
            grouped = {}
            for t in srh_tabloids(shape):
                mu = tuple(sorted(t.content, reverse=True))
                grouped[mu] = grouped.get(mu, 0) + t.sign
            assert content_table(shape) == {mu: c for mu, c in grouped.items() if c}, shape
    with pytest.raises(TypeError):
        _content_table(shape)[0] = 0  # read-only


def test_arithmetic_peel_matches_the_hook_cells():
    # the same hooks in the same order: length, sign and the diagram left,
    # the cells' diagram read off the cells that remain
    for n in range(13):
        for shape in partitions_of(n):
            expected = [
                (hook.cells[-1][0], hook.length, -1 if hook.north_steps & 1 else 1, reduced)
                for hook, reduced in peel_bottom_hooks(shape)
            ]
            assert list(bottom_hooks(shape)) == expected, shape


def test_tail_cell_count_matches_the_hook_cells():
    # the head/tail statistics count a hook's tail cells off the row
    # lengths; on every subdiagram the peel reaches, that is the number of
    # its cells below the head rows, and they come first in read order
    from chromatic_schur.tabloids import _tail_cells

    for n in range(11):
        for shape in partitions_of(n):
            h = sum(1 for p in shape if p > 1)
            todo, seen = [shape], set()
            while todo:
                current = todo.pop()
                if current in seen:
                    continue
                seen.add(current)
                for hook, reduced in peel_bottom_hooks(current):
                    j = _tail_cells(current, hook.cells[-1][0], h)
                    assert j == sum(1 for r, _ in hook.cells if r > h), (shape, current, hook)
                    assert all(r > h for r, _ in hook.cells[:j]), (shape, current, hook)
                    todo.append(reduced)


def test_id_keyed_content_tables_match_the_reference():
    for n in range(15):
        for shape in partitions_of(n):
            assert content_table(shape) == reference_content_table(shape), shape


def test_grouped_route_builds_no_rim_hook(monkeypatch):
    # both routes peel by the row lengths alone: no hook's cells are built
    from chromatic_schur import graphs, tabloids
    from chromatic_schur.coefficients import schur_expansion

    def refuse(*args):
        raise AssertionError("a route built hook cells")

    monkeypatch.setattr(tabloids, "_hook_cells", refuse)
    tabloids.bottom_hooks.cache_clear()
    tabloids._content_table.cache_clear()
    graphs._types_for.cache_clear()
    schur_expansion(path_graph(12))
    assert tabloids.bottom_hooks.cache_info().currsize > 0
    schur_expansion(path_graph(8), "tabloid")
    tabloids.pendant_tail_counts((2, 2, 1, 1, 1, 1), generalized_net(4, 4), range(1, 5))


def test_head_class_sums_build_each_hook_cells_once(monkeypatch):
    # cells only for hooks with a cell in the head, once per (subdiagram,
    # top row) in a call
    from chromatic_schur import tabloids

    built = []
    cells = tabloids._hook_cells

    def recorded(shape, top):
        built.append((shape, top))
        return cells(shape, top)

    monkeypatch.setattr(tabloids, "_hook_cells", recorded)
    # pendant-first: pendants 1..4; two head rows
    assert tabloids.head_class_sums((3, 2, 1, 1, 1), generalized_net(4, 4), range(1, 5))
    assert built and len(built) == len(set(built))
    assert all(top <= 2 for _, top in built)


# --- graph-filled tabloids ---------------------------------------------------


def test_g_tabloids_two_singletons():
    tabs = list(srh_g_tabloids((1, 1), complete_graph(2)))
    assert len(tabs) == 2
    assert all(t.sign == 1 for t in tabs)


def test_g_tabloids_need_stable_hooks():
    assert list(srh_g_tabloids((2,), complete_graph(2))) == []


def test_g_tabloids_size_mismatch_and_undefined_empty():
    assert list(srh_g_tabloids((2, 1), star_graph(3))) == []
    assert list(srh_g_tabloids(UNDEFINED, complete_graph(2))) == []
    assert list(srh_g_tabloids((1,), UNDEFINED)) == []


def test_g_tabloids_claw_signed_sum():
    signed = sum(t.sign for t in srh_g_tabloids((2, 2), star_graph(3)))
    assert signed == -1


def test_g_tabloid_consistency_sweep():
    import itertools

    from chromatic_schur.graphs import path_graph

    graphs = [
        complete_graph(3),
        path_graph(4),
        star_graph(3),
        generalized_net(2, 2),
        generalized_net(3, 1),
    ]
    for graph in graphs:
        for lam in partitions_of(graph.n):
            for t in srh_g_tabloids(lam, graph):
                used = [v for fill in t.fills for v in fill]
                assert sorted(used) == list(graph.vertices)
                for hook, fill in zip(t.hooks, t.fills):
                    assert list(fill) == sorted(fill)  # increasing outward read
                    assert not any(pair in graph.edges for pair in itertools.combinations(fill, 2))


def test_grouped_equals_ungrouped_signed_sums():
    """The pairing between (tabloid, semi-ordered stable partition) pairs and
    filled tabloids, checked as equality of unsigned and of signed counts."""
    import random

    from chromatic_schur.graphs import count_semi_ordered_stable_partitions
    from graph_helpers import random_graph

    rng = random.Random(4)
    graphs = [complete_graph(4), star_graph(3), generalized_net(3, 2)]
    graphs += [random_graph(6, rng) for _ in range(8)]
    for graph in graphs:
        for lam in partitions_of(graph.n):
            filled = list(srh_g_tabloids(lam, graph))
            pairs = [
                (t.sign, count_semi_ordered_stable_partitions(graph, tuple(sorted(t.content, reverse=True))))
                for t in srh_tabloids(lam)
            ]
            assert len(filled) == sum(count for _, count in pairs)
            assert sum(t.sign for t in filled) == sum(sign * count for sign, count in pairs)


# --- the signed G-tabloid count ------------------------------------------------


def _half_density_graphs(seed):
    """G(n, M) graphs on 10, 10, 11 and 11 vertices with half of all pairs
    as edges, drawn as the benchmark's crosscheck workload draws them."""
    import random

    from chromatic_schur.graphs import LabeledGraph

    rng = random.Random(seed)
    out = []
    for n in (10, 10, 11, 11):
        pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        out.append(LabeledGraph(n, sorted(rng.sample(pairs, len(pairs) // 2))))
    return out


@pytest.mark.slow
def test_signed_g_tabloid_counts_equal_the_grouped_route():
    from chromatic_schur.coefficients import GROUPED, schur_expansion
    from chromatic_schur.graphs import LabeledGraph, generalized_spider, path_graph
    from chromatic_schur.tabloids import signed_g_tabloid_counts

    graphs = [g for seed in range(3) for g in _half_density_graphs(seed)]
    graphs += [
        generalized_net(6, 6),
        generalized_spider(6, (2, 1, 1, 1, 1)),
        path_graph(12),
        LabeledGraph(10, []),
    ]
    for graph in graphs:
        shapes = partitions_of(graph.n)
        grouped = schur_expansion(graph, GROUPED)
        want = {lam: grouped[lam] for lam in shapes}
        assert signed_g_tabloid_counts(graph, shapes) == want, graph


def test_signed_g_tabloid_counts_edge_cases():
    from chromatic_schur.coefficients import GROUPED, schur_expansion
    from chromatic_schur.graphs import LabeledGraph, path_graph
    from chromatic_schur.tabloids import signed_g_tabloid_counts

    empty = LabeledGraph(0, [])
    assert signed_g_tabloid_counts(empty, [()]) == {(): 1}
    assert signed_g_tabloid_counts(empty, []) == {}
    # repeated shapes are counted once, in the order first asked
    counts = signed_g_tabloid_counts(path_graph(3), [(2, 1), (1, 1, 1), (2, 1)])
    assert list(counts.items()) == [((2, 1), 1), ((1, 1, 1), 4)]
    with pytest.raises(ValueError, match="partition size must equal the vertex count"):
        signed_g_tabloid_counts(path_graph(3), [(2,)])
    with pytest.raises(ValueError, match="partition size must equal the vertex count"):
        signed_g_tabloid_counts(path_graph(3), [(3,), (2, 1, 1)])
    # the edgeless graph's coefficients are the f^lambda
    edgeless = LabeledGraph(6, [])
    assert signed_g_tabloid_counts(edgeless, [(5, 1), (3, 3)]) == {(5, 1): 5, (3, 3): 5}
    # hook lengths that no stable set fills leave a state without a column
    # for that length; asked one shape at a time and all at once, the counts
    # still equal the grouped route's
    k5 = complete_graph(5)
    # only singletons are stable in K(5), so only the column of ones counts
    want = {lam: 120 if lam == (1, 1, 1, 1, 1) else 0 for lam in partitions_of(5)}
    assert signed_g_tabloid_counts(k5, partitions_of(5)) == want
    p4 = path_graph(4)
    assert signed_g_tabloid_counts(p4, [(4,), (2, 2)]) == {(4,): 0, (2, 2): 2}
    # the highest label is isolated, so every state holding it has its top bit set
    isolated_top = LabeledGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    for graph in (k5, p4, isolated_top):
        shapes = partitions_of(graph.n)
        grouped = schur_expansion(graph, GROUPED)
        want = {lam: grouped[lam] for lam in shapes}
        assert signed_g_tabloid_counts(graph, shapes) == want, graph
        for lam in shapes:
            assert signed_g_tabloid_counts(graph, [lam]) == {lam: want[lam]}, (graph, lam)


def test_hook_plan_invariants():
    """The plan numbers the subdiagrams of each size densely, lists under
    each (length, j) exactly the ``bottom_hooks`` of that length with their
    reduced diagrams, and reaches a set closed under peeling.  On the route
    every j is 0 and a hook weighs its sign.  Below h head rows a second
    half of slots lists each hook again with j its ``_tail_cells``, and
    every hook weighs 1."""
    from chromatic_schur.tabloids import _hook_plan, _tail_cells

    for n in range(11):
        shapes = tuple(partitions_of(n))
        cases = [(shapes, None)] + [((shape,), sum(1 for p in shape if p > 1)) for shape in shapes]
        for given, h in cases:
            ids, plans = _hook_plan(given, h)
            assert set(given) <= set(ids)
            of_size: dict = {}
            for shape, i in ids.items():
                of_size.setdefault(sum(shape), {})[i] = shape
            assert set(plans) == set(of_size)
            for size, (count, groups) in plans.items():
                half = len(of_size[size])
                assert sorted(of_size[size]) == list(range(half)), (n, size)
                assert count == (half if h is None else 2 * half), (n, size, h)
                keys = [(length, j) for length, j, _ in groups]
                assert keys == sorted(set(keys)), (n, size)
                listed = sorted(
                    (i, length, j, rid, weight) for length, j, hooks in groups for i, rid, weight in hooks
                )
                peeled = []
                for i, shape in of_size[size].items():
                    for top, length, sign, reduced in bottom_hooks(shape):
                        assert reduced in ids, (shape, reduced)
                        rid = ids[reduced]
                        assert of_size[size - length][rid] == reduced
                        if h is None:
                            peeled.append((i, length, 0, rid, sign))
                            continue
                        rest = len(of_size[size - length])
                        peeled.append((i, length, 0, rid, 1))
                        peeled.append((half + i, length, _tail_cells(shape, top, h), rest + rid, 1))
                assert listed == sorted(peeled), (n, size, h)


# --- bottom-vertex classes ----------------------------------------------------


def test_bottom_vertex_examples():
    k2 = complete_graph(2)
    assert len(list(tabloids_with_bottom_vertex((1, 1), k2, 1))) == 1
    with pytest.raises(ValueError):
        list(tabloids_with_bottom_vertex((2,), k2, 1))


def test_bottom_vertex_classes_partition_everything():
    g = generalized_net(2, 2)
    for lam in partitions_of(4):
        if lam[-1] != 1:
            continue
        whole = list(srh_g_tabloids(lam, g))
        classes = [len(list(tabloids_with_bottom_vertex(lam, g, v))) for v in g.vertices]
        assert sum(classes) == len(whole)


def test_anchor_bottom_class_matches_shrunken_graph():
    g = generalized_net(2, 2)  # pendant-first: pendants 1,2; anchors 3,4
    smaller = with_disjoint_path(generalized_net(1, 1), 1)
    expected = len(list(srh_g_tabloids((2, 1), smaller)))
    for anchor in (3, 4):
        count = len(list(tabloids_with_bottom_vertex((2, 1, 1), g, anchor)))
        assert count == expected


# --- head/tail splits ----------------------------------------------------------


def test_split_head_tail_rows():
    g = generalized_net(3, 3)
    for t in srh_g_tabloids((3, 2, 1, 1, 1), g):
        (head_rows, head), (tail_rows, tail) = split_head_tail(t)
        assert head_rows == (3, 2)
        assert tail_rows == (1, 1, 1)
        assert fragment_vertices(head) | fragment_vertices(tail) == set(g.vertices)
        break
    for t in srh_g_tabloids((2, 2), generalized_net(2, 2)):
        _, tail = split_head_tail(t)
        assert tail == ((), ())
    for t in srh_g_tabloids((1, 1), complete_graph(2)):
        head, _ = split_head_tail(t)
        assert head == ((), ())


def test_head_equality_ignores_boundary_crossing():
    # same head cells and filling group together whether or not the head's
    # lowest hook continues into the tail
    g = with_disjoint_path(with_disjoint_path(complete_graph(1), 1), 1)  # 3 isolated
    heads = set()
    for t in srh_g_tabloids((2, 1), g):
        head, _ = split_head_tail(t)
        heads.add(head)
    crossing = [
        t
        for t in srh_g_tabloids((2, 1), g)
        if any(len({r for r, _ in hook.cells}) > 1 for hook in t.hooks)
    ]
    assert crossing, "expected at least one boundary-crossing hook"
    for t in crossing:
        head, _ = split_head_tail(t)
        assert head in heads


def test_tabloid_json_shape():
    t = next(srh_g_tabloids((2, 1), star_graph(2)))
    payload = t.to_json_dict()
    assert payload["shape"] == [2, 1]
    assert all(set(h) == {"cells", "steps"} for h in payload["hooks"])
    assert len(payload["filling"]) == 3


# --- head/tail statistics against the stream ------------------------------------


def _random_pendant_instance(rng):
    """A graph of at most seven vertices on a random body, and its
    pendants: each pendant has at most one neighbour, in the body, and each
    body vertex touches at most one pendant."""
    import itertools

    from chromatic_schur.graphs import LabeledGraph

    n = rng.randint(2, 7)
    body_count = rng.randint(1, n)
    body = list(range(1, body_count + 1))
    edges = [e for e in itertools.combinations(body, 2) if rng.random() < 0.5]
    free = body[:]
    rng.shuffle(free)
    for p in range(body_count + 1, n + 1):
        if free and rng.random() < 0.7:
            edges.append((free.pop(), p))
    perm = dict(zip(range(1, n + 1), rng.sample(range(1, n + 1), n)))
    graph = LabeledGraph(n, [(perm[u], perm[v]) for u, v in edges])
    return graph, frozenset(perm[p] for p in range(body_count + 1, n + 1))


def _stream_head_classes(lam, graph, pendants):
    """The head-group statistics by walking every G-tabloid, keyed by the
    head fragments."""
    k = len(lam)
    groups = {}
    for t in srh_g_tabloids(lam, graph):
        (_, head), _ = split_head_tail(t)
        acc = groups.setdefault(head, [0, 0, 0])
        acc[2] += 1
        bottom, above = t.fills[0][0], t.vertex_at((k - 1, 1))
        if bottom not in pendants or (min(bottom, above), max(bottom, above)) in graph.edges:
            continue
        acc[0] += t.sign
        acc[1] += 1
    return groups


def test_pendant_tail_counts_match_the_stream():
    import random

    from chromatic_schur.tabloids import pendant_tail_counts

    rng = random.Random(7)
    nonzero = 0
    for _ in range(120):
        graph, pendants = _random_pendant_instance(rng)
        lam = rng.choice(partitions_of(graph.n))
        total = offending = 0
        for t in srh_g_tabloids(lam, graph):
            total += 1
            tail = t.tail_vertices()
            offending += bool(tail and tail <= pendants)
        assert pendant_tail_counts(lam, graph, pendants) == (total, offending), (graph, lam, pendants)
        nonzero += offending > 0
    assert nonzero >= 20


def test_pendant_tail_counts_without_a_tail():
    # no part equal to 1: the tail is empty, so nothing can offend
    from chromatic_schur.tabloids import pendant_tail_counts

    graph = with_disjoint_path(with_disjoint_path(star_graph(3), 1), 1)
    for lam in ((2, 2, 2), (3, 3), (4, 2)):
        total = sum(1 for _ in srh_g_tabloids(lam, graph))
        assert total > 0
        assert pendant_tail_counts(lam, graph, graph.vertices) == (total, 0)


def test_head_tail_statistics_check_their_shapes():
    from chromatic_schur.graphs import path_graph
    from chromatic_schur.tabloids import head_class_sums, pendant_tail_counts

    with pytest.raises(ValueError, match="partition size must equal the vertex count"):
        pendant_tail_counts((1, 1), path_graph(3), [1])
    net = generalized_net(2, 2)  # pendant-first: pendants 1, 2
    pendants = frozenset({1, 2})
    for lam in ((2, 1), (2, 2), (3, 1)):
        with pytest.raises(ValueError, match="the shape must end in two parts equal to 1"):
            head_class_sums(lam, net, pendants)
    with pytest.raises(ValueError, match="partition size must equal the vertex count"):
        head_class_sums((1, 1, 1), net, pendants)


def test_head_tail_statistics_keep_the_route_cap(monkeypatch):
    # both fill the route's 2^n remaining-vertex states, so a 19-vertex net
    # is refused before the stable-set table is built
    import time

    from chromatic_schur import tabloids

    def refuse(graph):
        raise AssertionError("a statistic built the stable-set table")

    monkeypatch.setattr(tabloids, "stable_sets", refuse)
    net = generalized_net(10, 9)  # pendant-first: pendants 1..9
    lam = (2,) * 8 + (1, 1, 1)
    message = f"19 vertices exceed the cap of {tabloids.MAX_TABLOID_VERTICES} on the tabloid route"
    for statistic in (tabloids.pendant_tail_counts, tabloids.head_class_sums):
        started = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            statistic(lam, net, range(1, 10))
        assert time.perf_counter() - started < 1


@pytest.mark.slow
def test_head_class_sums_match_the_stream():
    import random

    from chromatic_schur.graphs import BODY_ROLES, PENDANT_ROLES
    from chromatic_schur.tabloids import head_class_sums
    from chromatic_schur.verify import run_cancellation_check

    def fragments(head, lam):
        # a reported head back to the fragments that key its class
        assert head["row_lengths"] == [p for p in lam if p > 1]
        return tuple((tuple(map(tuple, f["cells"])), tuple(f["vertices"])) for f in head["fragments"])

    # nets whose clique outnumbers the rows left in some state: GN(4,2)'s
    # four-clique already outnumbers the three rows of (4,1,1) at the root,
    # so that shape has no tabloid
    for (n, m), lam, size in (
        ((4, 2), (4, 1, 1), 0),
        ((3, 3), (2, 2, 1, 1), 42),
        ((4, 2), (2, 2, 1, 1), 20),
    ):
        graph = generalized_net(n, m)
        pendants = frozenset(graph.labels_with_role(*PENDANT_ROLES))
        report = run_cancellation_check(graph, lam, pendants, graph.labels_with_role(*BODY_ROLES))
        got = {
            fragments(inst["params"]["head"], lam): [inst["lhs"], inst["selected"], inst["head_class_size"]]
            for inst in report.instances
        }
        assert got == _stream_head_classes(lam, graph, pendants), (n, m, lam)
        assert len(got) == size, (n, m, lam)
        assert list(got) == sorted(got)

    # random graphs lie outside the cancellation claim's hypothesis, so the
    # statistic is compared on its own
    rng = random.Random(11)
    nonzero = 0
    checked = 0
    while checked < 60:
        graph, pendants = _random_pendant_instance(rng)
        shapes = [lam for lam in partitions_of(graph.n) if len(lam) >= 2 and lam[-2:] == (1, 1)]
        if not shapes:
            continue
        lam = rng.choice(shapes)
        checked += 1
        want = _stream_head_classes(lam, graph, pendants)
        assert head_class_sums(lam, graph, pendants) == want, (graph, lam, pendants)
        nonzero += any(acc[0] for acc in want.values())
    assert nonzero >= 10


# --- the stable-set table ------------------------------------------------------


def test_stable_set_table_filtered_to_a_mask_is_the_enumeration():
    import random

    from chromatic_schur.graphs import stable_masks, stable_sets
    from graph_helpers import random_graph

    rng = random.Random(13)
    for _ in range(30):
        graph = random_graph(rng.randint(0, 9), rng, rng.choice((0.0, 0.2, 0.5, 0.8)))
        stable = stable_sets(graph)
        full = (1 << graph.n) - 1
        assert len(stable) == graph.n + 1
        for rem in [full] + [rng.randint(0, full) for _ in range(8)]:
            for k in range(graph.n + 1):
                kept = [group for group in stable[k] if not group & ~rem]
                assert kept == [g for g in stable_masks(graph.adj, rem) if g.bit_count() == k], (graph, rem, k)


def test_peels_build_the_stable_set_table_once(monkeypatch):
    """The rim hook peels read the table, so one call walks stable sets
    once, not once per set size or per memo state.  The stable-partition
    type count reads only the adjacency masks, so it walks none."""
    import random
    import sys

    from chromatic_schur import graphs, tabloids
    from chromatic_schur.coefficients import schur_expansion
    from graph_helpers import random_graph, stable_partition_types

    calls = 0
    walk = graphs.stable_masks

    def counted(*args):
        # a walk recurses through the module name; count only outer calls
        nonlocal calls
        calls += sys._getframe(1).f_code is not walk.__code__
        return walk(*args)

    monkeypatch.setattr(graphs, "stable_masks", counted)
    graph = random_graph(10, random.Random(17))
    net = generalized_net(5, 5)
    pendants = frozenset(range(1, 6))
    lam = (2, 2, 1, 1, 1, 1, 1, 1)
    graphs._types_for.cache_clear()
    for run in (
        lambda: schur_expansion(graph, "tabloid"),
        lambda: tabloids.pendant_tail_counts(lam, net, pendants),
        lambda: tabloids.head_class_sums(lam, net, pendants),
    ):
        calls = 0
        run()
        assert calls == 1
    calls = 0
    stable_partition_types(graph)
    assert calls == 0
