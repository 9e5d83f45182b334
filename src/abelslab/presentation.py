"""Finitely presented groups and coset enumeration.

Words are tuples of signed 1-based generator indices (negative = inverse),
freely reduced on construction.  The presentation builders cover the
triangular matrix groups used across the toolkit: the full unitriangular
group on an index window follows the classic elementary-matrix commutator
pattern, parametrized by an additive presentation of the base ring (the
product expansion m(t,s) comes from the ring's multiplication rows); the
economic variant drops the top-corner column generators and keeps only the
two overlapping index windows plus explicit bridging commutators.
`von_dyck_check` and the corner-element sweep `check_missing_relations`
multiply coded rows from `kernels`; the sweep's elementary matrices come
from `elementary_codes`, so it builds no Matrix object.

Todd-Coxeter is HLT with row filling on a column-major table: scan each
relator at each live coset unless its cycle there is already closed, define
cosets to fill gaps, merge coincidences via union-find with the smaller
index surviving, and run a definition-free lookahead pass before declaring
overflow.  Each coset is processed once, in creation order; a complete
table is then checked to be a closed coset action (total, every relator
acting trivially, every subgroup word fixing coset 0), so completeness is a
checked property rather than an artifact of processing order.  Enumeration
is deterministic: relators in definition order, cosets in creation order.
"""

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np

from .config import BudgetExceeded, get_budget
from .kernels import (
    closure_order, coded_ring, elementary_codes, encode_matrices, identity_vec, mul_rows,
)
from .matrices import Matrix, MatrixError
from .reports import INCONCLUSIVE, PASS, Report
from .rings import additive_presentation


class PresentationError(ValueError):
    pass


# -- words ----------------------------------------------------------------


def free_reduce(word):
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(int(x))
    return tuple(out)


def inverse_word(word):
    return tuple(-x for x in reversed(word))


def commutator_word(a, b):
    return free_reduce(tuple(a) + tuple(b) + inverse_word(a) + inverse_word(b))


def power_word(word, k):
    if k < 0:
        return power_word(inverse_word(word), -k)
    return free_reduce(tuple(word) * k)


@dataclass(frozen=True)
class Presentation:
    """Generator names plus freely reduced relator words."""

    generators: tuple
    relators: tuple

    def __post_init__(self):
        gens = tuple(str(g) for g in self.generators)
        if not all(gens) or len(set(gens)) != len(gens):
            raise PresentationError("generator names must be non-empty and unique")
        reduced = []
        for w in self.relators:
            w = free_reduce(w)
            for x in w:
                if not 1 <= abs(x) <= len(gens):
                    raise PresentationError(f"relator letter {x} out of range")
            if w:
                reduced.append(w)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "relators", tuple(reduced))


# -- triangular window presentations ---------------------------------------


def _position_name(i, j, tindex):
    return f"e{i}{j}t{tindex}"


def _variant_positions(n, economic):
    """Generator positions of the canonical or the economic variant, in
    generator order."""
    if economic:
        return [(i, j) for i in range(1, n) for j in range(i + 1, n)] + [
            (k, n) for k in range(2, n)
        ]
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _index_positions(positions, nt):
    """Generator names, one per position and additive generator in position
    order, and the map from (i, j, tindex) to each one's 1-based index."""
    names = []
    index_of = {}
    for (i, j) in positions:
        for ti in range(nt):
            index_of[(i, j, ti)] = len(names) + 1
            names.append(_position_name(i, j, ti))
    return tuple(names), index_of


def _window_relators(positions, ringpres, index_of):
    """Commutator and additive relators for a set of elementary positions.

    `index_of` maps (i, j, tindex) to a 1-based generator index.  Emits, per
    ordered position pair: the chained-product expansion when the first pair
    feeds the second, the plain commutator when the pairs are disjoint, and
    nothing for reversed chains (those are consequences).  Additive relators
    are appended per position.  Duplicate words are dropped, first
    occurrence wins.
    """
    T = ringpres.generators
    nt = len(T)
    relators = []
    seen = set()

    def emit(word):
        word = free_reduce(word)
        if word and word not in seen:
            seen.add(word)
            relators.append(word)

    positions = list(positions)
    posset = set(positions)
    for (i, j) in positions:
        for (k, l) in positions:
            if j == k:
                if (i, l) not in posset:
                    raise PresentationError(
                        f"window is not chain-closed: ({i},{l}) missing"
                    )
                for ti in range(nt):
                    for si in range(nt):
                        a = (index_of[(i, j, ti)],)
                        b = (index_of[(k, l, si)],)
                        expansion = []
                        for u, coeff in enumerate(ringpres.products[ti][si]):
                            expansion.extend(
                                power_word((index_of[(i, l, u)],), coeff)
                            )
                        emit(
                            commutator_word(a, b)
                            + inverse_word(tuple(expansion))
                        )
            elif i != l and k != j:
                for ti in range(nt):
                    for si in range(nt):
                        a = (index_of[(i, j, ti)],)
                        b = (index_of[(k, l, si)],)
                        emit(commutator_word(a, b))
    for (i, j) in positions:
        for row in ringpres.relators:
            word = []
            for u, coeff in enumerate(row):
                word.extend(power_word((index_of[(i, j, u)],), coeff))
            emit(tuple(word))
    return relators


def positions_presentation(positions, ringpres):
    """Presentation of the unitriangular pattern group on given positions.

    The position set must be closed under chaining ((i,j),(j,l) present
    forces (i,l) present); generators are one symbol per position and
    additive generator.
    """
    positions = sorted(set((int(i), int(j)) for i, j in positions))
    for i, j in positions:
        if i >= j:
            raise PresentationError(f"position ({i},{j}) is not upper triangular")
    names, index_of = _index_positions(positions, len(ringpres.generators))
    return Presentation(names, tuple(_window_relators(positions, ringpres, index_of)))


def un_canonical_presentation(n, ringpres):
    """Full unitriangular group on all positions 1 <= i < j <= n."""
    if n < 2:
        raise PresentationError(f"ambient size must be >= 2, got {n}")
    return positions_presentation(_variant_positions(n, False), ringpres)


def un_economic_presentation(n, ringpres):
    """Unitriangular presentation without the top-corner column generators.

    Generators cover positions with 1 <= i < j <= n-1 plus (k, n) for
    2 <= k <= n-1.  Relations: the window pattern on {1..n-1} and on
    {2..n} (which between them carry the additive relators of every
    position), the bridging commutator between (1,2) and (n-1,n), and for
    n = 4 the extra bridging commutator between (1,3) and (2,4).
    """
    if n < 4:
        raise PresentationError(f"economic presentation needs n >= 4, got {n}")
    nt = len(ringpres.generators)
    positions = _variant_positions(n, True)
    names, index_of = _index_positions(positions, nt)
    bridges = [((1, 2), (n - 1, n))] + ([((1, 3), (2, 4))] if n == 4 else [])
    words = (
        _window_relators([p for p in positions if p[1] <= n - 1], ringpres, index_of)
        + _window_relators([p for p in positions if p[0] >= 2], ringpres, index_of)
        + [
            commutator_word((index_of[(*a, ti)],), (index_of[(*b, si)],))
            for a, b in bridges
            for ti in range(nt)
            for si in range(nt)
        ]
    )
    # duplicate words are dropped, first occurrence wins
    return Presentation(names, tuple(dict.fromkeys(words)))


def tietze_reduce(pres):
    """Eliminate generators via length-1 and length-2 relators.

    A relator of length one forces its generator trivial; one of length two
    on distinct generators, ``a b``, makes b the inverse-or-equal of a, so b
    is eliminated.  Both moves preserve the presented group.  Each step
    takes the first relator of length one if there is one, else the first
    length-two relator on distinct generators, and steps repeat until
    neither kind is left, so spanning-tree presentations of highly
    collapsible complexes shrink to a few generators before enumeration.

    Only the relators that contain the eliminated generator are rewritten
    and freely reduced: an occurrence set per generator finds them, and two
    min-index heaps, checked lazily, hold the candidates for each move
    (substitution never lengthens a word, so a relator only joins a heap
    when rewritten).  Surviving generators keep their order and names and
    are renumbered once at the end; equal relators are dropped, first
    occurrence wins.
    """
    ngens = len(pres.generators)
    rels = list(pres.relators)
    occurs = [set() for _ in range(ngens + 1)]
    ones, twos = [], []

    def is_pair(w):
        return len(w) == 2 and abs(w[0]) != abs(w[1])

    def enter(i, w):
        for x in w:
            occurs[abs(x)].add(i)
        if len(w) == 1:
            heappush(ones, i)
        elif is_pair(w):
            heappush(twos, i)

    for i, w in enumerate(rels):
        enter(i, w)
    killed = [False] * (ngens + 1)
    while True:
        while ones and len(rels[ones[0]]) != 1:
            heappop(ones)
        while twos and not is_pair(rels[twos[0]]):
            heappop(twos)
        if ones:
            kill = abs(rels[ones[0]][0])
            sub = None
        elif twos:
            a, b = rels[twos[0]]
            kill = abs(b)
            # a then b vanishes: g_b = g_a**(-1) when b is positive,
            # g_b = g_a when b is negative (signs fold into `sub`)
            sub = -a if b > 0 else a
        else:
            break
        killed[kill] = True
        touched, occurs[kill] = occurs[kill], set()
        for i in touched:
            w = rels[i]
            for x in w:
                occurs[abs(x)].discard(i)
            if sub is None:
                w = free_reduce(x for x in w if abs(x) != kill)
            else:
                w = free_reduce(
                    (sub if x > 0 else -sub) if abs(x) == kill else x for x in w
                )
            rels[i] = w
            enter(i, w)
    number = {}
    names = []
    for g, name in enumerate(pres.generators, 1):
        if not killed[g]:
            names.append(name)
            number[g] = len(names)
    seen = set()
    out = []
    for w in rels:
        w = tuple(number[x] if x > 0 else -number[-x] for x in w)
        if w and w not in seen:
            seen.add(w)
            out.append(w)
    return Presentation(tuple(names), tuple(out))


# -- Todd-Coxeter ------------------------------------------------------------


class CosetTable:
    """Coset action table.

    Rows are cosets in creation order, transposed from the column-major
    table that ``todd_coxeter`` fills.  Columns alternate generator and
    inverse actions: column 2k is the action of generator k+1, column 2k+1
    of its inverse.  Entries are coset indices, -1 when undefined.  A
    "complete" table is total, closed under all relators, and transitive.

    The enumeration's deterministic counters: ``defined`` cosets created
    after coset 0, ``peak_live`` the largest number alive at once,
    ``coincidences`` the cosets that died, and ``lookaheads`` the lookahead
    passes run.  A complete table has ``count == 1 + defined -
    coincidences``.
    """

    def __init__(
        self, ngens, rows, status, defined=0, peak_live=0, coincidences=0, lookaheads=0
    ):
        self.ngens = ngens
        self.rows = [list(r) for r in rows]
        self.status = status
        self.defined = defined
        self.peak_live = peak_live
        self.coincidences = coincidences
        self.lookaheads = lookaheads

    @property
    def count(self):
        return len(self.rows)

    def trace(self, start, word):
        """Follow a signed word from a coset; -1 if the path leaves the table."""
        a = start
        for x in word:
            col = 2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1
            a = self.rows[a][col]
            if a < 0:
                return -1
        return a


def todd_coxeter(pres, subgroup_words=(), budget=None):
    """Enumerate cosets of the subgroup generated by the given words.

    Returns a compressed CosetTable; status "overflow" means the live coset
    count could not be kept within budget even after lookahead.

    HLT order: cosets are processed once each, in definition order; coset
    0 first scans the subgroup words, then every live coset scans each
    relator with filling and then fills the rest of its row.  A coset that
    dies while processed is left, and dead cosets are skipped.  Entries are
    always set together with their inverse entries, so once a coincidence
    has been processed no live row points at a dead coset: scans follow
    table entries directly, and the union-find is consulted only inside
    coincidence processing and to re-resolve a coset after a death.

    The table is column-major, each column list ending in a spare -1 so
    that following an undefined entry stays at -1.  A relator whose columns
    lead from a coset back to it is defined and closed there, the one case
    in which its scan writes nothing, so that scan is skipped.  A complete
    table must pass ``_check_complete``, else PresentationError is raised.
    """
    budget = get_budget(budget)
    if budget < 1:
        raise PresentationError(f"coset budget must be >= 1, got {budget}")
    ngens = len(pres.generators)

    def col_of(x):
        return 2 * (x - 1) if x > 0 else 2 * (-x - 1) + 1

    relators = [tuple(col_of(x) for x in w) for w in pres.relators]
    subwords = []
    for w in subgroup_words:
        w = free_reduce(tuple(w))
        for x in w:
            if not 1 <= abs(x) <= ngens:
                raise PresentationError(f"subgroup word letter {x} out of range")
        if w:
            subwords.append(tuple(col_of(x) for x in w))

    # entry (coset a, column c) at cols[c][a]; cols[c][-1] is the spare -1
    cols = [[-1, -1] for _ in range(2 * ngens)]
    pairs = [(col, cols[c ^ 1]) for c, col in enumerate(cols)]

    def paths(w):
        return tuple(cols[c] for c in w), tuple(cols[c ^ 1] for c in w)

    relpaths = [paths(w) for w in relators]
    parent = [0]
    live = peak_live = 1
    defined = coincidences = lookaheads = 0
    overflow = lookahead_spent = False

    def rep(k):
        r = k
        while parent[r] != r:
            r = parent[r]
        while parent[k] != r:
            parent[k], k = r, parent[k]
        return r

    def merge(a, b, queue):
        nonlocal live, coincidences
        a, b = rep(a), rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        live -= 1
        coincidences += 1
        queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            for col, inv in pairs:
                d = col[dead]
                if d == -1:
                    continue
                col[dead] = -1
                if inv[d] == dead:
                    inv[d] = -1
                mu, nu = rep(dead), rep(d)
                if col[mu] != -1:
                    merge(nu, col[mu], queue)
                elif inv[nu] != -1:
                    merge(mu, inv[nu], queue)
                else:
                    col[mu] = nu
                    inv[nu] = mu

    def define(f, col, inv):
        # may run a lookahead pass; callers must restart their scan when
        # any coset died (re-resolving representatives), so here it is
        # enough to re-resolve f and bail out if the slot got filled
        nonlocal live, peak_live, defined, lookaheads, overflow, lookahead_spent
        if live >= budget:
            if lookahead_spent:
                overflow = True
                return -1
            lookaheads += 1
            lookahead()
            lookahead_spent = True
            f = rep(f)
            if col[f] != -1:
                return col[f]
            if live >= budget:
                overflow = True
                return -1
        new = len(parent)
        for c in cols:
            c.append(-1)
        parent.append(new)
        col[f] = new
        inv[new] = f
        live += 1
        defined += 1
        if live > peak_live:
            peak_live = live
        lookahead_spent = False
        return new

    def scan(alpha, fwd, back, fill):
        # alpha is live; it is re-resolved only after a death
        while True:
            f = b = alpha
            i = 0
            j = len(fwd) - 1
            while True:
                while i <= j:
                    nxt = fwd[i][f]
                    if nxt == -1:
                        break
                    f = nxt
                    i += 1
                if i > j:
                    if f != b:
                        coincidence(f, b)
                    return
                while j >= i:
                    nxt = back[j][b]
                    if nxt == -1:
                        break
                    b = nxt
                    j -= 1
                if j < i:
                    coincidence(f, b)
                    return
                if j == i:
                    fwd[i][f] = b
                    back[i][b] = f
                    return
                if not fill:
                    return
                deaths = coincidences
                if define(f, fwd[i], back[i]) == -1:
                    return
                if coincidences != deaths:
                    alpha = rep(alpha)
                    break

    def scan_relators(alpha, fill):
        for fwd, back in relpaths:
            if overflow or parent[alpha] != alpha:
                return
            f = alpha
            for col in fwd:
                f = col[f]
            if f != alpha:  # back at alpha: closed, a scan would write nothing
                scan(alpha, fwd, back, fill)

    def lookahead():
        for a in range(len(parent)):
            scan_relators(a, False)

    alpha = 0
    while alpha < len(parent) and not overflow:
        if parent[alpha] == alpha:
            if alpha == 0:
                for w in subwords:
                    if overflow:
                        break
                    scan(0, *paths(w), True)
            scan_relators(alpha, True)
            for col, inv in pairs:
                if overflow or parent[alpha] != alpha:
                    break
                if col[alpha] == -1:
                    define(alpha, col, inv)
        alpha += 1

    status = "overflow" if overflow else "complete"
    rows = _compress(cols, parent)
    if status == "complete":
        _check_complete(rows, relators, subwords)
    return CosetTable(
        ngens,
        rows.tolist(),
        status,
        defined=defined,
        peak_live=peak_live,
        coincidences=coincidences,
        lookaheads=lookaheads,
    )


def _compress(cols, parent):
    """Live rows renumbered in creation order; entries at dead cosets -> -1."""
    total = len(parent)
    rows = np.array([c[:total] for c in cols], np.int64).reshape(len(cols), total).T
    alive = np.flatnonzero(np.array(parent) == np.arange(total))
    renumber = np.full(total + 1, -1, dtype=np.int64)
    renumber[alive] = np.arange(len(alive))
    # -1 entries index renumber[total], which stays -1
    return renumber[rows[alive]]


def _check_complete(rows, relators, subwords):
    """Raise PresentationError unless the table is a closed coset action."""
    count, ncols = rows.shape
    ident = np.arange(count)
    if (rows < 0).any():
        raise PresentationError("complete coset table has undefined entries")
    for c in range(0, ncols, 2):
        if (rows[rows[:, c], c + 1] != ident).any():
            raise PresentationError("coset table columns are not inverse pairs")
    for w in relators:
        image = ident
        for c in w:
            image = rows[image, c]
        if (image != ident).any():
            raise PresentationError("a relator does not act trivially on the cosets")
    for w in subwords:
        image = 0
        for c in w:
            image = rows[image, c]
        if image != 0:
            raise PresentationError("a subgroup word does not fix coset 0")


# -- colimits ----------------------------------------------------------------


@dataclass(frozen=True)
class ColimitDiagram:
    """Nodes with presentations, edges with maps into both endpoints.

    nodes: tuple of (name, Presentation).
    edges: tuple of (a, b, Presentation, words_in_a, words_in_b) where a, b
    index nodes and the word tuples give the image of each edge generator.
    """

    nodes: tuple
    edges: tuple

    def __post_init__(self):
        for name, pres in self.nodes:
            if not isinstance(pres, Presentation):
                raise PresentationError(f"node {name!r} lacks a presentation")
        for a, b, epres, wa, wb in self.edges:
            if not (0 <= a < len(self.nodes) and 0 <= b < len(self.nodes)):
                raise PresentationError("edge endpoints out of range")
            if len(wa) != len(epres.generators) or len(wb) != len(
                epres.generators
            ):
                raise PresentationError(
                    "edge maps must cover every edge generator"
                )


def _map_word(word, images):
    out = []
    for x in word:
        img = images[abs(x) - 1]
        out.extend(img if x > 0 else inverse_word(img))
    return free_reduce(out)


def colimit_presentation(diagram, budget=None):
    """Glue node presentations along edge identifications.

    Generators are node generators prefixed with the node name; for each
    edge generator one relator equates its two endpoint images (first
    endpoint's image written first).  Every edge relator must map to a
    trivial word in both endpoint nodes.  A mapped word that is empty or a
    listed relator (or its inverse) passes as it is; any other is traced
    from coset 0 of the node's regular coset table, which is enumerated
    within the budget at most once per node, and only when such a word
    occurs.
    """
    budget = get_budget(budget)
    names = []
    offsets = []
    for node_name, pres in diagram.nodes:
        offsets.append(len(names))
        for g in pres.generators:
            names.append(f"{node_name}.{g}")

    def shift(word, off):
        return tuple(x + off if x > 0 else x - off for x in word)

    relators = [
        shift(w, off)
        for (_, pres), off in zip(diagram.nodes, offsets)
        for w in pres.relators
    ]
    relsets = [
        set(pres.relators) | {inverse_word(r) for r in pres.relators}
        for _, pres in diagram.nodes
    ]
    tables = {}
    for a, b, epres, wa, wb in diagram.edges:
        for r in epres.relators:
            for side, words in ((a, wa), (b, wb)):
                word = _map_word(r, words)
                if not word or word in relsets[side]:
                    continue
                if side not in tables:
                    tables[side] = todd_coxeter(diagram.nodes[side][1], (), budget)
                table = tables[side]
                if table.status != "complete":
                    raise PresentationError(
                        f"edge relator validation overflowed the budget of "
                        f"{budget} cosets"
                    )
                # cosets of the trivial subgroup: the group acts regularly,
                # so a word fixes every coset when it fixes coset 0
                if table.trace(0, word) != 0:
                    raise PresentationError(
                        f"edge relator maps to a nontrivial word in node {side}"
                    )
        for left, right in zip(wa, wb):
            left, right = shift(left, offsets[a]), shift(right, offsets[b])
            relators.append(free_reduce(left + inverse_word(right)))
    return Presentation(tuple(names), tuple(relators))


# -- Cayley-graph presentations ----------------------------------------------


@dataclass(frozen=True)
class CayleyPresentation:
    """Regular-representation presentation with element-to-word lookup."""

    presentation: Presentation
    words: dict
    order: int


def regular_representation_presentation(generators, names=None, budget=None):
    """Present a finite matrix group off its Cayley graph.

    BFS from the identity in generator order; tree edges define the word
    for each element, each non-tree edge contributes one relator.  The
    normal closure of those relators is the full kernel of the evaluation
    map, so the result presents the group exactly.
    """
    budget = get_budget(budget)
    generators = list(generators)
    if names is None:
        names = tuple(f"g{k + 1}" for k in range(len(generators)))
    names = tuple(names)
    if len(names) != len(generators):
        raise PresentationError("one name per generator required")
    if not generators:
        return CayleyPresentation(Presentation((), ()), {}, 1)
    ring = generators[0].ring
    n = generators[0].n
    ident = Matrix.identity(ring, n)
    words = {ident: ()}
    order_list = [ident]
    relators = []
    seen_rel = set()
    head = 0
    while head < len(order_list):
        x = order_list[head]
        head += 1
        wx = words[x]
        for k, g in enumerate(generators):
            y = x.mul(g)
            if y not in words:
                if len(order_list) >= budget:
                    raise BudgetExceeded(
                        f"inconclusive-budget: group exceeds {budget} elements"
                    )
                words[y] = wx + (k + 1,)
                order_list.append(y)
            else:
                rel = free_reduce(wx + (k + 1,) + inverse_word(words[y]))
                if rel and rel not in seen_rel:
                    seen_rel.add(rel)
                    relators.append(rel)
    pres = Presentation(names, tuple(relators))
    return CayleyPresentation(pres, words, len(order_list))


# -- von Dyck and matrix-side relation checks ---------------------------------


def von_dyck_check(pres, assignment):
    """True iff every relator evaluates to the identity matrix.

    `assignment` maps each generator name to an invertible Matrix over a
    finite ring; all images must share ring and size.  Each image is
    inverted once and every relator is evaluated at once on coded rows,
    letter by letter: a relator is a row of letter indices into (identity,
    images, inverses), padded with the identity.
    """
    if set(assignment) != set(pres.generators):
        raise PresentationError("assignment must cover exactly the generators")
    images = [assignment[g] for g in pres.generators]
    if not images:
        return True
    ring = images[0].ring
    n = images[0].n
    inverses = []
    for m in images:
        if m.ring != ring or m.n != n:
            raise PresentationError("images must share ring and size")
        try:
            inverses.append(m.inverse())
        except MatrixError as exc:
            raise PresentationError(f"image is not invertible: {exc}") from exc
    if not ring.finite:
        raise PresentationError("the von Dyck check needs a finite ring")
    cr = coded_ring(ring)
    ident = identity_vec(cr, n)
    letters = np.concatenate(
        [ident[None], encode_matrices(cr, images), encode_matrices(cr, inverses)]
    )
    width = max(map(len, pres.relators), default=0)
    index = np.zeros((len(pres.relators), width), np.int64)
    for row, w in zip(index, pres.relators):
        row[: len(w)] = [x if x > 0 else len(images) - x for x in w]
    value = np.tile(ident, (len(pres.relators), 1))
    for column in index.T:
        value = mul_rows(cr, value, letters[column], n)
    return bool((value == ident).all())


def check_missing_relations(n, ring):
    """Verify, in the unitriangular matrix group over a finite ring, the
    corner-element facts that the economic presentation must reproduce.

    The corner element c(t) is defined as the commutator of the (1,2) and
    (2,n) elementaries.  Checks: c(t) equals the (1,n) elementary; mixed
    first-row/last-column commutators vanish; every (1,j)/(j,n) chain
    reproduces c(t); c(s) is central against all elementaries; c respects
    the additive relators.  Each sweep is one batch of code rows:
    e_ij(t)^-1 is e_ij(-t), [a, b]^-1 is [b, a], and powers of c(t) are
    taken by square-and-multiply.  A record counts its cases up to and
    including the first that fails.
    """
    if n < 4:
        raise PresentationError(f"corner checks need n >= 4, got {n}")
    rep = Report(suite="missing-relations", config={"n": n, "ring": ring.descriptor})
    pres = additive_presentation(ring)
    T, show, cr = pres.generators, ring.element_repr, coded_ring(ring)
    m = len(T)
    positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    E = dict(zip(positions, elementary_codes(cr, n, positions)))
    ident = identity_vec(cr, n)
    tc, ones = np.array([ring.encode(t) for t in T], np.int64), np.full(m, cr.one)
    t, s = np.indices((m, m)).reshape(2, -1)

    def e(poss, c):
        """(e_ij(c), e_ij(-c)) as code rows for every (i, j) of `poss` and
        every code of the array c, position-major."""
        return tuple(np.concatenate([E[pos][x] for pos in poss]) for x in (c, cr.neg[c]))

    def comm(x, y):
        """[x, y] = x y x^-1 y^-1 row by row, for (rows, inverse rows) x, y."""
        (a, ainv), (b, binv) = x, y
        return mul_rows(cr, mul_rows(cr, mul_rows(cr, a, b, n), ainv, n), binv, n)

    def power(x, k):
        """x^k row by row, for (rows, inverse rows) x and integers k."""
        base, k = np.where((k < 0)[:, None], x[1], x[0]), np.abs(k)
        out = np.tile(ident, (len(k), 1))
        while k.any():
            out = np.where((k & 1)[:, None] == 1, mul_rows(cr, out, base, n), out)
            base, k = mul_rows(cr, base, base, n), k >> 1
        return out

    def fails(a, b):
        return ~(a == b).all(axis=1)

    def pair_text(pairs, names):
        def text(k):
            p, ti, si = np.unravel_index(k, (len(pairs), m, m))
            return f"{names}=({pairs[p][0]},{pairs[p][1]}), t={show(T[ti])}, s={show(T[si])}"
        return text

    # c(t) for every additive generator t, with its inverse
    x12, x2n = e([(1, 2)], tc), e([(2, n)], ones)
    corner = (comm(x12, x2n), comm(x2n, x12))
    jk = [(j, k) for j in range(2, n) for k in range(2, n) if j != k and (j, k) != (2, n - 1)]
    disjoint = comm(e([(1, j) for j, _ in jk], tc[t]), e([(k, n) for _, k in jk], tc[s]))
    rows, cols = [(1, j) for j in range(2, n)], [(j, n) for j in range(2, n)]
    chain = np.tile(corner[0], (n - 2, 1))
    second = fails(comm(e(rows, tc), e(cols, ones)), chain)
    first = fails(comm(e(rows, ones), e(cols, tc)), chain)
    around = tuple(np.tile(c[s], (len(positions), 1)) for c in corner)
    coeffs = np.array(pres.relators, np.int64).reshape(-1, m)
    word = np.tile(ident, (len(coeffs), 1))
    for ti, k in enumerate(coeffs.T):
        c_t = tuple(np.tile(c[ti], (len(k), 1)) for c in corner)
        word = mul_rows(cr, word, power(c_t, k), n)

    sweeps = (
        ("corner-definition", "corner-element-matches-elementary",
         fails(corner[0], e([(1, n)], tc)[0]), lambda k: f"corner element at t={show(T[k])}"),
        ("disjoint-row-column", "mixed-corner-commutators-vanish",
         fails(disjoint, ident), pair_text(jk, "(j,k)")),
        ("chain-through-column", "corner-chain-commutators-agree", second | first,
         lambda k: f"chain j={k // m + 2}, t={show(T[k % m])} "
                   f"(unit {'second' if second[k] else 'first'})"),
        ("corner-central", "corner-element-is-central",
         fails(comm(e(positions, tc[t]), around), ident), pair_text(positions, "(i,j)")),
        ("corner-additive", "corner-element-additive-relations",
         fails(word, ident), lambda k: f"additive row {pres.relators[k]}"),
    )
    for check_id, anchor, bad, describe in sweeps:
        k = np.flatnonzero(bad)[:1]
        rep.check(
            check_id, anchor, counts={"cases": int(k[0]) + 1 if k.size else bad.size},
            counterexample=describe(int(k[0])) if k.size else None,
        )
    return rep


# -- Tits criterion ------------------------------------------------------------


def _enumerated_order(pres, images, subgroup, budget):
    """Order of the group C that ``pres`` presents, or None when its
    enumeration overflows the budget.

    ``images`` are matrices, one per generator, on which every relator of
    ``pres`` holds (None when that is not known); ``subgroup`` lists the
    1-based indices of some generators.  Let H be the matrix group their
    images generate, K the subgroup of C they generate, and P_H the
    presentation on them whose relators are those of ``pres`` in their
    letters alone.  P_H maps onto K and K onto H, so |H| <= |K| <= |P_H|,
    and when P_H enumerates to exactly |H| cosets, |C| = [C : K] * |H|:
    the index is enumerated relative to K, and |H| is a coded closure.
    When the images are missing, P_H or the index overflows the budget,
    or |P_H| != |H|, C is enumerated over the trivial subgroup.  An order
    above the budget is an overflow either way, since a complete table of
    C holds that many live cosets.
    """
    table = None
    if images is not None:
        number = {g: k + 1 for k, g in enumerate(subgroup)}
        p_h = Presentation(
            tuple(pres.generators[g - 1] for g in subgroup),
            tuple(
                tuple(number[x] if x > 0 else -number[-x] for x in w)
                for w in pres.relators
                if all(abs(x) in number for x in w)
            ),
        )
        sub = todd_coxeter(p_h, (), budget)
        # |H| <= |P_H| <= budget, so the closure fits when P_H is complete
        if sub.status == "complete" and sub.count == closure_order(
            images[0].ring, [images[g - 1] for g in subgroup], budget
        ):
            table, order_h = todd_coxeter(pres, [(g,) for g in subgroup], budget), sub.count
    if table is None or table.status != "complete":
        table, order_h = todd_coxeter(pres, (), budget), 1
    order = table.count * order_h
    return order if table.status == "complete" and order <= budget else None


def verify_presentations(n, ring, budget=None):
    """Enumerate the triangular presentations against the matrix group.

    For each variant: coset enumeration must hit the unitriangular group
    order, the relators must hold on the elementary matrices, and those
    matrices must generate the whole group; together the three checks pin
    the presented group exactly.  The corner-element sweep is appended for
    sizes where the economic variant exists.

    The order is |C| = [C : K] * |H| (``_enumerated_order``), K the
    subgroup of the last-column generators, at positions (k, n), and H the
    matrix group of their elementary images.  The lemma needs the
    relators to hold on the elementary matrices, and the variant's
    relators in those generators alone to enumerate to exactly |H|
    cosets; else, or when the index overflows, the variant is enumerated
    over the trivial subgroup.  An order above the budget is INCONCLUSIVE
    either way.
    """
    if n < 2:
        raise PresentationError(f"ambient size must be >= 2, got {n}")
    if not ring.finite:
        raise PresentationError("presentation suite needs a finite ring")
    budget = get_budget(budget)
    rep = Report("presentations", {"n": n, "ring": ring.descriptor})
    ringpres = additive_presentation(ring)
    T = ringpres.generators
    expected = ring.order() ** (n * (n - 1) // 2)
    rep.config["expected_order"] = expected

    variants = [("canonical", un_canonical_presentation(n, ringpres), False)]
    if n >= 4:
        variants.append(
            ("economic", un_economic_presentation(n, ringpres), True)
        )
    for name, pres, economic in variants:
        positions = _variant_positions(n, economic)
        images = {}
        last_column = []
        for pos_idx, (i, j) in enumerate(positions):
            for ti, t in enumerate(T):
                images[pres.generators[pos_idx * len(T) + ti]] = (
                    Matrix.elementary(ring, n, i, j, t)
                )
                if j == n:
                    last_column.append(len(images))
        holds = von_dyck_check(pres, images)

        order = _enumerated_order(
            pres, list(images.values()) if holds else None, last_column, budget
        )
        if order is not None:
            rep.check(
                f"{name}-index",
                "enumeration-matches-group-order",
                counts={"index": order, "expected": expected},
                counterexample=None
                if order == expected
                else f"enumerated {order} cosets, expected {expected}",
            )
        else:
            rep.check(
                f"{name}-index",
                "enumeration-matches-group-order",
                INCONCLUSIVE,
                counts={"expected": expected},
                counterexample="inconclusive-budget: enumeration overflowed",
            )

        rep.check(
            f"{name}-relators-hold",
            "relators-vanish-on-elementary-matrices",
            counts={"relators": len(pres.relators)},
            counterexample=None
            if holds
            else "a relator evaluates to a non-identity matrix",
        )

        try:
            generated = closure_order(ring, list(images.values()), budget)
        except BudgetExceeded as exc:
            rep.check(
                f"{name}-generates",
                "elementary-images-generate-group",
                INCONCLUSIVE,
                counts={"expected": expected},
                counterexample=str(exc),
            )
        else:
            ok = generated == expected
            rep.check(
                f"{name}-generates",
                "elementary-images-generate-group",
                counts={"generated": generated, "expected": expected},
                counterexample=None
                if ok
                else f"images generate {generated} elements, expected {expected}",
            )

    if n >= 4:
        rep.extend(check_missing_relations(n, ring))
    return rep


def generator_list(obj):
    """The Matrix generators of a subgroup spec, or of a plain sequence."""
    return list(obj.generators) if hasattr(obj, "generators") else list(obj)


def _is_unipotent_pattern(spec):
    return (
        hasattr(spec, "pattern")
        and hasattr(spec, "unit_positions")
        and spec.unit_positions == ()
    )


def family_diagram(family, budget=None):
    """ColimitDiagram for a family of subgroups and pairwise intersections.

    Unipotent pattern subgroups get window presentations with generator
    names shared across nodes, so inclusion maps are name matches.  Generic
    generator lists get Cayley-graph presentations with intersection
    elements written as BFS words in each parent.
    """
    budget = get_budget(budget)
    family = list(family)
    if all(_is_unipotent_pattern(s) for s in family):
        from .abels import intersections

        ringpres = additive_presentation(family[0].ring)
        nodes = []
        for idx, spec in enumerate(family):
            pres = positions_presentation(spec.free_positions, ringpres)
            nodes.append((f"n{idx}", pres))
        edges = []
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                meet = intersections([family[a], family[b]])
                epres = positions_presentation(
                    meet.free_positions, ringpres
                )
                def images(pres):
                    index = {g: (k + 1,) for k, g in enumerate(pres.generators)}
                    return tuple(index[g] for g in epres.generators)
                edges.append(
                    (a, b, epres, images(nodes[a][1]), images(nodes[b][1]))
                )
        return ColimitDiagram(tuple(nodes), tuple(edges))

    crs = [
        regular_representation_presentation(generator_list(s), budget=budget)
        for s in family
    ]
    nodes = tuple(
        (f"n{idx}", cp.presentation) for idx, cp in enumerate(crs)
    )
    edges = []
    for a in range(len(family)):
        for b in range(a + 1, len(family)):
            common = sorted(
                crs[a].words.keys() & crs[b].words.keys(),
                key=lambda m: m.rows,
            )
            common = [m for m in common if not m.is_identity()]
            enames = tuple(f"c{k + 1}" for k in range(len(common)))
            ecp = regular_representation_presentation(common, enames, budget)
            wa = tuple(crs[a].words[m] for m in common)
            wb = tuple(crs[b].words[m] for m in common)
            edges.append((a, b, ecp.presentation, wa, wb))
    return ColimitDiagram(nodes, edges)


def tits_criterion_check(group, family, budget=None):
    """Both directions of the nerve criterion, independently computed.

    The group order is the number of elements ``coset_complex`` closed.
    Connectivity of the coset complex is compared against surjectivity of
    the natural map (closure of the union of family generators); simple
    connectivity is compared against the colimit presentation enumerating
    to exactly the group order.  Overflow on the colimit side downgrades a
    verdict to inconclusive instead of failing.  An infinite ring is
    refused before any closure runs.

    The colimit order comes from ``_enumerated_order`` relative to the
    node of the largest member.  That route is taken only when
    ``von_dyck_check`` confirms the colimit relators on the members'
    generators and the colimit relators in that node's generators alone
    enumerate to the member's order; else the colimit is enumerated over
    the trivial subgroup.  An order above the budget is an overflow.
    """
    from . import complexes

    budget = get_budget(budget)
    ring = generator_list(group)[0].ring
    if not ring.finite:
        raise PresentationError(f"{ring.descriptor} is not finite")
    rep = Report(
        suite="tits",
        config={"family_size": len(family), "ring": ring.descriptor},
    )
    cx = complexes.coset_complex(group, family, budget=budget)
    order = len(cx.keys)
    rep.config["group_order"] = order

    components = complexes.connected_components(cx)
    union_gens = []
    for member in family:
        union_gens.extend(generator_list(member))
    generated = closure_order(ring, union_gens, budget)
    agree = (components == 1) == (generated == order)
    rep.check(
        "connectivity-vs-generation",
        "connected-iff-family-generates",
        counts={
            "components": components,
            "generated": generated,
            "group_order": order,
        },
        counterexample=None
        if agree
        else f"components={components}, generated={generated}, order={order}",
    )

    diagram = family_diagram(family, budget)
    colim = colimit_presentation(diagram, budget=budget)
    # node generators are the members' generators, in order; the largest
    # member has the fewest cosets in the complex
    images = [m for member in family for m in generator_list(member)]
    holds = von_dyck_check(colim, dict(zip(colim.generators, images)))
    largest = min(range(len(family)), key=cx.colors.count)
    start = sum(len(pres.generators) for _, pres in diagram.nodes[:largest])
    size = len(diagram.nodes[largest][1].generators)
    colim_order = _enumerated_order(
        colim, images if holds else None, range(start + 1, start + size + 1), budget
    )
    rep.check(
        "colimit-index",
        "colimit-enumeration",
        PASS if colim_order is not None else INCONCLUSIVE,
        counts={"index": colim_order or 0},
    )

    status = detail = None
    if components != 1:
        # disconnected: the natural map is not surjective, hence not an
        # isomorphism, and a disconnected complex is not simply connected
        counts = {"components": components}
    else:
        verdict = complexes.is_simply_connected(cx, budget=budget)
        counts = {"components": 1}
        if verdict == "yes":
            if colim_order is None:
                status = INCONCLUSIVE
            elif colim_order != order:
                detail = f"simply connected but colimit index {colim_order} != {order}"
        elif verdict == "no":
            if colim_order is None:
                # complex side is decisive; enumeration overflow is the
                # expected behavior for an infinite colimit
                counts["colimit_overflow"] = 1
            elif colim_order == order:
                detail = f"not simply connected but colimit index equals {order}"
        else:
            status = INCONCLUSIVE
    rep.check(
        "simple-connectivity-vs-colimit",
        "simply-connected-iff-colimit-is-group",
        status,
        counts=counts,
        counterexample=detail,
    )
    return rep
