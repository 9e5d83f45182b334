"""Finitely presented groups and coset enumeration.

Words are tuples of signed 1-based generator indices (negative = inverse),
freely reduced on construction.  The presentation builders cover the
triangular matrix groups used across the toolkit: the full unitriangular
group on an index window follows the classic elementary-matrix commutator
pattern, parametrized by an additive presentation of the base ring (the
product expansion m(t,s) comes from the ring's multiplication rows); the
economic variant drops the top-corner column generators and keeps only the
two overlapping index windows plus explicit bridging commutators.

Todd-Coxeter is HLT with row filling: scan each relator at each live coset,
define cosets to fill gaps, merge coincidences via union-find with the
smaller index surviving, and run a definition-free lookahead pass before
declaring overflow.  The main loop repeats until a full pass makes no table
mutation, which makes completeness a checked property rather than an
artifact of processing order.  Enumeration is deterministic: relators in
definition order, cosets in creation order.
"""

from dataclasses import dataclass
from time import perf_counter

from .config import BudgetExceeded, get_budget
from .kernels import closure_set
from .matrices import Matrix, MatrixError
from .reports import FAIL, INCONCLUSIVE, PASS, Report
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
        if len(set(gens)) != len(gens):
            raise PresentationError("generator names must be unique")
        for g in gens:
            if not g or not any(ch.isalpha() for ch in g) or g != g.lower():
                raise PresentationError(
                    f"generator name {g!r} must be lowercase and contain a letter"
                )
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

    def word_to_text(self, word):
        parts = []
        for x in word:
            name = self.generators[abs(x) - 1]
            parts.append(name if x > 0 else name.upper())
        return " ".join(parts)

    def text_to_word(self, text):
        word = []
        index = {g: k + 1 for k, g in enumerate(self.generators)}
        for token in text.split():
            low = token.lower()
            if low not in index:
                raise PresentationError(f"unknown generator token {token!r}")
            word.append(index[low] if token == low else -index[low])
        return free_reduce(word)


def serialize_presentation(pres):
    """Plain-text form: generator list line, then one relator per line.

    Inversion is marked by case-toggling the generator name.
    """
    lines = [" ".join(pres.generators)]
    for w in pres.relators:
        lines.append(pres.word_to_text(w))
    return "\n".join(lines) + "\n"


def parse_presentation(text):
    lines = text.splitlines()
    if not lines:
        raise PresentationError("empty presentation text")
    gens = tuple(lines[0].split())
    pres = Presentation(gens, ())
    relators = []
    for line in lines[1:]:
        if line.strip():
            relators.append(pres.text_to_word(line))
    return Presentation(gens, tuple(relators))


# -- triangular window presentations ---------------------------------------


def _position_name(i, j, tindex):
    return f"e{i}{j}t{tindex}"


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
    nt = len(ringpres.generators)
    names = []
    index_of = {}
    for (i, j) in positions:
        for ti in range(nt):
            index_of[(i, j, ti)] = len(names) + 1
            names.append(_position_name(i, j, ti))
    relators = _window_relators(positions, ringpres, index_of)
    return Presentation(tuple(names), tuple(relators))


def un_canonical_presentation(n, ringpres):
    """Full unitriangular group on all positions 1 <= i < j <= n."""
    if n < 2:
        raise PresentationError(f"ambient size must be >= 2, got {n}")
    positions = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return positions_presentation(positions, ringpres)


def un_economic_presentation(n, ringpres):
    """Unitriangular presentation without the top-corner column generators.

    Generators cover positions with 1 <= i < j <= n-1 plus (k, n) for
    2 <= k <= n-1.  Relations: the window pattern on {1..n-1} and on
    {2..n}, the bridging commutator between (1,2) and (n-1,n), additive
    relators per position, and for n = 4 the extra bridging commutator
    between (1,3) and (2,4).
    """
    if n < 4:
        raise PresentationError(f"economic presentation needs n >= 4, got {n}")
    T = ringpres.generators
    nt = len(T)
    positions = [
        (i, j) for i in range(1, n) for j in range(i + 1, n)
    ] + [(k, n) for k in range(2, n)]
    names = []
    index_of = {}
    for (i, j) in positions:
        for ti in range(nt):
            index_of[(i, j, ti)] = len(names) + 1
            names.append(_position_name(i, j, ti))

    window1 = [(i, j) for (i, j) in positions if j <= n - 1]
    window2 = [(i, j) for (i, j) in positions if i >= 2]
    relators = []
    seen = set()

    def emit_all(words):
        for w in words:
            if w not in seen:
                seen.add(w)
                relators.append(w)

    emit_all(_window_relators(window1, ringpres, index_of))
    emit_all(_window_relators(window2, ringpres, index_of))
    for ti in range(nt):
        for si in range(nt):
            emit_all(
                [
                    commutator_word(
                        (index_of[(1, 2, ti)],),
                        (index_of[(n - 1, n, si)],),
                    )
                ]
            )
    for (i, j) in positions:
        for row in ringpres.relators:
            word = []
            for u, coeff in enumerate(row):
                word.extend(power_word((index_of[(i, j, u)],), coeff))
            word = free_reduce(word)
            if word and word not in seen:
                seen.add(word)
                relators.append(word)
    if n == 4:
        for ti in range(nt):
            for si in range(nt):
                emit_all(
                    [
                        commutator_word(
                            (index_of[(1, 3, ti)],),
                            (index_of[(2, 4, si)],),
                        )
                    ]
                )
    return Presentation(tuple(names), tuple(relators))


def tietze_reduce(pres):
    """Eliminate generators via length-1 and length-2 relators.

    A relator of length one forces its generator trivial; one of length two
    on distinct generators makes one the inverse-or-equal of the other.
    Both moves preserve the presented group.  Repeats until stable, so
    spanning-tree presentations of highly collapsible complexes shrink to
    a few generators before enumeration.
    """
    names = list(pres.generators)
    rels = [w for w in pres.relators]
    while True:
        rels = [w for w in (free_reduce(r) for r in rels) if w]
        kill = None
        alias = None
        for w in rels:
            if len(w) == 1:
                kill = abs(w[0])
                break
            if len(w) == 2 and abs(w[0]) != abs(w[1]) and alias is None:
                alias = (w[0], w[1])
        if kill is not None:
            rels = [tuple(x for x in w if abs(x) != kill) for w in rels]
            sub = None
        elif alias is not None:
            a, b = alias
            kill = abs(b)
            # a then b vanishes: g_b = g_a**(-1) when b is positive,
            # g_b = g_a when b is negative (signs fold into `sub`)
            sub = -a if b > 0 else a
            rels = [
                tuple(
                    (sub if x > 0 else -sub) if abs(x) == kill else x
                    for x in w
                )
                for w in rels
            ]
        else:
            break
        names.pop(kill - 1)
        rels = [
            tuple((abs(x) - 1) * (1 if x > 0 else -1) if abs(x) > kill else x for x in w)
            for w in rels
        ]
    seen = set()
    out = []
    for w in rels:
        if w not in seen:
            seen.add(w)
            out.append(w)
    return Presentation(tuple(names), tuple(out))


# -- Todd-Coxeter ------------------------------------------------------------


class CosetTable:
    """Coset action table.

    Rows are cosets in creation order.  Columns alternate generator and
    inverse actions: column 2k is the action of generator k+1, column 2k+1
    of its inverse.  Entries are coset indices, -1 when undefined.  A
    "complete" table is total, closed under all relators, and transitive.
    """

    def __init__(self, ngens, rows, status):
        self.ngens = ngens
        self.rows = [list(r) for r in rows]
        self.status = status

    @property
    def count(self):
        return len(self.rows)

    def action(self, gen):
        """Permutation induced by the 1-based generator on a complete table."""
        if self.status != "complete":
            raise PresentationError("action requires a complete table")
        col = 2 * (gen - 1)
        return tuple(row[col] for row in self.rows)

    def is_transitive(self):
        if not self.rows:
            return False
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for a in frontier:
                for v in self.rows[a]:
                    if v >= 0 and v not in seen:
                        seen.add(v)
                        nxt.append(v)
            frontier = nxt
        return len(seen) == len(self.rows)

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
    """
    budget = get_budget(budget)
    if budget < 1:
        raise PresentationError(f"coset budget must be >= 1, got {budget}")
    ngens = len(pres.generators)
    ncols = 2 * ngens

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

    rows = [[-1] * ncols]
    parent = [0]
    state = {
        "live": 1,
        "deaths": 0,
        "overflow": False,
        "rev": 0,
        "lookahead_spent": False,
    }

    def rep(k):
        r = k
        while parent[r] != r:
            r = parent[r]
        while parent[k] != r:
            parent[k], k = r, parent[k]
        return r

    def merge(a, b, queue):
        a, b = rep(a), rep(b)
        if a == b:
            return
        if a > b:
            a, b = b, a
        parent[b] = a
        state["live"] -= 1
        state["deaths"] += 1
        state["rev"] += 1
        queue.append(b)

    def coincidence(a, b):
        queue = []
        merge(a, b, queue)
        qi = 0
        while qi < len(queue):
            dead = queue[qi]
            qi += 1
            for c in range(ncols):
                d = rows[dead][c]
                if d == -1:
                    continue
                rows[dead][c] = -1
                if rows[d][c ^ 1] == dead:
                    rows[d][c ^ 1] = -1
                mu, nu = rep(dead), rep(d)
                if rows[mu][c] != -1:
                    merge(nu, rows[mu][c], queue)
                elif rows[nu][c ^ 1] != -1:
                    merge(mu, rows[nu][c ^ 1], queue)
                else:
                    rows[mu][c] = nu
                    rows[nu][c ^ 1] = mu
                    state["rev"] += 1

    def define(f, c):
        # may run a lookahead pass; callers must restart their scan when
        # any coset died (re-resolving representatives), so here it is
        # enough to re-resolve f and bail out if the slot got filled
        if state["live"] >= budget:
            if state["lookahead_spent"]:
                state["overflow"] = True
                return -1
            lookahead()
            state["lookahead_spent"] = True
            f = rep(f)
            if rows[f][c] != -1:
                return rows[f][c]
            if state["live"] >= budget:
                state["overflow"] = True
                return -1
        new = len(rows)
        rows.append([-1] * ncols)
        parent.append(new)
        rows[f][c] = new
        rows[new][c ^ 1] = f
        state["live"] += 1
        state["rev"] += 1
        state["lookahead_spent"] = False
        return new

    def scan(alpha, word, fill):
        while True:
            alpha = rep(alpha)
            f = alpha
            i = 0
            b = alpha
            j = len(word) - 1
            restart = False
            while True:
                while i <= j and rows[f][word[i]] != -1:
                    f = rep(rows[f][word[i]])
                    i += 1
                if i > j:
                    if f != b:
                        coincidence(f, b)
                    return True
                while j >= i and rows[b][word[j] ^ 1] != -1:
                    b = rep(rows[b][word[j] ^ 1])
                    j -= 1
                if j < i:
                    coincidence(f, b)
                    return True
                if j == i:
                    rows[f][word[i]] = b
                    rows[b][word[i] ^ 1] = f
                    state["rev"] += 1
                    return True
                if not fill:
                    return True
                deaths = state["deaths"]
                if define(f, word[i]) == -1:
                    return False
                if state["deaths"] != deaths:
                    restart = True
                    break
            if not restart:
                return True

    def lookahead():
        for a in range(len(rows)):
            if rep(a) != a:
                continue
            for r in relators:
                scan(a, r, False)
                if rep(a) != a:
                    break

    prev = -1
    while not state["overflow"] and prev != state["rev"]:
        prev = state["rev"]
        for alpha in range(len(rows)):
            if state["overflow"]:
                break
            if rep(alpha) != alpha:
                continue
            if alpha == 0:
                for w in subwords:
                    if not scan(0, w, True):
                        break
                if state["overflow"] or rep(alpha) != alpha:
                    continue
            for r in relators:
                if not scan(alpha, r, True):
                    break
                if rep(alpha) != alpha:
                    break
            if state["overflow"] or rep(alpha) != alpha:
                continue
            for c in range(ncols):
                if rows[alpha][c] == -1:
                    if define(alpha, c) == -1:
                        break
                    if rep(alpha) != alpha:
                        break

    alive = [a for a in range(len(rows)) if rep(a) == a]
    index = {a: k for k, a in enumerate(alive)}
    out = []
    for a in alive:
        out.append(
            [index[rep(v)] if v != -1 else -1 for v in rows[a]]
        )
    status = "overflow" if state["overflow"] else "complete"
    return CosetTable(ngens, out, status)


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


def _word_trivial_in(pres, word, budget):
    """True if the word is provably trivial, False if provably not,
    None if the regular-representation enumeration overflowed."""
    if not word:
        return True
    relset = set(pres.relators) | {inverse_word(r) for r in pres.relators}
    if word in relset:
        return True
    table = todd_coxeter(pres, (), budget)
    if table.status != "complete":
        return None
    return all(table.trace(a, word) == a for a in range(table.count))


def colimit_presentation(diagram, validate=True, budget=None):
    """Glue node presentations along edge identifications.

    Generators are node generators prefixed with the node name; for each
    edge generator one relator equates its two endpoint images (first
    endpoint's image written first).
    """
    names = []
    offsets = []
    for node_name, pres in diagram.nodes:
        offsets.append(len(names))
        for g in pres.generators:
            names.append(f"{node_name}.{g}")
    relators = []
    for (node_name, pres), off in zip(diagram.nodes, offsets):
        for w in pres.relators:
            relators.append(
                tuple(x + off if x > 0 else x - off for x in w)
            )
    for a, b, epres, wa, wb in diagram.edges:
        if validate:
            vbudget = budget if budget is not None else 4096
            for r in epres.relators:
                for side, words in ((a, wa), (b, wb)):
                    mapped = _map_word(r, words)
                    verdict = _word_trivial_in(
                        diagram.nodes[side][1], mapped, vbudget
                    )
                    if verdict is False:
                        raise PresentationError(
                            f"edge relator maps to a nontrivial word in node {side}"
                        )
                    if verdict is None:
                        raise PresentationError(
                            "edge relator validation overflowed; rerun with "
                            "validate=False or a larger budget"
                        )
        for k in range(len(epres.generators)):
            left = tuple(
                x + offsets[a] if x > 0 else x - offsets[a] for x in wa[k]
            )
            right = tuple(
                x + offsets[b] if x > 0 else x - offsets[b] for x in wb[k]
            )
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


def evaluate_word(word, images, ring, n):
    out = Matrix.identity(ring, n)
    for x in word:
        m = images[abs(x) - 1]
        out = out.mul(m if x > 0 else m.inverse())
    return out


def von_dyck_check(pres, assignment):
    """True iff every relator evaluates to the identity matrix.

    `assignment` maps each generator name to an invertible Matrix; all
    images must share ring and size.
    """
    if set(assignment) != set(pres.generators):
        raise PresentationError("assignment must cover exactly the generators")
    images = [assignment[g] for g in pres.generators]
    if not images:
        return True
    ring = images[0].ring
    n = images[0].n
    for m in images:
        if m.ring != ring or m.n != n:
            raise PresentationError("images must share ring and size")
        try:
            m.inverse()
        except MatrixError as exc:
            raise PresentationError(f"image is not invertible: {exc}") from exc
    for w in pres.relators:
        if not evaluate_word(w, images, ring, n).is_identity():
            return False
    return True


def check_missing_relations(n, ring):
    """Verify, in the unitriangular matrix group, the corner-element facts
    that the economic presentation must reproduce.

    The corner element c(t) is defined as the commutator of the (1,2) and
    (2,n) elementaries.  Checks: c(t) equals the (1,n) elementary; mixed
    first-row/last-column commutators vanish; every (1,j)/(j,n) chain
    reproduces c(t); c(s) is central against all elementaries; c respects
    the additive relators.
    """
    if n < 4:
        raise PresentationError(f"corner checks need n >= 4, got {n}")
    rep = Report(
        suite="missing-relations", config={"n": n, "ring": ring.descriptor}
    )
    pres = additive_presentation(ring)
    T = pres.generators

    def e(i, j, r):
        return Matrix.elementary(ring, n, i, j, r)

    def comm(a, b):
        return a.mul(b).mul(a.inverse()).mul(b.inverse())

    corner = {t: comm(e(1, 2, t), e(2, n, ring.one)) for t in T}

    start = perf_counter()
    bad = None
    cases = 0
    for t in T:
        cases += 1
        if corner[t] != e(1, n, t):
            bad = f"corner element at t={ring.element_repr(t)}"
            break
    rep.check(
        "corner-definition",
        "corner-element-matches-elementary",
        FAIL if bad else PASS,
        counts={"cases": cases},
        elapsed=perf_counter() - start,
        counterexample=bad,
    )

    start = perf_counter()
    bad = None
    cases = 0
    ident = Matrix.identity(ring, n)
    for j in range(2, n):
        for k in range(2, n):
            if j == k or (j, k) == (2, n - 1):
                continue
            for t in T:
                for s in T:
                    cases += 1
                    if comm(e(1, j, t), e(k, n, s)) != ident:
                        bad = f"(j,k)=({j},{k}), t={ring.element_repr(t)}, s={ring.element_repr(s)}"
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    rep.check(
        "disjoint-row-column",
        "mixed-corner-commutators-vanish",
        FAIL if bad else PASS,
        counts={"cases": cases},
        elapsed=perf_counter() - start,
        counterexample=bad,
    )

    start = perf_counter()
    bad = None
    cases = 0
    one = ring.one
    for j in range(2, n):
        for t in T:
            cases += 1
            if comm(e(1, j, t), e(j, n, one)) != corner[t]:
                bad = f"chain j={j}, t={ring.element_repr(t)} (unit second)"
                break
            if comm(e(1, j, one), e(j, n, t)) != corner[t]:
                bad = f"chain j={j}, t={ring.element_repr(t)} (unit first)"
                break
        if bad:
            break
    rep.check(
        "chain-through-column",
        "corner-chain-commutators-agree",
        FAIL if bad else PASS,
        counts={"cases": cases},
        elapsed=perf_counter() - start,
        counterexample=bad,
    )

    start = perf_counter()
    bad = None
    cases = 0
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            for t in T:
                for s in T:
                    cases += 1
                    if comm(e(i, j, t), corner[s]) != ident:
                        bad = f"(i,j)=({i},{j}), t={ring.element_repr(t)}, s={ring.element_repr(s)}"
                        break
                if bad:
                    break
            if bad:
                break
        if bad:
            break
    rep.check(
        "corner-central",
        "corner-element-is-central",
        FAIL if bad else PASS,
        counts={"cases": cases},
        elapsed=perf_counter() - start,
        counterexample=bad,
    )

    start = perf_counter()
    bad = None
    cases = 0
    for row in pres.relators:
        cases += 1
        acc = ident
        for coeff, t in zip(row, T):
            acc = acc.mul(corner[t].power(coeff))
        if acc != ident:
            bad = f"additive row {row}"
            break
    rep.check(
        "corner-additive",
        "corner-element-additive-relations",
        FAIL if bad else PASS,
        counts={"cases": cases},
        elapsed=perf_counter() - start,
        counterexample=bad,
    )
    return rep


# -- Tits criterion ------------------------------------------------------------


def _variant_positions(n, economic):
    if economic:
        return [(i, j) for i in range(1, n) for j in range(i + 1, n)] + [
            (k, n) for k in range(2, n)
        ]
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def verify_presentations(n, ring, budget=None):
    """Enumerate the triangular presentations against the matrix group.

    For each variant: coset enumeration must hit the unitriangular group
    order, the relators must hold on the elementary matrices, and those
    matrices must generate the whole group; together the three checks pin
    the presented group exactly.  The corner-element sweep is appended for
    sizes where the economic variant exists.
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
        start = perf_counter()
        table = todd_coxeter(pres, (), budget)
        if table.status == "complete":
            ok = table.count == expected
            rep.check(
                f"{name}-index",
                "enumeration-matches-group-order",
                PASS if ok else FAIL,
                counts={"index": table.count, "expected": expected},
                elapsed=perf_counter() - start,
                counterexample=None
                if ok
                else f"enumerated {table.count} cosets, expected {expected}",
            )
        else:
            rep.check(
                f"{name}-index",
                "enumeration-matches-group-order",
                INCONCLUSIVE,
                counts={"expected": expected},
                elapsed=perf_counter() - start,
                counterexample="inconclusive-budget: enumeration overflowed",
            )

        positions = _variant_positions(n, economic)
        images = {}
        for pos_idx, (i, j) in enumerate(positions):
            for ti, t in enumerate(T):
                images[pres.generators[pos_idx * len(T) + ti]] = (
                    Matrix.elementary(ring, n, i, j, t)
                )
        start = perf_counter()
        holds = von_dyck_check(pres, images)
        rep.check(
            f"{name}-relators-hold",
            "relators-vanish-on-elementary-matrices",
            PASS if holds else FAIL,
            counts={"relators": len(pres.relators)},
            elapsed=perf_counter() - start,
            counterexample=None
            if holds
            else "a relator evaluates to a non-identity matrix",
        )

        start = perf_counter()
        try:
            generated = len(closure_set(ring, list(images.values()), budget))
        except BudgetExceeded as exc:
            rep.check(
                f"{name}-generates",
                "elementary-images-generate-group",
                INCONCLUSIVE,
                counts={"expected": expected},
                elapsed=perf_counter() - start,
                counterexample=str(exc),
            )
        else:
            ok = generated == expected
            rep.check(
                f"{name}-generates",
                "elementary-images-generate-group",
                PASS if ok else FAIL,
                counts={"generated": generated, "expected": expected},
                elapsed=perf_counter() - start,
                counterexample=None
                if ok
                else f"images generate {generated} elements, expected {expected}",
            )

    if n >= 4:
        rep.extend(check_missing_relations(n, ring))
    return rep


def _as_generator_list(obj):
    gens = list(obj.generators) if hasattr(obj, "generators") else list(obj)
    return gens


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

    gen_lists = [_as_generator_list(s) for s in family]
    closures = []
    crs = []
    for gens in gen_lists:
        member = closure_set(gens[0].ring, gens, budget)
        cp = regular_representation_presentation(gens, budget=budget)
        closures.append(member)
        crs.append(cp)
    nodes = tuple(
        (f"n{idx}", cp.presentation) for idx, cp in enumerate(crs)
    )
    edges = []
    for a in range(len(family)):
        for b in range(a + 1, len(family)):
            common = sorted(
                closures[a] & closures[b],
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

    Connectivity of the coset complex is compared against surjectivity of
    the natural map (closure of the union of family generators); simple
    connectivity is compared against the colimit presentation enumerating
    to exactly the group order.  Overflow on the colimit side downgrades a
    verdict to inconclusive instead of failing.
    """
    from . import complexes

    budget = get_budget(budget)
    group_gens = _as_generator_list(group)
    ring = group_gens[0].ring
    elements = closure_set(ring, group_gens, budget)
    order = len(elements)
    rep = Report(
        suite="tits",
        config={
            "group_order": order,
            "family_size": len(family),
            "ring": ring.descriptor,
        },
    )

    cx = complexes.coset_complex(group, family, budget=budget)
    components = complexes.connected_components(cx)
    union_gens = []
    for member in family:
        union_gens.extend(_as_generator_list(member))
    generated = len(closure_set(ring, union_gens, budget))
    start = perf_counter()
    agree = (components == 1) == (generated == order)
    rep.check(
        "connectivity-vs-generation",
        "connected-iff-family-generates",
        PASS if agree else FAIL,
        counts={
            "components": components,
            "generated": generated,
            "group_order": order,
        },
        elapsed=perf_counter() - start,
        counterexample=None
        if agree
        else f"components={components}, generated={generated}, order={order}",
    )

    start = perf_counter()
    diagram = family_diagram(family, budget)
    colim = colimit_presentation(diagram, validate=True, budget=budget)
    table = todd_coxeter(colim, (), budget)
    rep.check(
        "colimit-index",
        "colimit-enumeration",
        PASS if table.status == "complete" else INCONCLUSIVE,
        counts={"index": table.count if table.status == "complete" else 0},
        elapsed=perf_counter() - start,
        counterexample=None,
    )

    start = perf_counter()
    if components != 1:
        # disconnected: the natural map is not surjective, hence not an
        # isomorphism, and a disconnected complex is not simply connected
        status = PASS
        counts = {"components": components}
        detail = None
    else:
        verdict = complexes.is_simply_connected(cx, budget=budget)
        counts = {"components": 1}
        if verdict == "yes":
            if table.status == "complete":
                ok = table.count == order
                status = PASS if ok else FAIL
                detail = (
                    None
                    if ok
                    else f"simply connected but colimit index {table.count} != {order}"
                )
            else:
                status = INCONCLUSIVE
                detail = None
        elif verdict == "no":
            if table.status == "complete":
                ok = table.count != order
                status = PASS if ok else FAIL
                detail = (
                    None
                    if ok
                    else f"not simply connected but colimit index equals {order}"
                )
            else:
                # complex side is decisive; enumeration overflow is the
                # expected behavior for an infinite colimit
                status = PASS
                counts["colimit_overflow"] = 1
                detail = None
        else:
            status = INCONCLUSIVE
            detail = None
    rep.check(
        "simple-connectivity-vs-colimit",
        "simply-connected-iff-colimit-is-group",
        status,
        counts=counts,
        elapsed=perf_counter() - start,
        counterexample=detail,
    )
    return rep
