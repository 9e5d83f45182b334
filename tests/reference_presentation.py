"""Reference implementations of Todd-Coxeter, the Tietze reduction, the
economic presentation and word evaluation.

These are the pass-based enumeration (repeat full passes over the table
until one makes no mutation, resolving every entry through the union-find)
and the quadratic Tietze reduction (rewrite and renumber every relator after
each elimination) that `abelslab.presentation` used before its one-pass
versions, and the economic builder with its own generator indexing and a
separate per-position additive-relator loop.  They are kept, unchanged,
only so the tests can require the current functions to give exactly the
same coset tables and presentations.  `evaluate_word` multiplies a word's
letters as Matrix objects, one product per letter; the coded
`von_dyck_check` is tested against it.  `missing_relations` is the
corner-element sweep on Matrix objects, each sweep a lazy generator that
`first_failure` stops at its first counterexample, with powers by
`power`; the coded `check_missing_relations` must give the same records.
`coset_action` reads the permutation a generator induces on the cosets
of a complete table.
"""

from abelslab.config import get_budget
from abelslab.matrices import Matrix
from abelslab.presentation import (
    CosetTable,
    Presentation,
    PresentationError,
    _position_name,
    _window_relators,
    commutator_word,
    free_reduce,
    power_word,
)
from abelslab.reports import Report
from abelslab.rings import additive_presentation


def coset_action(table, gen):
    """Permutation induced by the 1-based generator on a complete table."""
    if table.status != "complete":
        raise PresentationError("action requires a complete table")
    col = 2 * (gen - 1)
    return tuple(row[col] for row in table.rows)


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


def evaluate_word(word, images, ring, n, inverses=None):
    """The product of the word's letters.  ``inverses`` lists the images'
    inverses; without it each negative letter inverts its image."""
    out = Matrix.identity(ring, n)
    for x in word:
        m = images[abs(x) - 1]
        if x < 0:
            m = m.inverse() if inverses is None else inverses[-x - 1]
        out = out.mul(m)
    return out


def first_failure(results):
    """(cases, counterexample) of a lazy sweep whose items are None for a
    case that holds or a counterexample string; the sweep stops at the
    first string, so later cases are never evaluated."""
    cases = 0
    for bad in results:
        cases += 1
        if bad is not None:
            return cases, bad
    return cases, None


def power(m, k):
    """The Matrix m to the integer power k, by square-and-multiply."""
    k = int(k)
    if k < 0:
        return power(m.inverse(), -k)
    out = Matrix.identity(m.ring, m.n)
    base = m
    while k:
        if k & 1:
            out = out.mul(base)
        base = base.mul(base)
        k >>= 1
    return out


def missing_relations(n, ring):
    """The records of `check_missing_relations`, every case on Matrix
    objects."""
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
    ident = Matrix.identity(ring, n)
    one = ring.one
    show = ring.element_repr

    def corner_word(row):
        acc = ident
        for coeff, t in zip(row, T):
            acc = acc.mul(power(corner[t], coeff))
        return acc

    sweeps = (
        (
            "corner-definition",
            "corner-element-matches-elementary",
            (
                None if corner[t] == e(1, n, t) else f"corner element at t={show(t)}"
                for t in T
            ),
        ),
        (
            "disjoint-row-column",
            "mixed-corner-commutators-vanish",
            (
                None
                if comm(e(1, j, t), e(k, n, s)) == ident
                else f"(j,k)=({j},{k}), t={show(t)}, s={show(s)}"
                for j in range(2, n)
                for k in range(2, n)
                if j != k and (j, k) != (2, n - 1)
                for t in T
                for s in T
            ),
        ),
        (
            "chain-through-column",
            "corner-chain-commutators-agree",
            (
                f"chain j={j}, t={show(t)} (unit second)"
                if comm(e(1, j, t), e(j, n, one)) != corner[t]
                else f"chain j={j}, t={show(t)} (unit first)"
                if comm(e(1, j, one), e(j, n, t)) != corner[t]
                else None
                for j in range(2, n)
                for t in T
            ),
        ),
        (
            "corner-central",
            "corner-element-is-central",
            (
                None
                if comm(e(i, j, t), corner[s]) == ident
                else f"(i,j)=({i},{j}), t={show(t)}, s={show(s)}"
                for i in range(1, n + 1)
                for j in range(i + 1, n + 1)
                for t in T
                for s in T
            ),
        ),
        (
            "corner-additive",
            "corner-element-additive-relations",
            (
                None if corner_word(row) == ident else f"additive row {row}"
                for row in pres.relators
            ),
        ),
    )
    for check_id, anchor, results in sweeps:
        cases, bad = first_failure(results)
        rep.check(check_id, anchor, counts={"cases": cases}, counterexample=bad)
    return rep
