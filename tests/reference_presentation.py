"""Reference implementations of Todd-Coxeter and the Tietze reduction.

These are the pass-based enumeration (repeat full passes over the table
until one makes no mutation, resolving every entry through the union-find)
and the quadratic Tietze reduction (rewrite and renumber every relator after
each elimination) that `abelslab.presentation` used before its one-pass
versions.  They are kept, unchanged, only so the tests can require the
current functions to give exactly the same coset tables and reduced
presentations.
"""

from abelslab.config import get_budget
from abelslab.presentation import (
    CosetTable,
    Presentation,
    PresentationError,
    free_reduce,
)


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
