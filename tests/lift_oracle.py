"""Reference lift: the sign search for a {-1, 0, 1} flow.

`flows._odd_relation` lifts a mod-2 flow to an integer flow that is zero
off its support and odd on it, by one GF(2) choice over the integer
relations of the support's columns. This search looks only for a lift
with entries +-1 on the support, by trying both signs facet by facet, so
it shares none of that elimination; every lift it finds is odd exactly
on the support, and the tests hold the elimination to find one too.
"""


def signed_lift(cols, sup):
    """Signs, one per column of `sup`, whose signed sum of those columns
    is zero, or None when no signs do.

    A depth-first search over the sign of each column in turn. It keeps
    each touched row's partial sum and the number of its entries not yet
    signed, and drops a branch once a sum is larger than those entries
    can cancel.
    """
    touched = sorted({i for j in sup for i, v in enumerate(cols[j]) if v})
    row_local = {r: i for i, r in enumerate(touched)}
    col_rows = [[(row_local[i], cols[j][i]) for i in touched if cols[j][i]] for j in sup]
    remaining = [0] * len(touched)
    for entries in col_rows:
        for r, _ in entries:
            remaining[r] += 1
    cur = [0] * len(touched)
    signs = [0] * len(sup)

    def dfs(pos):
        if pos == len(sup):
            return True
        for v in (1, -1):
            ok = True
            for r, s in col_rows[pos]:
                cur[r] += s * v
                remaining[r] -= 1
            for r, _ in col_rows[pos]:
                if abs(cur[r]) > remaining[r]:
                    ok = False
                    break
            if ok and dfs(pos + 1):
                signs[pos] = v
                return True
            for r, s in col_rows[pos]:
                cur[r] -= s * v
                remaining[r] += 1
        return False

    return signs if dfs(0) else None
