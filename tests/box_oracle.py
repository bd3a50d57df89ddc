"""Reference box count: the unpruned mixed-radix Gray walk.

`linalg.count_nowhere_zero_box` searches the box depth first and skips
every value that zeroes a closing entry. This walk visits every point
of the box instead, so it shares none of that search's dropping of
digits, ordering, pruning or last-digit shortcut; the tests compare the
two counts on random boxes.
"""


def gray_count_nowhere_zero(size, modulus, digits):
    """Count the points of a mixed-radix box at which a live vector of
    `size` entries mod `modulus` has no zero entry.

    Each digit is a (radix, step) pair: `step` lists (index, delta)
    pairs, the change one unit of that digit makes to the live vector,
    which is zero at the origin. The walk visits every point once in
    reflected mixed-radix Gray order (Knuth, TAOCP 7.2.1.1, Algorithm
    H), so each step moves one digit by +-1 and adds or subtracts its
    step. It keeps a count of the zero entries and touches only the
    entries the step changes. The lightest steps take the digits that
    move most often. Nothing is pruned: the cost is one step per point.
    """
    steps = []
    for radix, step in digits:
        if radix > 1:
            steps.append((radix - 1, [(i, d % modulus) for i, d in step if d % modulus]))
    steps.sort(key=lambda s: len(s[1]))
    # per digit: its largest value ([0]) and the change for a move up
    # ([1]) and down ([-1])
    moves = [(top, up, [(i, modulus - d) for i, d in up]) for top, up in steps]
    n = len(moves)
    live = [0] * size
    zeros = size
    count = 0 if zeros else 1
    digit = [0] * n
    focus = list(range(n + 1))
    direction = [1] * n
    while True:
        j = focus[0]
        if j == n:
            return count
        focus[0] = 0
        move = moves[j]
        o = direction[j]
        a = digit[j] + o
        digit[j] = a
        if a == 0 or a == move[0]:
            direction[j] = -o
            focus[j] = focus[j + 1]
            focus[j + 1] = j + 1
        for i, d in move[o]:
            old = live[i]
            new = old + d
            if new >= modulus:
                new -= modulus
            live[i] = new
            if not old:
                zeros -= 1
            elif not new:
                zeros += 1
        if not zeros:
            count += 1

