"""Independent reference implementations used as test oracles.

Nothing in here imports latcount, but for `verify_generating_identity`:
every other function recomputes its answer from first principles
(exhaustive scans, schoolbook polynomial division) so the package and the
oracle can only agree by both being right.  That one compares the package's
own two sides of the generating identity, which only tests ask for.
"""

from itertools import product


def brute_divisor_lists(limit):
    """divisor_lists[m] = sorted divisors of m, for every m <= limit.

    Accumulated divisor-by-divisor, which is the same exhaustive
    divisibility scan as testing 1..m for each m, just batched.
    """
    lists = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for multiple in range(d, limit + 1, d):
            lists[multiple].append(d)
    return lists


def brute_divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def brute_sigma(m):
    """Sum of divisors by scanning divisor pairs up to sqrt(m)."""
    total = 0
    d = 1
    while d * d <= m:
        if m % d == 0:
            total += d
            if d * d != m:
                total += m // d
        d += 1
    return total


def dirichlet_by_divisor_sums(n, limit):
    """Coefficients of zeta(s) zeta(s-1) ... zeta(s-n+1) up to limit, entry 0 is 0.

    Pull form, one entry at a time: a_i(x) = sum over d | x of
    a_{i-1}(d) * (x/d)^i, each x's divisors found by trial of 1..x.
    """
    values = [0] + [1] * limit
    for i in range(1, n):
        values = [0] + [
            sum(values[d] * (x // d) ** i for d in range(1, x + 1) if x % d == 0)
            for x in range(1, limit + 1)
        ]
    return values


def dirichlet_by_descending_divisors(n, limit):
    """Coefficients of zeta(s) ... zeta(s-n+1) up to limit, one cell at a time, entry 0 is 0.

    For each shift i, every divisor d <= limit/2, largest first, adds
    a_{i-1}(d) * q^i into entry d*q for q >= 2; each d is read before any
    smaller d writes, and every write lands above d.  Then d = 1 adds x^i
    to every x >= 2.
    """
    values = [1] * (limit + 1)
    values[0] = 0
    half = limit // 2
    for i in range(1, n):
        powers = [q**i for q in range(half + 1)]
        for d in range(half, 1, -1):
            a = values[d]
            q = 2
            for x in range(2 * d, limit + 1, d):
                values[x] += a * powers[q]
                q += 1
        for x in range(2, limit + 1):
            values[x] += x**i
    return values


def brute_ordered_factorizations(m, n):
    """All n-tuples with product m, by recursive divisor scan; sorted."""
    if n == 1:
        return [(m,)]
    tuples = []
    for d in range(1, m + 1):
        if m % d == 0:
            tuples.extend((d,) + rest for rest in brute_ordered_factorizations(m // d, n - 1))
    return sorted(tuples)


def brute_tuple_sums(n_max, limit):
    """sums[n][m], counts[n][m]: over the n-tuples of positive integers with product m <= limit,
    the sum of d_1^0 d_2^1 ... d_n^(n-1) and how many there are, for n <= n_max.

    Every tuple is listed, as a prefix extended by each part that keeps the
    product within limit, and adds its own weight.
    """
    sums = [[0] * (limit + 1) for _ in range(n_max + 1)]
    counts = [[0] * (limit + 1) for _ in range(n_max + 1)]
    # (product, weight, parts) of each prefix still to be extended
    pending = [(1, 1, 0)]
    while pending:
        product, weight, parts = pending.pop()
        sums[parts][product] += weight
        counts[parts][product] += 1
        if parts < n_max:
            pending.extend(
                (product * d, weight * d**parts, parts + 1) for d in range(1, limit // product + 1)
            )
    return sums, counts


def brute_factorization(m):
    """(prime, exponent) pairs of m, dividing out every integer d >= 2 in turn."""
    factors = []
    d = 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            factors.append((d, e))
        d += 1
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


def poly_value(coefficients, x):
    """The polynomial with these coefficients, lowest degree first, at x, by Horner's rule."""
    value = 0
    for c in reversed(coefficients):
        value = value * x + c
    return value


def poly_mul(a, b):
    """Schoolbook product of dense coefficient lists."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def poly_divide_exact(numerator, denominator):
    """Long division of integer polynomials; raises if it does not divide."""
    num = list(numerator)
    den = list(denominator)
    while den and den[-1] == 0:
        den.pop()
    if not den:
        raise ZeroDivisionError("division by the zero polynomial")
    while num and num[-1] == 0:
        num.pop()
    quotient = [0] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den):
        shift = len(num) - len(den)
        coeff, rem = divmod(num[-1], den[-1])
        if rem:
            raise ValueError("inexact leading-coefficient division")
        quotient[shift] = coeff
        for i, c in enumerate(den):
            num[shift + i] -= coeff * c
        while num and num[-1] == 0:
            num.pop()
    if num:
        raise ValueError(f"nonzero remainder {num}")
    return quotient


def q_factorial(j):
    """Coefficients of [j]_q! = [1]_q [2]_q ... [j]_q, with [i]_q = 1 + ... + q^(i-1)."""
    poly = [1]
    for i in range(1, j + 1):
        poly = poly_mul(poly, [1] * i)
    return poly


def qbinomial_by_quotient(m, k):
    """The q-binomial as coefficients, straight from the factorial quotient."""
    if k > m:
        return []
    return poly_divide_exact(q_factorial(m), poly_mul(q_factorial(m - k), q_factorial(k)))


def brute_hnf_matrices(n, m, entry_bound):
    """Exhaustive scan for lower-triangular matrices satisfying the
    normal-form conditions with diagonal product m.

    Scans every assignment of diagonal entries in 1..entry_bound and
    sub-diagonal entries in 0..entry_bound, so it is only usable for tiny
    n and m.  Returns a sorted list of row tuples.
    """
    found = []
    slots = [(i, j) for i in range(n) for j in range(i)]
    for diag in product(range(1, entry_bound + 1), repeat=n):
        det = 1
        for d in diag:
            det *= d
        if det != m:
            continue
        for fill in product(range(0, entry_bound + 1), repeat=len(slots)):
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = diag[i]
            ok = True
            for (i, j), value in zip(slots, fill):
                if not rows[i][i] > value >= 0:
                    ok = False
                    break
                rows[i][j] = value
            if ok:
                found.append(tuple(tuple(row) for row in rows))
    return sorted(set(found))


def sieve_primes(limit):
    """Primes up to limit by the classic sieve."""
    if limit < 2:
        return []
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for multiple in range(p * p, limit + 1, p):
                flags[multiple] = False
    return [p for p, flag in enumerate(flags) if flag]


def verify_generating_identity(n, truncation_order):
    """The two sides of the generating identity agree, coefficient by coefficient."""
    from latcount.series import identity_sides

    lhs, rhs = identity_sides(n, truncation_order)
    return lhs == rhs
