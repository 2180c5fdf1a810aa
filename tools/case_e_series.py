"""Case E's small-mu series, s = P (b - i a) + Q, to a chosen order in mu^2.

The normalized case E amplitude is

    s = 6 sum_k (-1)^k mu^(2k) (2k+2)/(2k+3)! M_(2k+3)(y),

with M_n(y) the moment of x^n exp(-x^2 + i y x) over x > 0.  Their
recurrence 2 M_n = i y M_(n-1) + (n-1) M_(n-2) (+1 at n = 1) from
M_0 = a + i b, a = (sqrt(pi)/2) exp(-y^2/4) and b = D(y/2), makes every
M_n a polynomial combination of M_0 and 1, so s = P (b - i a) + Q with P
odd and Q even in y, both real.  This script derives P and Q with sympy
and prints the coefficient tables that `bubblehbt.correlators` holds: row
k of each is the mu^(2k) term, its entries the coefficients of y^0, y^2,
... of P / y and of Q.

Run offline (sympy is not a dependency of the package):

    python tools/case_e_series.py [ORDER]

ORDER is the highest k, 7 (terms through mu^14, as correlators holds) by
default.
"""

import sys

import sympy as sp

y, mu = sp.symbols("y mu", real=True)


def series_polynomials(order):
    """(P, Q) of the series through mu^(2 order), as sympy expressions."""
    n_max = 2 * order + 3
    # M_n = A_n M_0 + B_n
    A, B = [sp.Integer(1), sp.I * y / 2], [sp.Integer(0), sp.Rational(1, 2)]
    for n in range(2, n_max + 1):
        A.append(sp.expand((sp.I * y * A[n - 1] + (n - 1) * A[n - 2]) / 2))
        B.append(sp.expand((sp.I * y * B[n - 1] + (n - 1) * B[n - 2]) / 2))
    a_s = b_s = sp.Integer(0)
    for k in range(order + 1):
        c = (6 * (-1) ** k * mu ** (2 * k)
             * sp.Rational(2 * k + 2, sp.factorial(2 * k + 3)))
        a_s += c * A[2 * k + 3]
        b_s += c * B[2 * k + 3]
    # M_0 = a + i b = i (b - i a), so s = (i A_s) (b - i a) + B_s
    P, Q = sp.expand(sp.I * a_s), sp.expand(b_s)
    assert sp.im(P) == 0 and sp.im(Q) == 0
    return P, Q


def coefficient_rows(expr, order):
    """Row k: the coefficients of y^0, y^2, ... in the mu^(2k) term."""
    poly = sp.Poly(expr, y, mu)
    rows = []
    for k in range(order + 1):
        term = sp.Poly(poly.as_expr().coeff(mu, 2 * k), y)
        degree = term.degree()
        assert degree % 2 == 0
        rows.append([term.coeff_monomial(y ** (2 * j))
                     for j in range(degree // 2 + 1)])
    return rows


def literal(value):
    p, q = sp.fraction(sp.Rational(value))
    return str(p) if q == 1 else f"{p} / {q}"


def table(name, rows, width=79):
    """`name = (rows)` as Python source, each row a tuple wrapped at
    `width` columns."""
    lines = [f"{name} = ("]
    for row in rows:
        line = "    ("
        for i, entry in enumerate(map(literal, row)):
            item = entry + (")," if i == len(row) - 1 else ",")
            if len(line) + len(item) + 1 > width:
                lines.append(line.rstrip())
                line = "     "
            line += item + " "
        lines.append(line.rstrip())
    lines.append(")")
    return "\n".join(lines)


def main(argv):
    order = int(argv[1]) if len(argv) > 1 else 7
    P, Q = series_polynomials(order)
    print(table("_SERIES_P", coefficient_rows(sp.expand(P / y), order)))
    print(table("_SERIES_Q", coefficient_rows(Q, order)))


if __name__ == "__main__":
    main(sys.argv)
