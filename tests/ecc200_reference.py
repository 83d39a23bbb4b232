"""The general ECC200 placement walk and Reed-Solomon decoder the tests compare with.

`reference_placement` is the ISO/IEC 16022 module placement, written for a
data region of any size, with its four corner rules and the fixed lower-right
checker (cells (-1, 0) dark and (-2, 0) light). `reference_rs_decode` is a
Berlekamp-Massey decoder with a Chien search and Forney's magnitudes for the
3 data + 5 check codewords of the 10x10 symbol. floortag's codec keeps only
what its 8x8 data region and 2-error code need; on that symbol both must
give the same table and the same decodes.
"""

from floortag.datamatrix import (
    DATA_CODEWORDS,
    DATA_REGION,
    ECC_CODEWORDS,
    Codewords,
    Payload,
    UncorrectableError,
    _poly_eval,
    _poly_mul,
    gf_div,
    gf_mul,
    gf_pow,
    syndromes,
)


def gf_inv(a: int) -> int:
    return gf_div(1, a)


def reference_placement() -> list[list[tuple[int, int]]]:
    """(codeword index, bit) of every data-region module; bit 0 is the codeword MSB."""
    nrow = ncol = DATA_REGION
    grid: list[list[tuple[int, int] | None]] = [[None] * ncol for _ in range(nrow)]

    def place_bit(r: int, c: int, idx: int, bit: int) -> None:
        if r < 0:
            r += nrow
            c += 4 - ((nrow + 4) % 8)
        if c < 0:
            c += ncol
            r += 4 - ((ncol + 4) % 8)
        grid[r][c] = (idx, bit)

    def place_utah(r: int, c: int, idx: int) -> None:
        offsets = [(-2, -2), (-2, -1), (-1, -2), (-1, -1), (-1, 0), (0, -2), (0, -1), (0, 0)]
        for bit, (dr, dc) in enumerate(offsets):
            place_bit(r + dr, c + dc, idx, bit)

    def corner(cells: list[tuple[int, int]], idx: int) -> None:
        for bit, (r, c) in enumerate(cells):
            grid[r][c] = (idx, bit)

    idx = 0
    row, col = 4, 0
    while row < nrow or col < ncol:
        if row == nrow and col == 0:
            corner(
                [(nrow - 1, 0), (nrow - 1, 1), (nrow - 1, 2), (0, ncol - 2), (0, ncol - 1),
                 (1, ncol - 1), (2, ncol - 1), (3, ncol - 1)], idx)
            idx += 1
        if row == nrow - 2 and col == 0 and ncol % 4 != 0:
            corner(
                [(nrow - 3, 0), (nrow - 2, 0), (nrow - 1, 0), (0, ncol - 4), (0, ncol - 3),
                 (0, ncol - 2), (0, ncol - 1), (1, ncol - 1)], idx)
            idx += 1
        if row == nrow - 2 and col == 0 and ncol % 8 == 4:
            corner(
                [(nrow - 3, 0), (nrow - 2, 0), (nrow - 1, 0), (0, ncol - 2), (0, ncol - 1),
                 (1, ncol - 1), (2, ncol - 1), (3, ncol - 1)], idx)
            idx += 1
        if row == nrow + 4 and col == 2 and ncol % 8 == 0:
            corner(
                [(nrow - 1, 0), (nrow - 1, ncol - 1), (0, ncol - 3), (0, ncol - 2),
                 (0, ncol - 1), (1, ncol - 3), (1, ncol - 2), (1, ncol - 1)], idx)
            idx += 1
        while row >= 0 and col < ncol:
            if row < nrow and col >= 0 and grid[row][col] is None:
                place_utah(row, col, idx)
                idx += 1
            row -= 2
            col += 2
        row += 1
        col += 3
        while row < nrow and col >= 0:
            if row >= 0 and col < ncol and grid[row][col] is None:
                place_utah(row, col, idx)
                idx += 1
            row += 2
            col -= 2
        row += 3
        col += 1
    if grid[nrow - 1][ncol - 1] is None:
        # Fixed checker in the lower-right 2x2 when the walk leaves it empty.
        grid[nrow - 1][ncol - 1] = (-1, 0)
        grid[nrow - 2][ncol - 2] = (-1, 0)
        grid[nrow - 1][ncol - 2] = (-2, 0)
        grid[nrow - 2][ncol - 1] = (-2, 0)
    assert all(cell is not None for rowcells in grid for cell in rowcells)
    return grid  # type: ignore[return-value]


def _berlekamp_massey(synd: list[int]) -> list[int]:
    err_loc = [1]
    old_loc = [1]
    for k in range(len(synd)):
        delta = synd[k]
        for j in range(1, len(err_loc)):
            delta ^= gf_mul(err_loc[-(j + 1)], synd[k - j])
        old_loc.append(0)
        if delta != 0:
            if len(old_loc) > len(err_loc):
                new_loc = [gf_mul(c, delta) for c in old_loc]
                old_loc = [gf_mul(c, gf_inv(delta)) for c in err_loc]
                err_loc = new_loc
            pad = [0] * (len(err_loc) - len(old_loc))
            scaled = pad + [gf_mul(c, delta) for c in old_loc]
            err_loc = [a ^ b for a, b in zip(err_loc, scaled)]
    while err_loc and err_loc[0] == 0:
        err_loc.pop(0)
    return err_loc


def reference_rs_decode(cw: Codewords | bytes) -> Payload:
    """Correct up to 2 codeword errors and unpack the message."""
    if isinstance(cw, Codewords):
        received = list(cw.full)
    else:
        received = list(cw)
    if len(received) != DATA_CODEWORDS + ECC_CODEWORDS:
        raise ValueError("expected 8 codewords")
    n = len(received)

    synd = syndromes(bytes(received))
    if max(synd) == 0:
        return Payload(bytes(received[:DATA_CODEWORDS]))

    err_loc = _berlekamp_massey(synd)
    n_errors = len(err_loc) - 1
    if 2 * n_errors > ECC_CODEWORDS:
        raise UncorrectableError("uncorrectable: too many errors")

    # Chien search: the reversed locator has roots alpha^e at error degrees e.
    reversed_loc = list(reversed(err_loc))
    err_pos = []
    for i in range(n):
        if _poly_eval(reversed_loc, gf_pow(2, i)) == 0:
            err_pos.append(n - 1 - i)
    if len(err_pos) != n_errors:
        raise UncorrectableError("uncorrectable: error locator roots inconsistent")

    corrected = _forney_correct(received, synd, sorted(err_pos))
    if max(syndromes(bytes(corrected))) != 0:
        raise UncorrectableError("uncorrectable: correction failed")
    return Payload(bytes(corrected[:DATA_CODEWORDS]), errors_corrected=n_errors)


def _forney_correct(received: list[int], synd: list[int], positions: list[int]) -> list[int]:
    """Forney magnitudes for fcr=1: Y_l = Omega(X_l^-1) / (X_l * prod(1 + X_k X_l^-1))."""
    n = len(received)
    xs = [gf_pow(2, n - 1 - p) for p in positions]
    # Locator and evaluator as low-degree-first coefficient lists.
    lam = [1]
    for x in xs:
        lam = _poly_mul(lam, [1, x])
    omega = _poly_mul(synd, lam)[: ECC_CODEWORDS]

    out = list(received)
    for i, xi in enumerate(xs):
        xi_inv = gf_inv(xi)
        denom = xi
        for j, xj in enumerate(xs):
            if j != i:
                denom = gf_mul(denom, 1 ^ gf_mul(xi_inv, xj))
        if denom == 0:
            raise UncorrectableError("uncorrectable: repeated error location")
        num = _poly_eval(list(reversed(omega)), xi_inv)
        out[positions[i]] ^= gf_div(num, denom)
    return out
