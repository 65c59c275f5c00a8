"""Independent oracles shared by the unit and acceptance tests.

Everything here is computed from first principles (enumeration, direct
formulas) so the tests never trust the code path they are checking.
"""

import numpy as np


def rbf_kernel_direct(gamma, x, z):
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    return float(np.exp(-gamma * np.sum((x - z) ** 2)))


def gram_direct(gamma, A, B):
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    out = np.empty((A.shape[0], B.shape[0]))
    for i in range(A.shape[0]):
        for j in range(B.shape[0]):
            out[i, j] = rbf_kernel_direct(gamma, A[i], B[j])
    return out


def gram_reference(spec, X, Z):
    """The Gram matrix built block by block in place in the output, as
    kernels.gram_matrix did before it used a scratch tile. The library must
    return byte-equal matrices: the same 256-row blocks, the same operand
    slices for every product and the same elementwise operations in order."""
    block = 256
    same = X is Z
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Z = X if same else np.atleast_2d(np.asarray(Z, dtype=float))
    out = np.empty((X.shape[0], Z.shape[0]))
    sx = np.sum(X * X, axis=1)
    sz = sx if same else np.sum(Z * Z, axis=1)
    for i in range(0, X.shape[0], block):
        for j in range(i if same else 0, Z.shape[0], block):
            blk = out[i:i + block, j:j + block]
            np.matmul(X[i:i + block], Z[j:j + block].T, out=blk)
            if spec.kind == "rbf":
                norms = sx[i:i + block, None] + sz[None, j:j + block]
                blk *= -2.0
                blk += norms  # squared distances ||x||^2 + ||z||^2 - 2 x.z
                # values below the cancellation-error bound of the expansion are noise
                norms *= 1e-13
                blk[blk <= norms] = 0.0
                blk *= -spec.gamma
                np.exp(blk, out=blk)
            if not same:
                continue
            if j > i:
                out[j:j + block, i:i + block] = blk.T
            else:
                lower = np.tril_indices(blk.shape[0], -1)
                blk[lower] = blk.T[lower]
    return out


def kmm_objective_direct(gamma, target, source, beta):
    """Squared MMD computed via explicit double loops over the Gram blocks."""
    target = np.asarray(target, dtype=float)
    source = np.asarray(source, dtype=float)
    beta = np.asarray(beta, dtype=float)
    n, ns = target.shape[0], source.shape[0]
    k_ss = gram_direct(gamma, source, source)
    k_st = gram_direct(gamma, source, target)
    k_tt = gram_direct(gamma, target, target)
    return float(
        beta @ k_ss @ beta / (ns * ns)
        - 2.0 * beta @ k_st.sum(axis=1) / (n * ns)
        + k_tt.sum() / (n * n)
    )


def kmm_brute_force_min(gamma, target, source, cap, eps, resolution=0.01):
    """Exhaustive grid search of the KMM QP over the feasible box.

    Enumerates every beta on a grid of the given resolution per coordinate,
    keeps the feasible ones (|mean(beta) - 1| <= eps), and returns the best
    objective. Only usable for a handful of source points; the grid is split
    into two blocks so the pairwise sums stay vectorized.
    """
    target = np.asarray(target, dtype=float)
    source = np.asarray(source, dtype=float)
    n, ns = target.shape[0], source.shape[0]
    if ns != 4:
        raise ValueError("brute force oracle is wired for 4 source points")
    k_ss = gram_direct(gamma, source, source)
    kappa = gram_direct(gamma, source, target).sum(axis=1)
    const = gram_direct(gamma, target, target).sum() / (n * n)
    quad = k_ss / (ns * ns)
    lin = -2.0 * kappa / (n * ns)

    axis = np.arange(0.0, cap + resolution / 2, resolution)
    a_pairs = np.array([(u, v) for u in axis for v in axis])  # beta_1, beta_2
    b_pairs = a_pairs.copy()                                  # beta_3, beta_4
    qa = np.einsum("ki,ij,kj->k", a_pairs, quad[:2, :2], a_pairs)
    qb = np.einsum("ki,ij,kj->k", b_pairs, quad[2:, 2:], b_pairs)
    la = a_pairs @ lin[:2]
    lb = b_pairs @ lin[2:]
    cross = a_pairs @ quad[:2, 2:]  # (m, 2), to be dotted with each b pair
    sum_a = a_pairs.sum(axis=1)
    sum_b = b_pairs.sum(axis=1)
    lo, hi = ns * (1.0 - eps), ns * (1.0 + eps)

    best = np.inf
    chunk = 512
    for start in range(0, a_pairs.shape[0], chunk):
        sl = slice(start, start + chunk)
        total = (
            (qa[sl] + la[sl])[:, None]
            + (qb + lb)[None, :]
            + 2.0 * cross[sl] @ b_pairs.T
        )
        feasible = (sum_a[sl][:, None] + sum_b[None, :] >= lo) & (
            sum_a[sl][:, None] + sum_b[None, :] <= hi
        )
        if feasible.any():
            best = min(best, float(total[feasible].min()))
    return best + const


def svm_kkt_residuals(K, y, alpha, c_box, bias):
    """Per-example KKT violation of the soft-margin dual, from first principles."""
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    f = K @ (alpha * y) + bias
    r = y * f - 1.0
    resid = np.where(
        alpha <= 0.0,
        np.maximum(0.0, -r),
        np.where(alpha >= c_box, np.maximum(0.0, r), np.abs(r)),
    )
    return resid


def smo_reference(K, y, c_box, tol: float = 1e-3, max_iter: int | None = None):
    """SMO in its plain form, rebuilding -y*grad and both masks every step.

    The library's smo_solve keeps that state from one step to the next and
    must return bit-equal alpha, bias and iteration count; this reference
    returns a partial answer at max_iter instead of raising.
    Minimizes 0.5 a'Qa - sum(a), Q_ij = y_i y_j K_ij, over the weighted box:
    0 <= a_i <= c_box_i and sum_i a_i y_i = 0, with the maximal violating
    pair each step, ties broken by lowest index.

    Returns (alpha, bias, iterations).
    """
    K = np.asarray(K, dtype=float)
    y = np.asarray(y, dtype=float)
    c_box = np.asarray(c_box, dtype=float)
    n = y.size
    if max_iter is None:
        max_iter = max(10_000, 100 * n)

    alpha = np.zeros(n)
    grad = -np.ones(n)
    y_pos = y > 0
    iters = 0
    while True:
        minus_yg = -(y * grad)
        can_up = np.where(y_pos, alpha < c_box, alpha > 0.0)
        can_low = np.where(y_pos, alpha > 0.0, alpha < c_box)
        up_vals = np.where(can_up, minus_yg, -np.inf)
        low_vals = np.where(can_low, minus_yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        m_up = up_vals[i]
        m_low = low_vals[j]
        if not np.isfinite(m_up) or not np.isfinite(m_low):
            break
        if m_up - m_low <= tol or iters >= max_iter:
            break
        iters += 1

        ci, cj = c_box[i], c_box[j]
        old_ai, old_aj = alpha[i], alpha[j]
        quad = K[i, i] + K[j, j] - 2.0 * K[i, j]
        if quad <= 0.0:
            quad = 1e-12
        if y[i] != y[j]:
            delta = (-grad[i] - grad[j]) / quad
            diff = old_ai - old_aj
            ai = old_ai + delta
            aj = old_aj + delta
            if diff > 0.0:
                if aj < 0.0:
                    aj = 0.0
                    ai = diff
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = -diff
            if diff > ci - cj:
                if ai > ci:
                    ai = ci
                    aj = ci - diff
            else:
                if aj > cj:
                    aj = cj
                    ai = cj + diff
        else:
            delta = (grad[i] - grad[j]) / quad
            ssum = old_ai + old_aj
            ai = old_ai - delta
            aj = old_aj + delta
            if ssum > ci:
                if ai > ci:
                    ai = ci
                    aj = ssum - ci
            else:
                if aj < 0.0:
                    aj = 0.0
                    ai = ssum
            if ssum > cj:
                if aj > cj:
                    aj = cj
                    ai = ssum - cj
            else:
                if ai < 0.0:
                    ai = 0.0
                    aj = ssum
        alpha[i] = ai
        alpha[j] = aj
        qi = (y[i] * y) * K[i]
        qj = (y[j] * y) * K[j]
        grad += qi * (ai - old_ai) + qj * (aj - old_aj)

    minus_yg = -(y * grad)
    free = (alpha > 0.0) & (alpha < c_box)
    if free.any():
        bias = float(minus_yg[free].mean())
    else:
        can_up = np.where(y_pos, alpha < c_box, alpha > 0.0)
        can_low = np.where(y_pos, alpha > 0.0, alpha < c_box)
        lo = float(minus_yg[can_up].max()) if can_up.any() else None
        hi = float(minus_yg[can_low].min()) if can_low.any() else None
        if lo is not None and hi is not None:
            bias = 0.5 * (lo + hi)
        elif lo is not None:
            bias = lo
        elif hi is not None:
            bias = hi
        else:
            bias = 0.0
    return alpha, bias, iters


def svm_dual_scipy(K, y, c_box):
    """The SVM dual QP of smo_solve solved by scipy's SLSQP, a solver that shares
    no code with it: minimize 0.5 a'Qa - sum(a), Q_ij = y_i y_j K_ij, subject to
    0 <= a <= c_box and a'y = 0. Returns (alpha, objective). Needs scipy."""
    from scipy import optimize

    y = np.asarray(y, dtype=float)
    Q = np.outer(y, y) * np.asarray(K, dtype=float)
    res = optimize.minimize(
        lambda a: 0.5 * a @ Q @ a - a.sum(), np.zeros(y.size), jac=lambda a: Q @ a - 1.0,
        method="SLSQP", bounds=list(zip(np.zeros(y.size), c_box)),
        constraints=[{"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}],
        options={"ftol": 1e-12, "maxiter": 2000},
    )
    if not res.success:
        raise RuntimeError(f"SLSQP failed: {res.message}")
    return res.x, float(res.fun)


def kmm_qp_scipy(K, source, cap, eps):
    """The QP of solve_kmm with every row of K as the target, solved by scipy's
    SLSQP, a solver that shares no code with it: minimize the squared mean
    discrepancy b'K_ss b/ns^2 - 2 kappa'b/(n ns) + sum(K)/n^2, where K_ss is
    K on the source rows and kappa their row sums, subject to 0 <= b <= cap
    and ns(1 - eps) <= sum(b) <= ns(1 + eps). Returns (beta, objective). Needs scipy."""
    from scipy import optimize

    K = np.asarray(K, dtype=float)
    source = np.asarray(source)
    n, ns = K.shape[0], source.size
    # in units of ns^2 times the objective less its constant, so values are of order ns^2
    quad = K[np.ix_(source, source)]
    lin = K[source].sum(axis=1) * (ns / n)
    ones = np.ones(ns)
    res = optimize.minimize(
        lambda b: b @ quad @ b - 2.0 * lin @ b, ones, jac=lambda b: 2.0 * quad @ b - 2.0 * lin,
        method="SLSQP", bounds=[(0.0, cap)] * ns,
        constraints=[
            {"type": "ineq", "fun": lambda b: b.sum() - ns * (1.0 - eps), "jac": lambda b: ones},
            {"type": "ineq", "fun": lambda b: ns * (1.0 + eps) - b.sum(), "jac": lambda b: -ones},
        ],
        options={"ftol": 1e-15, "maxiter": 5000},
    )
    beta = res.x
    violation = max(-beta.min(), beta.max() - cap, abs(beta.sum() / ns - 1.0) - eps)
    # status 8: no descent direction left, which this ftol reaches at float precision
    if res.status not in (0, 8) or violation > 1e-9:
        raise RuntimeError(f"SLSQP failed: {res.message} (constraint violation {violation:.2g})")
    return beta, float(res.fun) / (ns * ns) + K.sum() / (n * n)


def _kmm_project_reference(v, cap, lo_sum, hi_sum):
    from pgpu.kmm import _clip_to_sum

    x = np.clip(v, 0.0, cap)
    s = x.sum()
    if s > hi_sum:
        return _clip_to_sum(v, cap, hi_sum)
    if s < lo_sum:
        return _clip_to_sum(v, cap, lo_sum)
    return x


def kmm_descent_reference(k_ss, kappa, n_target, cap, eps, max_iters, tol):
    """KMM's projected descent in its plain form, with closures, generic numpy
    calls, a fresh projected array every step, an exact line search along each
    step and a negative-curvature check. The library's kmm._projected_descent
    takes every step whole, makes fewer calls into reused buffers and must return
    byte-equal beta and trace; both share kmm._clip_to_sum for sum-binding steps."""
    from pgpu.kmm import _ROWS

    _project = _kmm_project_reference
    ns = k_ss.shape[0]
    inv2 = 1.0 / (ns * ns)
    lin = kappa / (n_target * ns)
    lo_sum = ns * (1.0 - eps)
    hi_sum = ns * (1.0 + eps)

    beta = _project(np.ones(ns), cap, lo_sum, hi_sum)
    k_beta = k_ss @ beta

    def objective(b, kb):
        return float(b @ kb * inv2 - 2.0 * (lin @ b))

    # Gershgorin bound on the largest Hessian eigenvalue gives a safe step.
    row_max = max(float(np.abs(k_ss[i:i + _ROWS]).sum(axis=1).max()) for i in range(0, ns, _ROWS))
    lips = 2.0 * inv2 * row_max
    step = 1.0 / max(lips, 1e-300)

    obj = objective(beta, k_beta)
    trace = [obj]
    grad_scale, lin2 = 2.0 * inv2, 2.0 * lin
    grad, moved = np.empty(ns), np.empty(ns)  # reused by every step
    for _ in range(max_iters):
        np.subtract(np.multiply(k_beta, grad_scale, out=grad), lin2, out=grad)
        np.subtract(beta, np.multiply(grad, step, out=moved), out=moved)
        d = _project(moved, cap, lo_sum, hi_sum)  # the projected point, then the step to it
        d -= beta
        if max(d.max(), -d.min()) <= 1e-14 * max(1.0, beta.max()):  # beta is never negative
            break
        k_d = k_ss @ d
        curv = float(d @ k_d) * inv2
        if not np.isfinite(curv) or curv < -1e-12 * max(1.0, abs(obj)):
            raise RuntimeError("negative curvature in the source Gram matrix")
        gd = float(grad @ d)
        theta = 1.0 if curv <= 0.0 else min(1.0, max(0.0, -gd / (2.0 * curv)))
        d *= theta
        beta += d
        k_d *= theta
        k_beta += k_d
        new_obj = objective(beta, k_beta)
        if not np.isfinite(new_obj):
            raise RuntimeError("KMM objective became non-finite")
        trace.append(new_obj)
        if obj - new_obj <= tol * max(1.0, abs(obj)):
            obj = new_obj
            break
        obj = new_obj
    else:
        raise RuntimeError(f"KMM reached its iteration cap max_iters={max_iters} with a "
                           f"relative decrease above tol={tol:g}")
    return beta, np.asarray(trace)


def clip_to_sum_bisection(v, cap, target):
    """Projection of v onto {0 <= x <= cap, sum(x) = target} by 100 bisection
    passes on the shift t of x = clip(v + t, 0, cap), then a polish of the sum
    on the unclipped entries."""
    v = np.asarray(v, dtype=float)
    lo = -float(v.max()) - 1.0
    hi = cap - float(v.min()) + 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if np.clip(v + mid, 0.0, cap).sum() < target:
            lo = mid
        else:
            hi = mid
    x = np.clip(v + 0.5 * (lo + hi), 0.0, cap)
    interior = (x > 0.0) & (x < cap)
    n_int = int(interior.sum())
    if n_int:
        x[interior] += (target - x.sum()) / n_int
        np.clip(x, 0.0, cap, out=x)
    return x


def boundary_cv_reference(kernel, s, grid, seed):
    """estimate_boundary_cv as one relabel-KMM-SVM fit per (candidate, fold) pair,
    with no sharing between candidates. Returns (boundary, per-candidate scores),
    the scores being mean held-out accuracy, -inf where every fold degenerated.
    Calls the pipeline steps through ``pgpu.core``, so patches of them apply."""
    from pgpu import core
    from pgpu.svm import _stratified_folds

    grid = list(grid)
    s = np.asarray(s, dtype=int)
    fold = _stratified_folds(s, core._BOUNDARY_FOLDS, np.random.default_rng(seed))
    sums = np.zeros(len(grid))
    counts = np.zeros(len(grid))
    for k in range(core._BOUNDARY_FOLDS):
        fit_rows = np.flatnonzero(fold != k)
        hold_rows = np.flatnonzero(fold == k)
        try:
            fold_gaps = core.observed_gap(kernel, s[fit_rows], fit_rows)
        except ValueError:
            continue
        matching = core._matching_kernel(kernel, s[fit_rows], fold_gaps, fit_rows)
        for ci, cand in enumerate(grid):
            try:
                clf, _, _ = core.fit_relabelled_classifier(kernel, s[fit_rows], fold_gaps, cand,
                                                           fit_rows, matching)
            except ValueError:
                continue
            pred = np.where(clf.fitted[hold_rows] >= 0.0, 1, -1)
            sums[ci] += float(np.mean(pred == s[hold_rows]))
            counts[ci] += 1
    scores = np.where(counts > 0, sums / np.maximum(counts, 1.0), -np.inf)
    return float(grid[int(np.argmax(scores))]), scores


def forward_gap(true_gap, rho_plus):
    """Observed gap produced by a true gap under positive flip rate rho_plus.

    Equals (1 - rho)*(gap + 1) - 1.
    """
    g = np.asarray(true_gap, dtype=float)
    r = np.asarray(rho_plus, dtype=float)
    if np.any(g < -1.0) or np.any(g > 1.0):
        raise ValueError("true gap must lie in [-1, 1]")
    if np.any(r < 0.0) or np.any(r >= 1.0):
        raise ValueError("flip rate must lie in [0, 1)")
    out = (1.0 - r) * (g + 1.0) - 1.0
    if out.ndim == 0:
        return float(out)
    return out


def monotone_rate(spec):
    """Monotone non-increasing extension of a flip-rate family over the whole gap range.

    The data-generation semantics zero the rate on negative gaps, which makes
    the observed gap jump at zero. The ordering guarantees of the forward map
    hold for rates that decrease monotonically over the full range, so tests
    use this extension: the inverse family saturates just below 1 on
    nonpositive gaps, and linear rates are clipped below 1.
    """
    cap = 1.0 - 1e-9

    def rho(gaps):
        g = np.asarray(gaps, dtype=float)
        if spec.kind == "constant":
            return np.full_like(g, min(spec.alpha, cap))
        if spec.kind == "linear":
            return np.clip(spec.alpha * (1.0 - g), 0.0, cap)
        return np.minimum(spec.alpha / (spec.alpha + np.maximum(g, 0.0) * (1.0 + spec.beta)), cap)

    return rho
