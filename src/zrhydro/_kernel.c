/* Compiled inner loops of zrhydro: the event loop of its four processes,
 * the sum-tree build, and the upwind march, the Phi/R series and the
 * Kruzhkov entropy integrals of the PDE layer.  Each repeats its Python
 * reference operation for operation, so the two give bit-identical
 * results (build with -ffp-contract=off and no -ffast-math).  A routine
 * that meets an error returns a non-zero status and the caller re-runs
 * the reference, which raises it.
 *
 * zrh_run() runs the Gillespie direct-method loop of engine.GillespieLoop
 * over a stretch of events, as the Python loop and its step closures do
 * them.  Each event reads four uniforms from the caller's buffer: waiting
 * time, site, channel, direction.
 *
 * The kernel peeks at the next event before it changes anything, and
 * returns to the caller, with that event not yet begun, whenever the event
 * needs Python: fewer than four uniforms left in the buffer, a total rate
 * at or below 1e-300, a waiting time that reaches t_stop (the next observer
 * time, or the end time), an event count that reaches ev_max (an audit or
 * the event budget), an empty-site pick or an exit beyond the leak cap.
 * The caller then runs that one event in Python, or, when only the buffer
 * ran out, refills it and calls again.
 */
#include <math.h>
#include <stddef.h>
#include <stdint.h>

enum { EVENT = 0, BASIC = 1, SECOND = 2, LABELED = 3 };

typedef struct {
    int64_t mode, n, origin, closed, guard;
    /* EVENT/BASIC: d0 is the destruction share of an origin event;
     * LABELED: d0 is the kill share; SECOND: conv is the conversion rate
     * factor */
    double p, d0, conv, leak_cap;
    const double *gt, *scale;
    double *rates, *tree;
    /* occupations: EVENT occ; BASIC omega, varpi; SECOND omega, zeta;
     * LABELED omega, eta */
    int64_t *a, *b;
    /* counters: EVENT/SECOND destroyed (or converted), left, right exits;
     * BASIC the same per copy, then order violations; LABELED exits,
     * origin kills */
    int64_t *cnt;
    const double *buf;
    int64_t buf_n, i, events, ev_max;
    double t, total, t_stop;
} zrh_state;

/* Largest index with prefix sum <= u, as SumTree.find. */
static int64_t find(const double *tree, int64_t n, double u)
{
    int64_t pos = 0, bit = 1;
    while (bit <= n)
        bit <<= 1;
    for (; bit; bit >>= 1) {
        int64_t nxt = pos + bit;
        if (nxt <= n && tree[nxt] < u) {
            pos = nxt;
            u -= tree[nxt];
        }
    }
    return pos < n - 1 ? pos : n - 1;
}

/* Refresh site i to rate r, as "d = r - rates[i]; rates[i] += d;
 * tree.update(i, d)"; returns d. */
static double refresh(zrh_state *s, int64_t i, double r)
{
    double d = r - s->rates[i];
    s->rates[i] += d;
    for (int64_t j = i + 1; j <= s->n; j += j & -j)
        s->tree[j] += d;
    return d;
}

static double gmax(const double *gt, int64_t ka, int64_t kb)
{
    /* Python's max(ga, gb) */
    return gt[kb] > gt[ka] ? gt[kb] : gt[ka];
}

static double second_rate(const zrh_state *s, int64_t i)
{
    double r = s->scale[i] * s->gt[s->a[i] + s->b[i]];
    if (i == s->origin)
        r += s->conv * s->gt[s->a[i]];
    return r;
}

/* One event at site x; returns 0 with *total updated, or 1, with nothing
 * changed, when the event must run in Python. */
static int step_event(zrh_state *s, int64_t x, double u, double *total)
{
    int64_t *occ = s->a, k = occ[x];
    const double *gt = s->gt, *scale = s->scale;
    int go_right;
    if (k <= 0)
        return 1;
    if (x == s->origin) {
        if (u < s->d0) {
            occ[x] = k - 1;
            s->cnt[0] += 1;
            *total += refresh(s, x, scale[x] * gt[k - 1]);
            return 0;
        }
        go_right = u < s->d0 + (1.0 - s->d0) * s->p;
    } else {
        go_right = u < s->p;
    }
    int64_t y = go_right ? x + 1 : x - 1;
    if (y < 0 || y >= s->n) {
        if (s->closed)
            return 0;
        if ((double)(s->cnt[1] + s->cnt[2] + 1) > s->leak_cap)
            return 1;
        occ[x] = k - 1;
        s->cnt[y < 0 ? 1 : 2] += 1;
        *total += refresh(s, x, scale[x] * gt[k - 1]);
        return 0;
    }
    occ[x] = k - 1;
    int64_t ky = occ[y];
    occ[y] = ky + 1;
    double t = *total + refresh(s, y, scale[y] * gt[ky + 1]);
    *total = t + refresh(s, x, scale[x] * gt[k - 1]);
    return 0;
}

static int step_basic(zrh_state *s, int64_t x, double uch, double u,
                      double *total)
{
    int64_t *a = s->a, *b = s->b, *cnt = s->cnt;
    const double *gt = s->gt, *scale = s->scale;
    int64_t ka = a[x], kb = b[x];
    double ga = gt[ka], gb = gt[kb];
    double mx = ga > gb ? ga : gb;
    if (mx <= 0.0)
        return 1;
    double mn = ga < gb ? ga : gb;
    double r = uch * mx;
    int move_a = r >= mn ? r < ga : 1;
    int move_b = r < mn ? 1 : r >= ga;
    double t = *total;

    if (x == s->origin && u < s->d0) {
        if (move_a) {
            a[x] = ka - 1;
            cnt[0] += 1;
        }
        if (move_b) {
            b[x] = kb - 1;
            cnt[3] += 1;
        }
    } else {
        int go_right = x == s->origin ? u < s->d0 + (1.0 - s->d0) * s->p
                                      : u < s->p;
        int64_t y = go_right ? x + 1 : x - 1;
        if (y < 0 || y >= s->n) {
            if (!s->closed) {
                int64_t exits = cnt[1] + cnt[2] + cnt[4] + cnt[5]
                                + move_a + move_b;
                if ((double)exits > s->leak_cap)
                    return 1;
                int side = y < 0 ? 1 : 2;
                if (move_a) {
                    a[x] = ka - 1;
                    cnt[side] += 1;
                }
                if (move_b) {
                    b[x] = kb - 1;
                    cnt[3 + side] += 1;
                }
            }
        } else {
            if (move_a) {
                a[x] = ka - 1;
                a[y] += 1;
            }
            if (move_b) {
                b[x] = kb - 1;
                b[y] += 1;
            }
            t += refresh(s, y, scale[y] * gmax(gt, a[y], b[y]));
            if (s->guard && a[y] > b[y])
                cnt[6] += 1;
        }
    }
    double dx = refresh(s, x, scale[x] * gmax(gt, a[x], b[x]));
    if (s->guard && a[x] > b[x])
        cnt[6] += 1;
    *total = t + dx;
    return 0;
}

static int step_second(zrh_state *s, int64_t x, double uch, double u,
                       double *total)
{
    int64_t *w = s->a, *z = s->b, *cnt = s->cnt;
    const double *gt = s->gt;
    int64_t kw = w[x], kz = z[x];
    double gw = gt[kw], gwz = gt[kw + kz];
    int at_origin = x == s->origin;
    double site_total = s->scale[x] * gwz + (at_origin ? s->conv * gw : 0.0);
    if (site_total <= 0.0)
        return 1;
    double r = uch * site_total;
    double t = *total;
    if (at_origin && r < s->conv * gw) {
        w[x] = kw - 1;
        z[x] = kz + 1;
        cnt[0] += 1;
    } else {
        if (at_origin)
            r -= s->conv * gw;
        int moved_w = r < s->scale[x] * gw;
        int64_t y = u < s->p ? x + 1 : x - 1;
        if (y < 0 || y >= s->n) {
            if (!s->closed) {
                if ((double)(cnt[1] + cnt[2] + 1) > s->leak_cap)
                    return 1;
                if (moved_w)
                    w[x] = kw - 1;
                else
                    z[x] = kz - 1;
                cnt[y < 0 ? 1 : 2] += 1;
            }
        } else {
            if (moved_w) {
                w[x] = kw - 1;
                w[y] += 1;
            } else {
                z[x] = kz - 1;
                z[y] += 1;
            }
            t += refresh(s, y, second_rate(s, y));
        }
    }
    *total = t + refresh(s, x, second_rate(s, x));
    return 0;
}

static int step_labeled(zrh_state *s, int64_t x, double uch, double u,
                        double *total)
{
    int64_t *omg = s->a, *eta = s->b;
    const double *gt = s->gt, *scale = s->scale;
    int64_t ko = omg[x], ke = eta[x];
    double go = gt[ko];
    if (go <= 0.0)
        return 1;
    double t = *total;
    int64_t y;
    int coupled = 0;
    if (x == s->origin) {
        if (u < s->d0) {
            omg[x] = ko - 1;
            s->cnt[1] += 1;
            *total = t + refresh(s, x, scale[x] * gt[omg[x]]);
            return 0;
        }
        double rest = (u - s->d0) / (1.0 - s->d0);
        y = rest < s->p ? x + 1 : x - 1;
    } else {
        coupled = uch * go < gt[ke];
        y = u < s->p ? x + 1 : x - 1;
    }
    if (y < 0 || y >= s->n) {
        if (!s->closed) {
            if ((double)(s->cnt[0] + 1) > s->leak_cap)
                return 1;
            omg[x] = ko - 1;
            if (coupled)
                eta[x] = ke - 1;
            s->cnt[0] += 1;
        }
    } else {
        omg[x] = ko - 1;
        omg[y] += 1;
        if (coupled) {
            eta[x] = ke - 1;
            /* arriving at the origin kills the eta-particle */
            if (y != s->origin)
                eta[y] += 1;
        }
        t += refresh(s, y, scale[y] * gt[omg[y]]);
    }
    *total = t + refresh(s, x, scale[x] * gt[omg[x]]);
    return 0;
}

/* Run events until the next one needs Python; updates i, events, t and
 * total. */
void zrh_run(zrh_state *s)
{
    const double *buf = s->buf;
    int64_t i = s->i, events = s->events;
    double t = s->t, total = s->total;
    while (events < s->ev_max && s->buf_n - i >= 4 && total > 1e-300) {
        double t_ev = t - log(1.0 - buf[i]) / total;
        if (!(t_ev < s->t_stop))
            break;
        int64_t x = find(s->tree, s->n, buf[i + 1] * total);
        double uch = buf[i + 2], u = buf[i + 3], next = total;
        int stop;
        switch (s->mode) {
        case EVENT:
            stop = step_event(s, x, u, &next);
            break;
        case BASIC:
            stop = step_basic(s, x, uch, u, &next);
            break;
        case SECOND:
            stop = step_second(s, x, uch, u, &next);
            break;
        default:
            stop = step_labeled(s, x, uch, u, &next);
            break;
        }
        if (stop)
            break;
        total = next;
        t = t_ev;
        i += 4;
        events += 1;
    }
    s->i = i;
    s->events = events;
    s->t = t;
    s->total = total;
}

/* Sum-tree nodes of values[0..n): node j sums values[j - lowbit(j)..j) from
 * the left, as SumTree.rebuild's accumulate forms it; node 0 is 0. */
void zrh_build(const double *values, double *tree, int64_t n)
{
    tree[0] = 0.0;
    for (int64_t j = 1; j <= n; j++) {
        int64_t k = j - (j & -j);
        double s = values[k];
        while (++k < j)
            s += values[k];
        tree[j] = s;
    }
}

/* np.interp(x, xp, fp) for m >= 2 increasing xp, as numpy computes it:
 * the same branches in the same order, the same slope and the same NaN
 * fallback.  Like numpy, the search for x[i] starts at the cell of x[i-1];
 * for increasing xp the cell found does not depend on where it starts.
 * x[i] equal to x[i-1] takes its value, which depends on x[i] alone (a
 * zero of either sign takes the same branches to the same value). */
void zrh_interp(const double *x, int64_t n, const double *xp,
                const double *fp, int64_t m, double *out)
{
    int64_t lo = 0;
    for (int64_t i = 0; i < n; i++) {
        double v = x[i];
        if (i > 0 && v == x[i - 1]) {
            out[i] = out[i - 1];
            continue;
        }
        if (isnan(v)) {
            out[i] = v;
            continue;
        }
        if (v < xp[0]) {
            out[i] = fp[0];
            continue;
        }
        if (v >= xp[m - 1]) {
            out[i] = fp[m - 1];
            continue;
        }
        /* the last lo with xp[lo] <= v: keep the last cell if it holds v,
         * else gallop from it, by steps that double, to a bracket
         * xp[lo] <= v < xp[hi], and bisect that */
        if (!(xp[lo] <= v && v < xp[lo + 1])) {
            int64_t hi, step = 1;
            if (v >= xp[lo + 1]) {
                lo = lo + 1;
                hi = lo + 1;
                while (hi < m - 1 && xp[hi] <= v) {
                    lo = hi;
                    hi = lo + (step *= 2);
                }
                if (hi > m - 1)
                    hi = m - 1;
            } else {
                hi = lo;
                lo = hi - 1;
                while (lo > 0 && xp[lo] > v) {
                    hi = lo;
                    lo = hi - (step *= 2);
                }
                if (lo < 0)
                    lo = 0;
            }
            while (hi - lo > 1) {
                int64_t mid = lo + (hi - lo) / 2;
                if (v >= xp[mid])
                    lo = mid;
                else
                    hi = mid;
            }
        }
        if (xp[lo] == v) {
            out[i] = fp[lo];
            continue;
        }
        double slope = (fp[lo + 1] - fp[lo]) / (xp[lo + 1] - xp[lo]);
        double r = slope * (v - xp[lo]) + fp[lo];
        if (isnan(r)) {
            r = slope * (v - xp[lo + 1]) + fp[lo + 1];
            if (isnan(r) && fp[lo] == fp[lo + 1])
                r = fp[lo];
        }
        out[i] = r;
    }
}

enum { MARCH_OK = 0, MARCH_RANGE = 1, MARCH_NONFINITE = 2, MARCH_MAXPRINC = 3 };

/* The step loop of pde._march on vals[(n_steps + 1) * n_cells], whose row
 * 0 holds the data.  F at a cell is drift * interp(rho, xp, fp); the left
 * edge takes f_ins[n] with ghost ghosts[n], or, when ghosts is NULL, the
 * first cell's F with the first cell as ghost.  lo and hi are the data's
 * min and max, and a state passes the range check when
 * range_lo <= lo and hi <= range_hi.  F is scratch of n_cells.  Returns
 * MARCH_OK, or the check that failed, in the reference's order: range,
 * non-finite, maximum principle. */
int zrh_march(double *vals, int64_t n_cells, int64_t n_steps,
              const double *xp, const double *fp, int64_t m, double drift,
              double lam, const double *ghosts, const double *f_ins,
              double lo, double hi, double range_lo, double range_hi,
              double *F)
{
    double lo0 = lo, hi0 = hi;
    for (int64_t n = 0; n < n_steps; n++) {
        if (lo < range_lo || hi > range_hi)
            return MARCH_RANGE;
        const double *cur = vals + n * n_cells;
        double *new = vals + (n + 1) * n_cells;
        zrh_interp(cur, n_cells, xp, fp, m, F);
        for (int64_t j = 0; j < n_cells; j++)
            F[j] = F[j] * drift;
        double ghost, left;
        if (ghosts == NULL) {
            ghost = cur[0];
            left = F[0];
        } else {
            ghost = ghosts[n];
            left = f_ins[n];
        }
        int finite = 1;
        lo = INFINITY;
        hi = -INFINITY;
        for (int64_t j = 0; j < n_cells; j++) {
            double v = cur[j] - (F[j] - left) * lam;
            left = F[j];
            new[j] = v;
            finite &= isfinite(v) != 0;
            if (v < lo)
                lo = v;
            if (v > hi)
                hi = v;
        }
        /* numpy's min and max are those of a finite state */
        if (!finite)
            return MARCH_NONFINITE;
        /* Python's min(lo0, ghost) and max(hi0, ghost) */
        if (ghost < lo0)
            lo0 = ghost;
        if (ghost > hi0)
            hi0 = ghost;
        if (lo < lo0 - 1e-12 || hi > hi0 + 1e-12)
            return MARCH_MAXPRINC;
    }
    return MARCH_OK;
}

/* R(zeta) = S / Z, with Z = sum_k t_k and S = sum_k k t_k over the running
 * product t_k = t_{k-1} (zeta / g[k-1]), t_0 = 1, as thermo._series forms
 * them.  Each sum is read at its own first k >= 1 with t_k <= tol times
 * its partial sum.  Returns 1, with *out unset, when a sum has not
 * stopped within budget - 1 terms or overflows a double. */
static int density(double zeta, const double *g, double tol, int64_t budget,
                   double *out)
{
    double term = 1.0, z = 1.0, s = 0.0, Z = 0.0, S = 0.0;
    int z_open = 1, s_open = 1;
    for (int64_t k = 1; k < budget && (z_open || s_open); k++) {
        term = term * (zeta / g[k - 1]);
        z = z + term;
        s = s + (double)k * term;
        if (z_open && term <= tol * z) {
            Z = z;
            z_open = 0;
        }
        if (s_open && term <= tol * s) {
            S = s;
            s_open = 0;
        }
    }
    if (z_open || s_open || Z == INFINITY || S == INFINITY)
        return 1;
    *out = S / Z;
    return 0;
}

/* R at each of n fugacities; g holds g(1), g(2), ...  Returns 0, or 1 at
 * the first fugacity whose series fails. */
int zrh_density(const double *zetas, int64_t n, const double *g, double tol,
                int64_t budget, double *out)
{
    for (int64_t i = 0; i < n; i++)
        if (density(zetas[i], g, tol, budget, &out[i]))
            return 1;
    return 0;
}

/* Phi at each of n densities: 0 at a zero density, else the bisection of
 * ThermoTable.phi on [0, top], each density on its own, until the bracket
 * is at most phi_tol wide.  Returns 0, or 1 when a series fails. */
int zrh_phi(const double *rho, int64_t n, double top, const double *g,
            double tol, int64_t budget, double phi_tol, double *out)
{
    for (int64_t i = 0; i < n; i++) {
        double lo = 0.0, hi = top;
        if (rho[i] == 0.0) {
            out[i] = 0.0;
            continue;
        }
        while (hi - lo > phi_tol) {
            double mid = 0.5 * (lo + hi), r;
            if (density(mid, g, tol, budget, &r))
                return 1;
            if (r < rho[i])
                lo = mid;
            else
                hi = mid;
        }
        out[i] = 0.5 * (lo + hi);
    }
    return 0;
}

/* numpy's pairwise sum of a contiguous float64 row a[0..n): fewer than 8
 * in turn, up to 128 in eight accumulators, else the two halves split at a
 * multiple of 8.  add.reduce adds it to the identity 0.0, which the caller
 * does. */
static double pairwise(const double *a, int64_t n)
{
    if (n < 8) {
        double res = 0.0;
        for (int64_t i = 0; i < n; i++)
            res += a[i];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int j = 0; j < 8; j++)
            r[j] = a[j];
        for (i = 8; i < n - n % 8; i += 8)
            for (int j = 0; j < 8; j++)
                r[j] += a[i + j];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++)
            res += a[i];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise(a, n2) + pairwise(a + n2, n - n2);
}

/* np.trapezoid(y, dx=dt) over n rows, add.reduce(dt * (y[1:] + y[:-1]) /
 * 2.0), through tmp[n - 1]; 0 for fewer than two rows, as
 * pde._trapezoid. */
static double trapezoid(const double *y, int64_t n, double dt, double *tmp)
{
    if (n < 2)
        return 0.0;
    for (int64_t k = 0; k < n - 1; k++)
        tmp[k] = dt * (y[k + 1] + y[k]) / 2.0;
    return 0.0 + pairwise(tmp, n - 1);
}

/* np.maximum(x, 0.0) bit for bit, +0.0 for a zero of either sign, for
 * finite |x| <= DBL_MAX / 2: x + |x| is 2x or +0.0, both exact, and the
 * halving is exact.  A larger x gives infinity, which the caller's
 * finiteness check sends to the reference.  Unlike a comparison it
 * needs no branch, so the loops that call it vectorize. */
static double positive(double x)
{
    return 0.5 * (x + fabs(x));
}

/* Terms a (r - c)+ + b (f - fc)+ into plus and a (c - r)+ + b (fc - f)+
 * into minus, for j < n; (-x)+ is (x)+ - x, exactly.  Two cells a pass,
 * which the compiler can pair in vector registers. */
static void semi_terms(const double *restrict r, const double *restrict f,
                       const double *restrict a, const double *restrict b,
                       double c, double fc, int64_t n, double *restrict plus,
                       double *restrict minus)
{
    int64_t j = 0;
    for (; j + 1 < n; j += 2) {
        double dr0 = r[j] - c, dr1 = r[j + 1] - c;
        double df0 = f[j] - fc, df1 = f[j + 1] - fc;
        double pr0 = positive(dr0), pr1 = positive(dr1);
        double pf0 = positive(df0), pf1 = positive(df1);
        plus[j] = a[j] * pr0 + b[j] * pf0;
        plus[j + 1] = a[j + 1] * pr1 + b[j + 1] * pf1;
        minus[j] = a[j] * (pr0 - dr0) + b[j] * (pf0 - df0);
        minus[j + 1] = a[j + 1] * (pr1 - dr1) + b[j + 1] * (pf1 - df1);
    }
    for (; j < n; j++) {
        double dr = r[j] - c, df = f[j] - fc;
        double pr = positive(dr), pf = positive(df);
        plus[j] = a[j] * pr + b[j] * pf;
        minus[j] = a[j] * (pr - dr) + b[j] * (pf - df);
    }
}

/* Terms a |r - c| + b |f - fc| into out, for j < n, as semi_terms. */
static void abs_terms(const double *restrict r, const double *restrict f,
                      const double *restrict a, const double *restrict b,
                      double c, double fc, int64_t n, double *restrict out)
{
    int64_t j = 0;
    for (; j + 1 < n; j += 2) {
        out[j] = a[j] * fabs(r[j] - c) + b[j] * fabs(f[j] - fc);
        out[j + 1] = a[j + 1] * fabs(r[j + 1] - c)
                     + b[j + 1] * fabs(f[j + 1] - fc);
    }
    for (; j < n; j++)
        out[j] = a[j] * fabs(r[j] - c) + b[j] * fabs(f[j] - fc);
}

/* The integrals of pde._kruzhkov_block for one test function H, read in
 * place, with the block's inputs in that function's order.  The block is
 * the nt rows from n0 by the nu cells from j0 of the grid vals, whose rows
 * lie stride apart; nc counts the cs.  Each row is range-checked, its
 * flux F = drift * interp(rho, xp, fp) formed as zrh_march forms it, and
 * its derivatives of H formed from 1-d factors: H_t = ta[n] * ub[j] and
 * H_u = (tc[n] * ud[j]) / wu.  Entry k = ic * forms + f takes c = cs[ic]
 * with F(c) = fcs[ic] and form f: |x| when semi is 0, else (x)+ then
 * (-x)+.  Each row forms each entry's terms H_t tr(rho - c) + H_u tr(F -
 * F(c)), then sums them as np.sum does and scales the sum by du; I[k] is
 * the trapezoid of those row sums in t.  With semi, B[k] is the trapezoid
 * of H(t, 0) tr(rho_bar - c), with H(t, 0) = tc[n] * h0u and
 * rho_bar[n0 + n] the boundary density of grid row n0 + n; else B[k] is
 * 0.  scratch holds entries * nt + 5 nu + 2 nt.  Returns 0, or 1, with I
 * and B unset or not finite, when a density is NaN or outside [range_lo,
 * range_hi] or an integral is not finite, as a non-finite boundary
 * density makes its B. */
int zrh_kruzhkov(const double *vals, int64_t n0, int64_t nt, int64_t j0,
                 int64_t nu, const double *ta, const double *ub,
                 const double *tc, const double *ud, double wu,
                 const double *cs, const double *fcs, int64_t semi,
                 double du, double dt, double h0u, const double *rho_bar,
                 int64_t stride, int64_t nc, const double *xp,
                 const double *fp, int64_t m, double drift, double range_lo,
                 double range_hi, double *scratch, double *I, double *B)
{
    int64_t forms = semi ? 2 : 1, entries = nc * forms;
    double *t0 = scratch, *t1 = t0 + nu, *rows = t1 + nu;
    double *f = rows + entries * nt, *a = f + nu, *b = a + nu;
    double *y = b + nu, *tmp = y + nt;
    for (int64_t n = 0; n < nt; n++) {
        const double *r = vals + (n0 + n) * stride + j0;
        int in_range = 1;
        for (int64_t j = 0; j < nu; j++)
            in_range &= (r[j] >= range_lo) & (r[j] <= range_hi);
        if (!in_range)
            return 1;
        zrh_interp(r, nu, xp, fp, m, f);
        for (int64_t j = 0; j < nu; j++) {
            f[j] = drift * f[j];
            a[j] = ta[n] * ub[j];
            b[j] = (tc[n] * ud[j]) / wu;
        }
        for (int64_t ic = 0; ic < nc; ic++) {
            double c = cs[ic], fc = fcs[ic];
            double *row = rows + ic * forms * nt + n;
            if (semi)
                semi_terms(r, f, a, b, c, fc, nu, t0, t1);
            else
                abs_terms(r, f, a, b, c, fc, nu, t0);
            row[0] = (0.0 + pairwise(t0, nu)) * du;
            if (semi)
                row[nt] = (0.0 + pairwise(t1, nu)) * du;
        }
    }
    int bad = 0;
    for (int64_t k = 0; k < entries; k++) {
        I[k] = trapezoid(rows + k * nt, nt, dt, tmp);
        B[k] = 0.0;
        if (semi) {
            double c = cs[k / 2];
            for (int64_t n = 0; n < nt; n++) {
                double d = rho_bar[n0 + n] - c;
                y[n] = (tc[n] * h0u) * positive(k % 2 ? -d : d);
            }
            B[k] = trapezoid(y, nt, dt, tmp);
        }
        bad |= !isfinite(I[k]) || !isfinite(B[k]);
    }
    return bad;
}
