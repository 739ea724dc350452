/* Compiled event loop of zrhydro's four processes.
 *
 * zrh_run() runs the Gillespie direct-method loop of engine.GillespieLoop
 * over a stretch of events, operation for operation as the Python loop and
 * its step closures do them, so the two produce bit-identical trajectories
 * (build with -ffp-contract=off and no -ffast-math).  Each event reads four
 * uniforms from the caller's buffer: waiting time, site, channel,
 * direction.
 *
 * The kernel peeks at the next event before it changes anything, and
 * returns to the caller, with that event not yet begun, whenever the event
 * needs Python: fewer than four uniforms left in the buffer, a total rate
 * at or below 1e-300, a waiting time that reaches t_stop (the next observer
 * time, or the end time), an event count that reaches ev_max (an audit or
 * the event budget), an empty-site pick or an exit beyond the leak cap.
 * The caller then runs that one event in Python.
 */
#include <math.h>
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
