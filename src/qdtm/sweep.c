/* The per-token steps of the constrained CRF-HDP Gibbs sampler (qdtm.sampler),
 * the array passes of the query path and the one pass of corpus ingest.
 *
 * Python owns every buffer; `qd_state` holds pointers into them. Counts are
 * integers, the only count state; the predictive f_k(w) = (n_kw + beta) /
 * (n_k + V beta) is computed from them where it is read, by the expression the
 * Python code uses, so results equal it bit for bit when built with
 * -ffp-contract=off (no fused multiply-add) and without fast-math. Float sums
 * run left to right, in the one order of live topics, ascending topic id
 * (`by_id`): the new-table mixture and the topic draw alike. Every uniform
 * comes from the caller's numpy bit generator through its `next_double`.
 *
 * A live topic owns one column of the word-major count matrices
 * (cell w * cap + c). A freed column keeps zero counts, which is what a
 * newborn topic needs, so a birth writes no cells.
 * Document j's table slots sit at doc_ptr[j] .. doc_ptr[j] + n_tab[j]; a
 * document never holds more slots than tokens, because a slot is appended
 * only when every slot is live and each live slot seats a token.
 * A flagged token of word w adds a unit for the row entry that targets w (the
 * self pair) and a promotion for each other one; no array stores a self flag.
 *
 * `qd_compact` drops the dead slots between sweeps.
 *
 * `qd_cohesion` rebuilds the cohesion cache before each sweep. Its dot
 * products sum d ascending from +0.0, the order of `embeddings.dots`, so the
 * cache has the same bits as the Python code's on every machine.
 *
 * `qd_log` is the query path's logarithm over an array: libm `log`, the
 * function Python's `math.log` calls for a positive float, so each value has
 * the bits `math.log` gives. `qd_dots` is `embeddings.dots`, in the order of
 * `products`.
 *
 * `qd_ingest` cuts the documents' UTF-8 bytes into the maximal runs of ASCII
 * letters and digits that `PreprocessOptions.tokenize` keeps, interns each in
 * an open-addressing table (FNV-1a, linear probing, at most half full), so ids
 * follow first occurrence, and writes the token ids and the forward index in
 * the same pass. The Python side lowercases with `str.lower` before encoding,
 * and every byte of a non-ASCII character is at least 0x80, so a run never
 * takes part of one.
 */
#include <math.h>
#include <stdint.h>
#include <string.h>

typedef double (*next_double_fn)(void *);

typedef struct {
    const int32_t *words;        /* N token word ids */
    const int64_t *doc_ptr;      /* n_docs + 1 token offsets */
    int64_t n_docs;
    int64_t V;
    const int64_t *forced;       /* V: parent topic of a constrained word, else -1 */
    const int64_t *promo_ptr;    /* V + 1 offsets; rows are never empty */
    const int32_t *promo_target; /* word w's entry is a self pair exactly when it is w */
    int32_t *tok_t;              /* N: table slot of each token */
    int8_t *tok_flag;            /* N: promotion flag used at its add */
    int32_t *n_tab;              /* n_docs: slots in use */
    int32_t *tab_col;            /* N: column of a slot's topic, -1 for a dead slot */
    int32_t *tab_units;
    int32_t *tab_promos;
    int64_t cap;                 /* columns */
    int64_t *topic_of;           /* cap: topic id of a column, -1 when free */
    int32_t *by_id;              /* cap: live columns by ascending topic id */
    int64_t *m;                  /* cap: tables per topic */
    int64_t *nk_units;
    int64_t *nk_promos;
    int32_t *nkw_units;          /* V x cap */
    int32_t *nkw_promos;         /* V x cap */
    int64_t *scal;               /* live topics, m_total, next_topic */
    const double *tilde;         /* cohesion gate, rows x V; NULL before a refresh */
    int32_t *tilde_row;          /* cap: row of a column's topic, -1 if born since */
    const double *norms;         /* V x dim embedding rows over their lengths, or NULL */
    int64_t dim;
    int64_t n_reps;              /* M, at most V: a topic's representatives by count */
    const int64_t *rep_topic;    /* n_rep_topics topics with a fixed list, ascending */
    const int64_t *rep_ptr;      /* n_rep_topics + 1 offsets into rep_words */
    const int32_t *rep_words;
    int64_t n_rep_topics;
    int32_t *top;                /* n_reps: scratch, one topic's top words */
    int32_t *rank;               /* cap: scratch, one word's topics by cohesion */
    double u, beta, alpha, gamma, base_density;
    next_double_fn next_double;
    void *rng_state;
    double *work;                /* 3 * cap + 2 * longest document + 4 + dim: scratch */
    int32_t *slot_map;           /* longest document: a slot's index after compaction */
    int64_t *err;                /* 3 integers describing a failure */
} qd_state;

enum { N_LIVE = 0, M_TOTAL = 1, NEXT_TOPIC = 2 };
/* -1 means "new" (table or topic); failures are below it */
enum { ERR_NEG_MASS = -2, ERR_RETIRE = -3, ERR_DEAD = -4, ERR_FULL = -5, ERR_INDEX = -6,
       ERR_NO_ID = -7 };

int64_t qd_state_size(void) { return (int64_t)sizeof(qd_state); }

static int64_t fail(qd_state *s, int64_t code, int64_t a, int64_t b, int64_t c) {
    s->err[0] = a;
    s->err[1] = b;
    s->err[2] = c;
    return code;
}

static int32_t column_of(const qd_state *s, int64_t k) {
    for (int64_t i = 0; i < s->scal[N_LIVE]; i++)
        if (s->topic_of[s->by_id[i]] == k)
            return s->by_id[i];
    return -1;
}

static void apply_counts(qd_state *s, int64_t slot, int64_t w, int flag, int32_t sign) {
    const int64_t cap = s->cap;
    const int32_t c = s->tab_col[slot];
    if (flag) {
        for (int64_t e = s->promo_ptr[w]; e < s->promo_ptr[w + 1]; e++) {
            const int64_t cell = (int64_t)s->promo_target[e] * cap + c;
            if (s->promo_target[e] == w) {
                s->tab_units[slot] += sign;
                s->nkw_units[cell] += sign;
                s->nk_units[c] += sign;
            } else {
                s->tab_promos[slot] += sign;
                s->nkw_promos[cell] += sign;
                s->nk_promos[c] += sign;
            }
        }
    } else {
        const int64_t cell = w * cap + c;
        s->tab_units[slot] += sign;
        s->nkw_units[cell] += sign;
        s->nk_units[c] += sign;
    }
}

/* Birth of topic k in a free column; the caller guarantees one is free. */
static int32_t register_topic(qd_state *s, int64_t k) {
    int32_t c = 0;
    while (s->topic_of[c] != -1)
        c++;
    int64_t n = s->scal[N_LIVE];
    s->topic_of[c] = k;
    s->m[c] = 0;
    s->tilde_row[c] = -1;
    int64_t pos = n;
    while (pos > 0 && s->topic_of[s->by_id[pos - 1]] > k) {
        s->by_id[pos] = s->by_id[pos - 1];
        pos--;
    }
    s->by_id[pos] = c;
    s->scal[N_LIVE] = n + 1;
    return c;
}

static void retire_topic(qd_state *s, int32_t c) {
    const int64_t n = s->scal[N_LIVE];
    int64_t i = 0;
    while (s->by_id[i] != c)
        i++;
    for (; i + 1 < n; i++)
        s->by_id[i] = s->by_id[i + 1];
    s->topic_of[c] = -1;
    s->scal[N_LIVE] = n - 1;
}

/* Revive dead slot `slot` as a table serving column c. */
static void ensure_table(qd_state *s, int64_t slot, int32_t c) {
    if (s->tab_col[slot] == -1) {
        s->tab_col[slot] = c;
        s->m[c] += 1;
        s->scal[M_TOTAL] += 1;
    }
}

static int64_t open_table(qd_state *s, int64_t j, int32_t c) {
    const int64_t base = s->doc_ptr[j];
    int64_t t = 0;
    while (t < s->n_tab[j] && s->tab_col[base + t] != -1)
        t++;
    if (t == s->n_tab[j]) {
        if (t == s->doc_ptr[j + 1] - base)
            return fail(s, ERR_FULL, j, t, 0);
        s->n_tab[j] = (int32_t)(t + 1);
        s->tab_col[base + t] = -1;
        s->tab_units[base + t] = 0;
        s->tab_promos[base + t] = 0;
    }
    ensure_table(s, base + t, c);
    return t;
}

static int64_t detach(qd_state *s, int64_t j, int64_t i, int64_t *out) {
    const int64_t p = s->doc_ptr[j] + i;
    const int64_t t = s->tok_t[p];
    const int64_t slot = s->doc_ptr[j] + t;
    const int32_t c = s->tab_col[slot];
    const int flag = s->tok_flag[p];
    out[0] = t;
    out[1] = s->topic_of[c];
    out[2] = flag;
    apply_counts(s, slot, s->words[p], flag, -1);
    if (s->tab_units[slot] < 0 || s->tab_promos[slot] < 0)
        return fail(s, ERR_NEG_MASS, j, t, 0);
    if (s->tab_units[slot] == 0 && s->tab_promos[slot] == 0) {
        s->tab_col[slot] = -1;
        s->m[c] -= 1;
        s->scal[M_TOTAL] -= 1;
        if (s->m[c] == 0) {
            if (s->nk_units[c] != 0 || s->nk_promos[c] != 0)
                return fail(s, ERR_RETIRE, s->topic_of[c], 0, 0);
            retire_topic(s, c);
        }
    }
    s->tok_t[p] = -1;
    return 0;
}

static void attach(qd_state *s, int64_t j, int64_t i, int64_t t, int flag) {
    const int64_t p = s->doc_ptr[j] + i;
    s->tok_t[p] = (int32_t)t;
    s->tok_flag[p] = (int8_t)flag;
    apply_counts(s, s->doc_ptr[j] + t, s->words[p], flag, +1);
}

/* f_k(w) = (n_kw + beta) / (n_k + V beta) from the counts of one cell and
 * its column, the expression of `HDPSampler.phi`. */
static inline double f_kw(int32_t units, int32_t promos, int64_t nk_units, int64_t nk_promos,
                          double u, double beta, double v_beta) {
    return ((double)units + u * (double)promos + beta)
           / ((double)nk_units + u * (double)nk_promos + v_beta);
}

/* f[c] = f_k(w) for every live column c. */
static void predictive(const qd_state *s, int64_t w, double *f) {
    const int32_t *units = s->nkw_units + w * s->cap, *promos = s->nkw_promos + w * s->cap;
    const double u = s->u, beta = s->beta, v_beta = (double)s->V * s->beta;
    for (int64_t i = 0; i < s->scal[N_LIVE]; i++) {
        const int32_t c = s->by_id[i];
        f[c] = f_kw(units[c], promos[c], s->nk_units[c], s->nk_promos[c], u, beta, v_beta);
    }
}

/* Per-slot table weights of word w in document j, then the new-table weight
 * alpha * (sum_k m_k f_k(w) + gamma f_new) / (m. + gamma), the sum in ascending
 * topic id; returns the count. */
static int64_t table_weights(const qd_state *s, int64_t j, int64_t w, double *f, double *wt) {
    predictive(s, w, f);
    const int64_t base = s->doc_ptr[j], nt = s->n_tab[j], forced = s->forced[w];
    const double u = s->u;
    for (int64_t t = 0; t < nt; t++) {
        const int32_t c = s->tab_col[base + t];
        if (c < 0 || (forced >= 0 && s->topic_of[c] != forced))
            wt[t] = 0.0;
        else
            wt[t] = ((double)s->tab_units[base + t] + u * (double)s->tab_promos[base + t]) * f[c];
    }
    double mixture = 0.0;
    for (int64_t i = 0; i < s->scal[N_LIVE]; i++) {
        const int32_t c = s->by_id[i];
        mixture += (double)s->m[c] * f[c];
    }
    const double new_table = (mixture + s->gamma * s->base_density)
                             / ((double)s->scal[M_TOTAL] + s->gamma);
    wt[nt] = s->alpha * new_table;
    return nt + 1;
}

/* Topic weights of a fresh table for word w, in ascending topic id, then
 * gamma f_new; returns the count. */
static int64_t topic_weights(const qd_state *s, int64_t w, double *f, double *wt) {
    predictive(s, w, f);
    const int64_t n = s->scal[N_LIVE];
    for (int64_t i = 0; i < n; i++) {
        const int32_t c = s->by_id[i];
        wt[i] = (double)s->m[c] * f[c];
    }
    wt[n] = s->gamma * s->base_density;
    return n + 1;
}

/* Index of the first running total above a uniform draw on [0, total): the
 * rule of bisect_right. A draw that rounds up to the total takes the last
 * positive weight. */
static int64_t pick(qd_state *s, const double *wt, double *cum, int64_t n) {
    const double x = s->next_double(s->rng_state) * cum[n - 1];
    for (int64_t i = 0; i < n; i++)
        if (x < cum[i])
            return i;
    for (int64_t i = n - 1; i >= 0; i--)
        if (wt[i] > 0.0)
            return i;
    return 0;
}

static void running_totals(const double *wt, double *cum, int64_t n) {
    cum[0] = wt[0];
    for (int64_t i = 1; i < n; i++)
        cum[i] = cum[i - 1] + wt[i];
}

/* A table slot for word w in document j, or -1 for a new table. */
static int64_t draw_table(qd_state *s, int64_t j, int64_t w) {
    double *f = s->work, *wt = f + s->cap, *cum = wt + s->doc_ptr[j + 1] - s->doc_ptr[j] + 1;
    const int64_t n = table_weights(s, j, w, f, wt);
    running_totals(wt, cum, n);
    if (cum[n - 1] <= 0.0)
        return -1;
    const int64_t idx = pick(s, wt, cum, n);
    return idx == n - 1 ? -1 : idx;
}

/* The column of a new table's topic for an unconstrained word w, or -1 for
 * a brand-new topic. */
static int32_t draw_topic(qd_state *s, int64_t w) {
    double *f = s->work, *wt = f + s->cap, *cum = wt + s->cap + 1;
    const int64_t n = topic_weights(s, w, f, wt);
    running_totals(wt, cum, n);
    const int64_t idx = pick(s, wt, cum, n);
    return idx == n - 1 ? -1 : s->by_id[idx];
}

/* Word-filtering gate: Bernoulli of the rank-normalized cohesion of the
 * topic in column c and word w. */
static int draw_flag(qd_state *s, int64_t w, int32_t c) {
    if (s->promo_ptr[w] == s->promo_ptr[w + 1] || s->tilde == 0 || c < 0 || s->tilde_row[c] < 0)
        return 0;
    const double lam = s->tilde[(int64_t)s->tilde_row[c] * s->V + w];
    if (lam <= 0.0)
        return 0;
    if (lam >= 1.0)
        return 1;
    return s->next_double(s->rng_state) < lam ? 1 : 0;
}

/* One sweep over tokens p0.. in order. Returns the token count when done,
 * the position to resume from when every column is in use (the caller
 * grows the buffers first), or a negative error code. */
int64_t qd_sweep(qd_state *s, int64_t p0) {
    const int64_t n_tokens = s->doc_ptr[s->n_docs];
    int64_t j = 0, out[3];
    while (s->doc_ptr[j + 1] <= p0 && j + 1 < s->n_docs)
        j++;
    for (int64_t p = p0; p < n_tokens; p++) {
        while (s->doc_ptr[j + 1] <= p)
            j++;
        if (s->scal[N_LIVE] >= s->cap)
            return p;
        const int64_t w = s->words[p], i = p - s->doc_ptr[j];
        int64_t rc = detach(s, j, i, out);
        if (rc < 0)
            return rc;
        int64_t t = draw_table(s, j, w);
        int32_t c;
        if (t == -1) {
            if (s->forced[w] >= 0) {   /* a constrained word's table serves its parent */
                c = column_of(s, s->forced[w]);
                if (c == -1)
                    c = register_topic(s, s->forced[w]);
            } else {
                c = draw_topic(s, w);
                if (c == -1) {
                    if (s->scal[NEXT_TOPIC] == INT64_MAX)   /* no id is left for a birth */
                        return fail(s, ERR_NO_ID, j, i, 0);
                    c = register_topic(s, s->scal[NEXT_TOPIC]++);
                }
            }
            t = open_table(s, j, c);
            if (t < 0)
                return t;
        } else {
            c = s->tab_col[s->doc_ptr[j] + t];
            if (c < 0)   /* a zero weight is never picked; never write through -1 */
                return fail(s, ERR_DEAD, j, t, 0);
        }
        attach(s, j, i, t, draw_flag(s, w, c));
    }
    return n_tokens;
}

/* Drop dead table slots: in each document the live slots move down in slot
 * order, its tokens follow their tables and the freed tail is cleared, so
 * every slot at or past n_tab stays dead and empty. */
int64_t qd_compact(qd_state *s) {
    for (int64_t j = 0; j < s->n_docs; j++) {
        const int64_t base = s->doc_ptr[j], nt = s->n_tab[j];
        int32_t n = 0;
        for (int64_t t = 0; t < nt; t++) {
            if (s->tab_col[base + t] < 0)
                continue;
            s->slot_map[t] = n;
            if (n < t) {
                s->tab_col[base + n] = s->tab_col[base + t];
                s->tab_units[base + n] = s->tab_units[base + t];
                s->tab_promos[base + n] = s->tab_promos[base + t];
            }
            n++;
        }
        if (n == nt)
            continue;
        for (int64_t t = n; t < nt; t++) {
            s->tab_col[base + t] = -1;
            s->tab_units[base + t] = 0;
            s->tab_promos[base + t] = 0;
        }
        for (int64_t p = base; p < s->doc_ptr[j + 1]; p++)
            if (s->tok_t[p] >= 0)   /* a detached token (-1) stays detached */
                s->tok_t[p] = s->slot_map[s->tok_t[p]];
        s->n_tab[j] = n;
    }
    return 0;
}

/* ---- the cohesion cache ---- */

/* n_kw = units + u * promos of word w in column c */
static double count_of(const qd_state *s, int64_t w, int32_t c) {
    const int64_t cell = w * s->cap + c;
    return (double)s->nkw_units[cell] + s->u * (double)s->nkw_promos[cell];
}

/* Column c's n_reps words with the largest n_kw into `top`, descending, ties
 * to the lower word id (numpy's stable argsort of the negated counts);
 * returns how many, min(M, V). */
static int64_t top_words(qd_state *s, int32_t c) {
    const int64_t M = s->n_reps;
    int32_t *top = s->top;
    int64_t n = 0;
    double least = 0.0;   /* the count of top[M - 1] once `top` is full */
    for (int64_t w = 0; w < s->V; w++) {
        const double x = count_of(s, w, c);
        if (n == M && !(x > least))   /* an equal count keeps the lower id */
            continue;
        int64_t i = n < M ? n++ : M - 1;
        for (; i > 0 && count_of(s, top[i - 1], c) < x; i--)
            top[i] = top[i - 1];
        top[i] = (int32_t)w;
        if (n == M)
            least = count_of(s, top[M - 1], c);
    }
    return n;
}

/* out[w] = sum_d a[w][d] x[d] for V rows of dim entries, each summed d
 * ascending from +0.0 as `embeddings.dots` does; four rows at a time, so
 * that their four sums overlap. */
static void products(const double *a, const double *x, int64_t V, int64_t dim, double *out) {
    int64_t w = 0;
    for (; w + 4 <= V; w += 4) {
        const double *a0 = a + w * dim, *a1 = a0 + dim, *a2 = a1 + dim, *a3 = a2 + dim;
        double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
        for (int64_t d = 0; d < dim; d++) {
            s0 += a0[d] * x[d];
            s1 += a1[d] * x[d];
            s2 += a2[d] * x[d];
            s3 += a3[d] * x[d];
        }
        out[w] = s0;
        out[w + 1] = s1;
        out[w + 2] = s2;
        out[w + 3] = s3;
    }
    for (; w < V; w++) {
        const double *aw = a + w * dim;
        double s0 = 0.0;
        for (int64_t d = 0; d < dim; d++)
            s0 += aw[d] * x[d];
        out[w] = s0;
    }
}

/* a after b in numpy's sort order, which puts NaN last */
static int after(double a, double b) { return a > b || (a != a && b == b); }

/* For the i-th live topic k by ascending id: r = sum_m f_k(rep_m) norms[rep_m]
 * over its representatives (a parent's fixed list, or the top M words by
 * count), summed in their order from +0.0, and cv[i][w] = norms[w] . r.
 * Then tilde[i][w]: per word w, the live topics ranked by cv[i][w] ascending
 * (a stable insertion sort: ties in row order) get np.linspace(0, 1, T), that
 * is rank * (1 / (T - 1)) and exactly 1 for the last; a lone topic gets 1.
 * The gate reads this `tilde`, each live column at its row (a column born
 * later is set to none at its birth). Returns the number of rows. */
int64_t qd_cohesion(qd_state *s, double *cv, double *tilde) {
    const int64_t T = s->scal[N_LIVE], V = s->V, dim = s->dim, cap = s->cap;
    const double u = s->u, beta = s->beta, v_beta = (double)V * s->beta;
    double *r = s->work;   /* the sweep's scratch is free between sweeps */
    int64_t q = 0;   /* rep_topic and by_id both ascend, so one walk finds every list */
    for (int64_t i = 0; i < T; i++) {
        const int32_t c = s->by_id[i];
        const int64_t k = s->topic_of[c];
        while (q < s->n_rep_topics && s->rep_topic[q] < k)
            q++;
        const int32_t *reps = s->top;
        int64_t n;
        if (q < s->n_rep_topics && s->rep_topic[q] == k) {
            reps = s->rep_words + s->rep_ptr[q];
            n = s->rep_ptr[q + 1] - s->rep_ptr[q];
        } else {
            n = top_words(s, c);
        }
        for (int64_t d = 0; d < dim; d++)
            r[d] = 0.0;
        for (int64_t m = 0; m < n; m++) {
            const int64_t cell = (int64_t)reps[m] * cap + c;
            const double p = f_kw(s->nkw_units[cell], s->nkw_promos[cell], s->nk_units[c],
                                  s->nk_promos[c], u, beta, v_beta);
            const double *row = s->norms + (int64_t)reps[m] * dim;
            for (int64_t d = 0; d < dim; d++)
                r[d] += p * row[d];
        }
        products(s->norms, r, V, dim, cv + i * V);
    }
    const double step = T > 1 ? 1.0 / (double)(T - 1) : 0.0;
    int32_t *row = s->rank;
    double *key = s->work;
    for (int64_t w = 0; w < V; w++) {
        for (int64_t i = 0; i < T; i++) {
            const double x = cv[i * V + w];
            int64_t j = i;
            for (; j > 0 && after(key[j - 1], x); j--) {
                key[j] = key[j - 1];
                row[j] = row[j - 1];
            }
            key[j] = x;
            row[j] = (int32_t)i;
        }
        for (int64_t j = 0; j < T; j++)
            tilde[row[j] * V + w] = j == T - 1 ? 1.0 : (double)j * step;
    }
    for (int64_t i = 0; i < T; i++)
        s->tilde_row[s->by_id[i]] = (int32_t)i;
    s->tilde = tilde;
    return T;
}

/* ---- the single steps, for the Python wrappers; indices are checked ---- */

static int bad_token(const qd_state *s, int64_t j, int64_t i) {
    return j < 0 || j >= s->n_docs || i < 0 || i >= s->doc_ptr[j + 1] - s->doc_ptr[j];
}

static int bad_slot(const qd_state *s, int64_t j, int64_t t) {
    return j < 0 || j >= s->n_docs || t < 0 || t >= s->n_tab[j];
}

static int bad_word(const qd_state *s, int64_t w) { return w < 0 || w >= s->V; }

int64_t qd_detach(qd_state *s, int64_t j, int64_t i, int64_t *out) {
    if (bad_token(s, j, i))
        return fail(s, ERR_INDEX, j, i, 0);
    const int64_t t = s->tok_t[s->doc_ptr[j] + i];
    if (bad_slot(s, j, t) || s->tab_col[s->doc_ptr[j] + t] < 0)
        return fail(s, ERR_DEAD, j, t, 0);
    return detach(s, j, i, out);
}

int64_t qd_attach(qd_state *s, int64_t j, int64_t i, int64_t t, int64_t flag) {
    if (bad_token(s, j, i) || bad_slot(s, j, t))
        return fail(s, ERR_INDEX, j, i, t);
    const int64_t w = s->words[s->doc_ptr[j] + i];
    if (flag != 0 && s->promo_ptr[w] == s->promo_ptr[w + 1])   /* no row: no mass to add */
        return fail(s, ERR_INDEX, j, i, flag);
    if (s->tab_col[s->doc_ptr[j] + t] < 0)
        return fail(s, ERR_DEAD, j, t, 0);
    attach(s, j, i, t, flag != 0);
    return 0;
}

/* The caller guarantees a free column. */
int64_t qd_ensure_table(qd_state *s, int64_t j, int64_t t, int64_t k) {
    if (bad_slot(s, j, t))
        return fail(s, ERR_INDEX, j, t, 0);
    if (s->tab_col[s->doc_ptr[j] + t] == -1) {
        int32_t c = column_of(s, k);
        ensure_table(s, s->doc_ptr[j] + t, c >= 0 ? c : register_topic(s, k));
    }
    return 0;
}

int64_t qd_table_weights(qd_state *s, int64_t j, int64_t w, double *out) {
    if (j < 0 || j >= s->n_docs || bad_word(s, w))
        return fail(s, ERR_INDEX, j, w, 0);
    return table_weights(s, j, w, s->work, out);
}

int64_t qd_topic_weights(qd_state *s, int64_t w, int64_t *ids, double *out) {
    if (bad_word(s, w))
        return fail(s, ERR_INDEX, w, 0, 0);
    const int64_t n = topic_weights(s, w, s->work, out);
    for (int64_t i = 0; i + 1 < n; i++)
        ids[i] = s->topic_of[s->by_id[i]];
    return n;
}

int64_t qd_draw_table(qd_state *s, int64_t j, int64_t w) {
    if (j < 0 || j >= s->n_docs || bad_word(s, w))
        return fail(s, ERR_INDEX, j, w, 0);
    return draw_table(s, j, w);
}

/* The topic id of a new table, or -1 for a brand-new topic. */
int64_t qd_draw_topic(qd_state *s, int64_t w, int64_t *topic) {
    if (bad_word(s, w))
        return fail(s, ERR_INDEX, w, 0, 0);
    if (s->forced[w] >= 0) {
        *topic = s->forced[w];
        return 0;
    }
    const int32_t c = draw_topic(s, w);
    *topic = c < 0 ? -1 : s->topic_of[c];
    return 0;
}

int64_t qd_draw_flag(qd_state *s, int64_t w, int64_t k) {
    if (bad_word(s, w))
        return fail(s, ERR_INDEX, w, 0, 0);
    return draw_flag(s, w, column_of(s, k));
}

/* out[i] = log(x[i]) for x[i] > 0, else -inf (0, a negative or NaN). */
int64_t qd_log(const double *x, int64_t n, double *out) {
    for (int64_t i = 0; i < n; i++)
        out[i] = x[i] > 0.0 ? log(x[i]) : -HUGE_VAL;
    return 0;
}

/* out[i] = a_i . b_i over n rows a_i of a, where b_i is row i of b when
 * b_step is dim and all of b when it is 0: the order of `products`, d
 * ascending from +0.0. */
int64_t qd_dots(const double *a, const double *b, int64_t b_step, int64_t n, int64_t dim,
                double *out) {
    if (b_step == 0) {
        products(a, b, n, dim, out);
        return 0;
    }
    for (int64_t i = 0; i < n; i++) {
        const double *ai = a + i * dim, *bi = b + i * dim;
        double s0 = 0.0;
        for (int64_t d = 0; d < dim; d++)
            s0 += ai[d] * bi[d];
        out[i] = s0;
    }
    return 0;
}

/* ---- ingest: cut, intern and count a corpus's tokens ---- */

typedef struct {
    const uint8_t *text;        /* the documents' UTF-8 bytes, end to end */
    const int64_t *text_ptr;    /* n_docs + 1 byte offsets */
    int64_t n_docs;
    int64_t cased;              /* runs of [A-Za-z0-9] when set, else [a-z0-9] */
    int64_t min_len;            /* shorter runs are dropped, as are all-digit ones */
    int32_t *slots;             /* n_slots, a power of 2: an interned id + 1, 0 if empty */
    int64_t n_slots;
    int64_t *first;             /* max_ids: byte offset of an id's first run */
    int64_t *length;            /* max_ids: its length */
    int64_t *last_doc;          /* max_ids: the last document that held the id */
    int64_t *entry;             /* max_ids: the id's forward entry in that document */
    int64_t max_ids;
    int64_t n_ids;
    int64_t doc;                /* the next document to cut */
    int32_t *tokens;            /* every kept run's id, document after document */
    int64_t *tok_ptr;           /* n_docs + 1 offsets into tokens */
    int32_t *words;             /* forward index: a document's distinct ids by first */
    int32_t *counts;            /* occurrence, and their counts */
    int64_t *word_ptr;          /* n_docs + 1 offsets into words */
} qd_ingest_state;

int64_t qd_ingest_size(void) { return (int64_t)sizeof(qd_ingest_state); }

#define FNV_OFFSET 14695981039346656037u   /* FNV-1a over a run's bytes */
#define FNV_PRIME 1099511628211u

/* The slot of the run text[start:start + len] with FNV-1a hash h: the one
 * holding its id, or the empty one where it goes. */
static uint64_t slot_of(const qd_ingest_state *s, int64_t start, int64_t len, uint64_t h) {
    const uint64_t mask = (uint64_t)s->n_slots - 1;
    uint64_t i = (h ^ (h >> 32)) & mask;
    for (int32_t v; (v = s->slots[i]) != 0; i = (i + 1) & mask)
        if (s->length[v - 1] == len && memcmp(s->text + s->first[v - 1], s->text + start,
                                              (size_t)len) == 0)
            break;
    return i;
}

/* Cut documents doc.. into runs, intern each kept run (a new one takes the
 * next id, so ids follow first occurrence) and write its id, then count the
 * document's ids into its forward entries. Returns 0 when every document is
 * done, or 1 when the table holds max_ids ids and a new one comes: the caller
 * then passes an empty table of more slots and room for more ids, and the
 * call starts over at the document it stopped in, whose run ids it finds
 * again in the same order. */
int64_t qd_ingest(qd_ingest_state *s) {
    uint8_t in_run[256] = {0};
    for (int c = '0'; c <= '9'; c++)
        in_run[c] = 1;
    for (int c = 'a'; c <= 'z'; c++)
        in_run[c] = 1;
    for (int c = 'A'; c <= 'Z'; c++)
        in_run[c] = (uint8_t)(s->cased != 0);
    for (int64_t id = 0; id < s->n_ids; id++) {
        uint64_t h = FNV_OFFSET;
        for (int64_t p = s->first[id]; p < s->first[id] + s->length[id]; p++)
            h = (h ^ s->text[p]) * FNV_PRIME;
        s->slots[slot_of(s, s->first[id], s->length[id], h)] = (int32_t)(id + 1);
        s->last_doc[id] = -1;
    }
    if (s->doc == 0) {
        s->tok_ptr[0] = 0;
        s->word_ptr[0] = 0;
    }
    const uint8_t *text = s->text;
    for (; s->doc < s->n_docs; s->doc++) {
        const int64_t j = s->doc, end = s->text_ptr[j + 1];
        int64_t p = s->text_ptr[j], n_tok = s->tok_ptr[j], n_words = s->word_ptr[j];
        while (p < end) {
            if (!in_run[text[p]]) {
                p++;
                continue;
            }
            const int64_t start = p;
            uint64_t h = FNV_OFFSET;
            int digits = 1;
            for (; p < end && in_run[text[p]]; p++) {
                h = (h ^ text[p]) * FNV_PRIME;
                digits &= text[p] <= '9';
            }
            if (p - start < s->min_len || digits)
                continue;
            const uint64_t i = slot_of(s, start, p - start, h);
            int64_t id = (int64_t)s->slots[i] - 1;
            if (id < 0) {
                if (s->n_ids == s->max_ids)
                    return 1;
                id = s->n_ids++;
                s->slots[i] = (int32_t)(id + 1);
                s->first[id] = start;
                s->length[id] = p - start;
                s->last_doc[id] = -1;
            }
            s->tokens[n_tok++] = (int32_t)id;
            if (s->last_doc[id] == j) {
                s->counts[s->entry[id]]++;
            } else {
                s->last_doc[id] = j;
                s->entry[id] = n_words;
                s->words[n_words] = (int32_t)id;
                s->counts[n_words++] = 1;
            }
        }
        s->tok_ptr[j + 1] = n_tok;
        s->word_ptr[j + 1] = n_words;
    }
    return 0;
}
