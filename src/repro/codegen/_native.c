/* The CPython extension that calls every native unit of repro.codegen.gen_c.
 *
 * One model-independent module.  open() dlopens a built unit, resolves its
 * exports and cross-checks its NUM_*() layout probes, and returns a Unit.
 * The Unit's METH_FASTCALL methods take caller-owned float64 buffers
 * through the buffer protocol.  Every call checks each buffer's length,
 * format, contiguity and (for outputs) writability, and raises ValueError
 * naming the bad buffer, so a wrong array can never reach the C code.  The
 * GIL is released around each C call.
 *
 * A Pool runs whole rounds of a unit's tasks on pthreads: one round()
 * call releases the GIL once, and the caller and num_workers - 1 threads
 * run their task lists level by level, meeting at a barrier after each.
 *
 * The generated units stay plain C (<math.h>, <time.h>): only this file
 * includes <Python.h>, and it is built once per machine and interpreter.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <dlfcn.h>
#include <errno.h>
#include <pthread.h>
#include <sched.h>
#include <stdatomic.h>
#include <string.h>
#include <time.h>
#include <unistd.h>

typedef void (*eval_fn)(double, const double *, const double *, double *);
typedef void (*run_fn)(double, const double *, const double *, double *,
                       const int *, int, double *);
typedef void (*fill_fn)(double *);
typedef int (*probe_fn)(void);

typedef struct {
    PyObject_HEAD
    void *handle;
    eval_fn rhs, jac;
    run_fn run_tasks;
    fill_fn start, params;
    Py_ssize_t num_states, num_results, num_tasks, num_params, nnz;
} Unit;

static int
check_nargs(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, want, nargs);
    return -1;
}

/* Borrow obj's buffer as n C-contiguous float64 values (writable when
 * out is set); on a mismatch raise ValueError naming the buffer. */
static int
get_doubles(PyObject *obj, const char *name, Py_ssize_t n, int out,
            Py_buffer *view)
{
    const char *why = NULL;

    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0) {
        PyErr_Clear();
        PyErr_Format(PyExc_ValueError, "%s: expected a float64 buffer, "
                     "not %.200s", name, Py_TYPE(obj)->tp_name);
        return -1;
    }
    if (view->format == NULL || strcmp(view->format, "d") != 0)
        why = "is not float64";
    else if (!PyBuffer_IsContiguous(view, 'C'))
        why = "is not C-contiguous";
    else if (out && view->readonly)
        why = "is read-only";
    else if (view->len != n * (Py_ssize_t)sizeof(double)) {
        PyErr_Format(PyExc_ValueError, "%s has %zd float64 values, "
                     "expected %zd", name,
                     view->len / (Py_ssize_t)sizeof(double), n);
        PyBuffer_Release(view);
        return -1;
    }
    if (why != NULL) {
        PyErr_Format(PyExc_ValueError, "%s %s", name, why);
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* (t, y, p, out) -> out, through an eval_fn writing nout values. */
static PyObject *
eval(Unit *self, eval_fn fn, const char *name, const char *out_name,
     Py_ssize_t nout, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer y, p, out;
    double t;

    if (check_nargs(name, nargs, 4) < 0)
        return NULL;
    t = PyFloat_AsDouble(args[0]);
    if (t == -1.0 && PyErr_Occurred())
        return NULL;
    if (get_doubles(args[1], "y", self->num_states, 0, &y) < 0)
        return NULL;
    if (get_doubles(args[2], "p", self->num_params, 0, &p) < 0)
        goto release_y;
    if (get_doubles(args[3], out_name, nout, 1, &out) < 0)
        goto release_p;
    Py_BEGIN_ALLOW_THREADS
    fn(t, y.buf, p.buf, out.buf);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&out);
    PyBuffer_Release(&p);
    PyBuffer_Release(&y);
    return Py_NewRef(args[3]);
release_p:
    PyBuffer_Release(&p);
release_y:
    PyBuffer_Release(&y);
    return NULL;
}

static PyObject *
Unit_rhs(Unit *self, PyObject *const *args, Py_ssize_t nargs)
{
    return eval(self, self->rhs, "rhs", "out", self->num_states, args, nargs);
}

static PyObject *
Unit_jac(Unit *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (self->jac == NULL) {
        PyErr_SetString(PyExc_ValueError, "this unit has no JAC");
        return NULL;
    }
    return eval(self, self->jac, "jac", "vals", self->nnz, args, nargs);
}

/* Copy the items of seq (a PySequence_Fast), ints in [0, bound), to dst;
 * -1 with an exception naming the bad item. */
static int
copy_ids(PyObject *seq, const char *name, Py_ssize_t bound, int *dst)
{
    for (Py_ssize_t k = 0; k < PySequence_Fast_GET_SIZE(seq); ++k) {
        long v = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, k));

        if (v == -1 && PyErr_Occurred())
            return -1;
        if (v < 0 || v >= bound) {
            PyErr_Format(PyExc_ValueError, "%s[%zd] = %ld is not in "
                         "[0, %zd)", name, k, v, bound);
            return -1;
        }
        dst[k] = (int)v;
    }
    return 0;
}

#define SMALL_IDS 64

/* run_tasks(ids, t, y, p, out, times): the tasks of the sequence ids in
 * order, in one C call; each one's wall seconds go to times[id]. */
static PyObject *
Unit_run_tasks(Unit *self, PyObject *const *args, Py_ssize_t nargs)
{
    int small[SMALL_IDS], *ids = small;
    Py_buffer y, p, out, times;
    PyObject *seq, *result = NULL;
    Py_ssize_t n;
    double t;

    if (check_nargs("run_tasks", nargs, 6) < 0)
        return NULL;
    seq = PySequence_Fast(args[0], "ids must be a sequence of task ids");
    if (seq == NULL)
        return NULL;
    n = PySequence_Fast_GET_SIZE(seq);
    if (n > SMALL_IDS && (ids = PyMem_New(int, n)) == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    if (copy_ids(seq, "ids", self->num_tasks, ids) < 0)
        goto free_ids;
    t = PyFloat_AsDouble(args[1]);
    if (t == -1.0 && PyErr_Occurred())
        goto free_ids;
    if (get_doubles(args[2], "y", self->num_states, 0, &y) < 0)
        goto free_ids;
    if (get_doubles(args[3], "p", self->num_params, 0, &p) < 0)
        goto release_y;
    if (get_doubles(args[4], "out", self->num_results, 1, &out) < 0)
        goto release_p;
    if (get_doubles(args[5], "times", self->num_tasks, 1, &times) < 0)
        goto release_out;
    Py_BEGIN_ALLOW_THREADS
    self->run_tasks(t, y.buf, p.buf, out.buf, ids, (int)n, times.buf);
    Py_END_ALLOW_THREADS
    result = Py_NewRef(Py_None);
    PyBuffer_Release(&times);
release_out:
    PyBuffer_Release(&out);
release_p:
    PyBuffer_Release(&p);
release_y:
    PyBuffer_Release(&y);
free_ids:
    if (ids != small)
        PyMem_Free(ids);
    Py_DECREF(seq);
    return result;
}

/* (out) -> out, through a fill_fn writing n values. */
static PyObject *
fill(fill_fn fn, const char *name, Py_ssize_t n, PyObject *const *args,
     Py_ssize_t nargs)
{
    Py_buffer out;

    if (check_nargs(name, nargs, 1) < 0
            || get_doubles(args[0], "out", n, 1, &out) < 0)
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    fn(out.buf);
    Py_END_ALLOW_THREADS
    PyBuffer_Release(&out);
    return Py_NewRef(args[0]);
}

static PyObject *
Unit_start(Unit *self, PyObject *const *args, Py_ssize_t nargs)
{
    return fill(self->start, "start", self->num_states, args, nargs);
}

static PyObject *
Unit_params(Unit *self, PyObject *const *args, Py_ssize_t nargs)
{
    return fill(self->params, "params", self->num_params, args, nargs);
}

static void
Unit_dealloc(Unit *self)
{
    if (self->handle != NULL)
        dlclose(self->handle);
    PyObject_Free(self);
}

#define FASTCALL(fn) ((PyCFunction)(void (*)(void))(fn)), METH_FASTCALL

static PyMethodDef Unit_methods[] = {
    {"rhs", FASTCALL(Unit_rhs), "rhs(t, y, p, out) -> out: the RHS."},
    {"run_tasks", FASTCALL(Unit_run_tasks),
     "run_tasks(ids, t, y, p, out, times): the listed tasks, in order."},
    {"jac", FASTCALL(Unit_jac),
     "jac(t, y, p, vals) -> vals: the sparse Jacobian's nonzeros."},
    {"start", FASTCALL(Unit_start), "start(out) -> out: start values."},
    {"params", FASTCALL(Unit_params), "params(out) -> out: parameters."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject UnitType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.codegen._native.Unit",
    .tp_basicsize = sizeof(Unit),
    .tp_dealloc = (destructor)Unit_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "A dlopen-ed native unit (see open()).",
    .tp_methods = Unit_methods,
};

/* -- the pool: whole rounds on pthreads ------------------------------------ */

/* How long a barrier waiter spins before it blocks: longer than the
 * solver's work between two rounds, so a busy pool does not sleep, and
 * short enough that an idle one stops using CPU at once.  The spin
 * yields now and then, for pools with more threads than CPUs. */
#define SPIN_NS 200000LL

#if defined(__x86_64__) || defined(__i386__)
#define CPU_RELAX() __builtin_ia32_pause()
#elif defined(__aarch64__)
#define CPU_RELAX() __asm__ __volatile__("yield")
#else
#define CPU_RELAX() ((void)0)
#endif

static long long
now_ns(clockid_t clock)
{
    struct timespec ts;

    clock_gettime(clock, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

static struct timespec
to_timespec(long long ns)
{
    struct timespec ts = {(time_t)(ns / 1000000000LL),
                          (long)(ns % 1000000000LL)};
    return ts;
}

/* A reusable barrier for a fixed number of parties, spinning for SPIN_NS
 * before it blocks.  A waiter whose deadline passes breaks it for good:
 * every wait then fails at once, so no party is left behind. */
typedef struct {
    pthread_mutex_t mu;
    pthread_cond_t cv;  /* on CLOCK_MONOTONIC */
    atomic_int arrived;
    atomic_uint phase;
    atomic_int broken;
    int parties, sleepers;
} Barrier;

static void
barrier_break(Barrier *b)
{
    pthread_mutex_lock(&b->mu);
    atomic_store(&b->broken, 1);
    pthread_cond_broadcast(&b->cv);
    pthread_mutex_unlock(&b->mu);
}

/* 0 once every party has arrived, -1 when the barrier is or becomes
 * broken; deadline is CLOCK_MONOTONIC nanoseconds, < 0 for none. */
static int
barrier_wait(Barrier *b, long long deadline)
{
    unsigned phase = atomic_load(&b->phase);
    long long spin_end;
    struct timespec until;
    int rc;

    if (atomic_load(&b->broken))
        return -1;
    if (atomic_fetch_add(&b->arrived, 1) + 1 == b->parties) {
        atomic_store(&b->arrived, 0);
        pthread_mutex_lock(&b->mu);
        rc = atomic_load(&b->broken) ? -1 : 0;
        if (rc == 0)
            atomic_fetch_add(&b->phase, 1);
        if (b->sleepers)
            pthread_cond_broadcast(&b->cv);
        pthread_mutex_unlock(&b->mu);
        return rc;
    }
    spin_end = now_ns(CLOCK_MONOTONIC) + SPIN_NS;
    for (unsigned k = 1; ; ++k) {
        if (atomic_load(&b->phase) != phase)
            return 0;
        if (atomic_load(&b->broken))
            return -1;
        CPU_RELAX();
        if (k % 64 == 0) {
            if (now_ns(CLOCK_MONOTONIC) > spin_end)
                break;
            sched_yield();  /* to a party that shares this CPU */
        }
    }
    until = to_timespec(deadline);
    pthread_mutex_lock(&b->mu);
    b->sleepers++;
    while (atomic_load(&b->phase) == phase && !atomic_load(&b->broken)) {
        if (deadline < 0)
            pthread_cond_wait(&b->cv, &b->mu);
        else if (pthread_cond_timedwait(&b->cv, &b->mu, &until) == ETIMEDOUT
                 && atomic_load(&b->phase) == phase) {
            atomic_store(&b->broken, 1);
            pthread_cond_broadcast(&b->cv);
        }
    }
    b->sleepers--;
    rc = atomic_load(&b->phase) != phase ? 0 : -1;
    pthread_mutex_unlock(&b->mu);
    return rc;
}

/* What the caller and the pool's threads share.  It is plain malloc-ed
 * memory, so threads that outlive their Pool (a round stuck past
 * close()'s timeout) can still read it: it is then never freed. */
typedef struct Shared Shared;

typedef struct {
    Shared *shared;
    int worker;
} Member;

struct Shared {
    Barrier bar;
    run_fn run_tasks;
    int num_workers, num_levels;
    int *level_ids, *level_off;  /* level l: level_ids[level_off[l] ..] */
    int *ids, *off;  /* worker w, level l: ids[off[w*L+l] .. off[w*L+l+1]) */
    pthread_t *threads;
    Member *members;
    /* the round in flight */
    double t;
    const double *y, *p;
    double *out, *times;
    int empty, stop;
};

static void
run_share(Shared *s, int worker, int level)
{
    const int *span = s->off + worker * s->num_levels + level;

    if (span[1] > span[0] && !s->empty)
        s->run_tasks(s->t, s->y, s->p, s->out, s->ids + span[0],
                     span[1] - span[0], s->times);
}

static void *
pool_thread(void *arg)
{
    Member *m = arg;
    Shared *s = m->shared;

    /* the round's start, then one barrier after each level */
    while (barrier_wait(&s->bar, -1) == 0 && !s->stop)
        for (int l = 0; l < s->num_levels; ++l) {
            run_share(s, m->worker, l);
            if (barrier_wait(&s->bar, -1) < 0)
                return NULL;
        }
    return NULL;
}

/* The caller's side of a round: worker 0's share; -1 when some worker
 * missed a level's deadline (the barrier is then broken). */
static int
run_round(Shared *s, long long timeout)
{
    if (barrier_wait(&s->bar, now_ns(CLOCK_MONOTONIC) + timeout) < 0)
        return -1;
    for (int l = 0; l < s->num_levels; ++l) {
        long long deadline = now_ns(CLOCK_MONOTONIC) + timeout;

        run_share(s, 0, l);
        if (barrier_wait(&s->bar, deadline) < 0)
            return -1;
    }
    return 0;
}

static void
shared_free(Shared *s)
{
    pthread_cond_destroy(&s->bar.cv);
    pthread_mutex_destroy(&s->bar.mu);
    free(s->level_ids);
    free(s->level_off);
    free(s->ids);
    free(s->off);
    free(s->threads);
    free(s->members);
    free(s);
}

typedef struct {
    PyObject_HEAD
    Unit *unit;
    Shared *shared;
    long long timeout;  /* ns */
    int started;        /* threads started and not yet joined */
    int assigned, busy, closed, leaked;
    pid_t pid;          /* a forked child has none of the threads */
    Py_buffer held[4];  /* a broken round's buffers, kept until close() */
    int holding;
} Pool;

static void
release_views(Py_buffer *views, int n)
{
    for (int k = 0; k < n; ++k)
        PyBuffer_Release(&views[k]);
}

/* Stop the threads; those not joined within join_timeout seconds are
 * detached, and then the shared state, the unit and any held buffers are
 * kept alive for them forever.  Returns how many were left running.
 * Needs no GIL: the caller releases the held buffers. */
static int
pool_stop(Pool *self, double join_timeout)
{
    Shared *s = self->shared;
    long long deadline;
    int left = 0;

    if (self->closed)
        return self->leaked;
    self->closed = 1;
    if (s == NULL)
        return 0;
    if (self->pid != getpid()) {
        self->leaked = 1;  /* not ours to join, nor its locks to touch */
        return 0;
    }
    s->stop = 1;
    barrier_break(&s->bar);
    deadline = now_ns(CLOCK_REALTIME) + (long long)(join_timeout * 1e9);
    for (int w = 1; w < 1 + self->started; ++w) {
        struct timespec until = to_timespec(deadline);

        if (pthread_timedjoin_np(s->threads[w], NULL, &until) != 0) {
            pthread_detach(s->threads[w]);
            ++left;
        }
    }
    self->started = 0;
    self->leaked = left;
    if (left == 0) {
        shared_free(s);
        self->shared = NULL;
    }
    return left;
}

/* With the GIL: the held buffers, once no thread can write them. */
static void
release_held(Pool *self)
{
    if (self->holding && !self->leaked)
        release_views(self->held, 4);
    self->holding = 0;
}

static void
Pool_dealloc(Pool *self)
{
    pool_stop(self, 5.0);
    release_held(self);
    if (!self->leaked)
        Py_XDECREF(self->unit);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Copy the sequence obj of want ints in [0, bound) into dst; -1 with an
 * exception. */
static int
get_ids(PyObject *obj, const char *name, Py_ssize_t bound, int *dst,
        Py_ssize_t want)
{
    PyObject *seq = PySequence_Fast(obj, "expected a sequence of ints");
    int rc = -1;

    if (seq == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(seq) != want)
        PyErr_Format(PyExc_ValueError, "%s has %zd entries, expected %zd",
                     name, PySequence_Fast_GET_SIZE(seq), want);
    else
        rc = copy_ids(seq, name, bound, dst);
    Py_DECREF(seq);
    return rc;
}

/* Pool(unit, num_workers, levels, timeout) */
static PyObject *
Pool_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *unit, *levels, *fast = NULL;
    Py_ssize_t num_workers, num_levels, total = 0;
    double timeout;
    pthread_condattr_t attr;
    Shared *s;
    Pool *self;

    if (kwds != NULL && PyDict_GET_SIZE(kwds) != 0) {
        PyErr_SetString(PyExc_TypeError, "Pool() takes no keyword arguments");
        return NULL;
    }
    if (!PyArg_ParseTuple(args, "O!nOd:Pool", &UnitType, &unit,
                          &num_workers, &levels, &timeout))
        return NULL;
    if (num_workers < 1 || num_workers > INT_MAX) {
        PyErr_SetString(PyExc_ValueError, "need at least one worker");
        return NULL;
    }
    if (!(timeout > 0)) {
        PyErr_SetString(PyExc_ValueError, "timeout must be positive");
        return NULL;
    }
    fast = PySequence_Fast(levels, "levels must be a sequence");
    if (fast == NULL)
        return NULL;
    num_levels = PySequence_Fast_GET_SIZE(fast);
    for (Py_ssize_t l = 0; l < num_levels; ++l) {
        Py_ssize_t n = PyObject_Length(PySequence_Fast_GET_ITEM(fast, l));

        if (n < 0) {
            Py_DECREF(fast);
            return NULL;
        }
        total += n;
    }
    self = (Pool *)type->tp_alloc(type, 0);
    if (self == NULL) {
        Py_DECREF(fast);
        return NULL;
    }
    self->pid = getpid();
    self->timeout = (long long)(timeout * 1e9);
    self->unit = (Unit *)Py_NewRef(unit);
    s = self->shared = calloc(1, sizeof(Shared));
    if (s == NULL)
        goto nomem;
    s->run_tasks = self->unit->run_tasks;
    s->num_workers = (int)num_workers;
    s->num_levels = (int)num_levels;
    s->bar.parties = (int)num_workers;
    pthread_mutex_init(&s->bar.mu, NULL);
    pthread_condattr_init(&attr);
    pthread_condattr_setclock(&attr, CLOCK_MONOTONIC);
    pthread_cond_init(&s->bar.cv, &attr);
    pthread_condattr_destroy(&attr);
    s->level_ids = malloc(sizeof(int) * (size_t)(total + 1));
    s->level_off = malloc(sizeof(int) * (size_t)(num_levels + 1));
    s->ids = malloc(sizeof(int) * (size_t)(total + 1));
    s->off = calloc((size_t)(num_workers * num_levels + 1), sizeof(int));
    s->threads = calloc((size_t)num_workers, sizeof(pthread_t));
    s->members = calloc((size_t)num_workers, sizeof(Member));
    if (!s->level_ids || !s->level_off || !s->ids || !s->off || !s->threads
            || !s->members)
        goto nomem;
    s->level_off[0] = 0;
    for (Py_ssize_t l = 0; l < num_levels; ++l) {
        PyObject *level = PySequence_Fast_GET_ITEM(fast, l);
        Py_ssize_t n = PyObject_Length(level);

        if (n < 0 || s->level_off[l] + n > total
                || get_ids(level, "levels", self->unit->num_tasks,
                           s->level_ids + s->level_off[l], n) < 0)
            goto fail;
        s->level_off[l + 1] = s->level_off[l] + (int)n;
    }
    Py_CLEAR(fast);
    for (int w = 1; w < s->num_workers; ++w) {
        char name[24];
        int err;

        s->members[w].shared = s;
        s->members[w].worker = w;
        err = pthread_create(&s->threads[w], NULL, pool_thread,
                             &s->members[w]);
        if (err != 0) {
            errno = err;
            PyErr_SetFromErrno(PyExc_OSError);
            goto fail;
        }
        self->started++;
        snprintf(name, sizeof name, "repro-pool-%d", w);
        name[15] = '\0';  /* the kernel keeps 15 characters */
        pthread_setname_np(s->threads[w], name);  /* for ps, top -H */
    }
    return (PyObject *)self;
nomem:
    PyErr_NoMemory();
fail:
    Py_XDECREF(fast);
    Py_DECREF(self);
    return NULL;
}

static int
check_usable(Pool *self)
{
    if (self->busy) {
        PyErr_SetString(PyExc_RuntimeError, "a round is in flight");
        return -1;
    }
    if (self->closed) {
        PyErr_SetString(PyExc_RuntimeError, "the pool is closed");
        return -1;
    }
    if (atomic_load(&self->shared->bar.broken)) {
        PyErr_SetString(PyExc_RuntimeError, "the pool is broken");
        return -1;
    }
    return 0;
}

/* assign(assignment): worker assignment[tid] runs task tid from now on. */
static PyObject *
Pool_assign(Pool *self, PyObject *const *args, Py_ssize_t nargs)
{
    Shared *s = self->shared;
    int L = s->num_levels, slots = s->num_workers * L;
    int *owner, *cursor;

    if (check_nargs("assign", nargs, 1) < 0 || check_usable(self) < 0)
        return NULL;
    owner = PyMem_New(int, self->unit->num_tasks + 1);
    cursor = PyMem_New(int, slots + 1);
    if (owner == NULL || cursor == NULL) {
        PyMem_Free(owner);
        PyMem_Free(cursor);
        return PyErr_NoMemory();
    }
    if (get_ids(args[0], "assignment", s->num_workers, owner,
                self->unit->num_tasks) < 0) {
        PyMem_Free(owner);
        PyMem_Free(cursor);
        return NULL;
    }
    /* count each (worker, level) list, then fill it in level order */
    memset(s->off, 0, sizeof(int) * (size_t)(slots + 1));
    for (int l = 0; l < L; ++l)
        for (int k = s->level_off[l]; k < s->level_off[l + 1]; ++k)
            s->off[owner[s->level_ids[k]] * L + l + 1]++;
    for (int i = 0; i < slots; ++i)
        s->off[i + 1] += s->off[i];
    memcpy(cursor, s->off, sizeof(int) * (size_t)slots);
    for (int l = 0; l < L; ++l)
        for (int k = s->level_off[l]; k < s->level_off[l + 1]; ++k) {
            int tid = s->level_ids[k];

            s->ids[cursor[owner[tid] * L + l]++] = tid;
        }
    PyMem_Free(owner);
    PyMem_Free(cursor);
    self->assigned = 1;
    Py_RETURN_NONE;
}

/* One round with the GIL released; the views are held past a broken one. */
static PyObject *
pool_round(Pool *self, Py_buffer *views, int nviews)
{
    Shared *s = self->shared;
    int rc = -1;

    if (self->pid == getpid() && !atomic_load(&s->bar.broken)) {
        self->busy = 1;
        Py_BEGIN_ALLOW_THREADS
        rc = run_round(s, self->timeout);
        Py_END_ALLOW_THREADS
        self->busy = 0;
    }
    if (rc == 0 || nviews == 0) {
        release_views(views, nviews);
    } else {
        memcpy(self->held, views, sizeof(Py_buffer) * (size_t)nviews);
        self->holding = 1;
    }
    return PyBool_FromLong(rc == 0);
}

/* round(t, y, p, out, times) -> bool */
static PyObject *
Pool_round(Pool *self, PyObject *const *args, Py_ssize_t nargs)
{
    Unit *u = self->unit;
    Shared *s = self->shared;
    Py_buffer v[4];
    double t;

    if (check_nargs("round", nargs, 5) < 0 || check_usable(self) < 0)
        return NULL;
    if (!self->assigned) {
        PyErr_SetString(PyExc_RuntimeError, "no assignment: call assign()");
        return NULL;
    }
    t = PyFloat_AsDouble(args[0]);
    if (t == -1.0 && PyErr_Occurred())
        return NULL;
    if (get_doubles(args[1], "y", u->num_states, 0, &v[0]) < 0)
        return NULL;
    if (get_doubles(args[2], "p", u->num_params, 0, &v[1]) < 0)
        goto release_0;
    if (get_doubles(args[3], "out", u->num_results, 1, &v[2]) < 0)
        goto release_1;
    if (get_doubles(args[4], "times", u->num_tasks, 1, &v[3]) < 0)
        goto release_2;
    s->t = t;
    s->y = v[0].buf;
    s->p = v[1].buf;
    s->out = v[2].buf;
    s->times = v[3].buf;
    s->empty = 0;
    return pool_round(self, v, 4);
release_2:
    PyBuffer_Release(&v[2]);
release_1:
    PyBuffer_Release(&v[1]);
release_0:
    PyBuffer_Release(&v[0]);
    return NULL;
}

/* empty_round() -> bool: the barriers of a round, no task */
static PyObject *
Pool_empty_round(Pool *self, PyObject *const *args, Py_ssize_t nargs)
{
    (void)args;
    if (check_nargs("empty_round", nargs, 0) < 0 || check_usable(self) < 0)
        return NULL;
    self->shared->empty = 1;
    return pool_round(self, NULL, 0);
}

/* close(join_timeout) -> threads left running */
static PyObject *
Pool_close(Pool *self, PyObject *const *args, Py_ssize_t nargs)
{
    double join_timeout;
    int left;

    if (check_nargs("close", nargs, 1) < 0)
        return NULL;
    if (self->busy) {
        PyErr_SetString(PyExc_RuntimeError, "a round is in flight");
        return NULL;
    }
    join_timeout = PyFloat_AsDouble(args[0]);
    if (join_timeout == -1.0 && PyErr_Occurred())
        return NULL;
    Py_BEGIN_ALLOW_THREADS
    left = pool_stop(self, join_timeout);
    Py_END_ALLOW_THREADS
    release_held(self);
    return PyLong_FromLong(left);
}

static PyMethodDef Pool_methods[] = {
    {"assign", FASTCALL(Pool_assign),
     "assign(assignment): task tid runs on worker assignment[tid]."},
    {"round", FASTCALL(Pool_round),
     "round(t, y, p, out, times) -> bool: every task, level by level; "
     "False when a worker missed the timeout (the pool is then broken)."},
    {"empty_round", FASTCALL(Pool_empty_round),
     "empty_round() -> bool: a round's barriers without its tasks."},
    {"close", FASTCALL(Pool_close),
     "close(join_timeout) -> int: stop and join the threads; returns "
     "how many did not stop in time.  Idempotent."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject PoolType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.codegen._native.Pool",
    .tp_basicsize = sizeof(Pool),
    .tp_dealloc = (destructor)Pool_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "Pool(unit, num_workers, levels, timeout): num_workers - 1 "
              "threads that run the unit's tasks level by level with the "
              "caller; levels lists the task ids of each dependency level "
              "and timeout (seconds) bounds each barrier wait.",
    .tp_methods = Pool_methods,
    .tp_new = Pool_new,
};

/* The unit's exports, in the order native_open() uses them. */
static const char *const EXPORTS[] = {
    "NUM_STATES", "NUM_PARTIALS", "NUM_TASKS", "RHS", "run_tasks", "START",
    "PARAMS", "JAC_NNZ", "JAC",
};

/* open(path, num_states, num_partials, num_tasks, num_params, nnz) */
static PyObject *
native_open(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    Py_ssize_t want[5];
    void *sym[9];
    int got[4] = {0, 0, 0, -1}, k, num_exports;
    const char *path;
    Unit *unit;

    (void)module;
    if (check_nargs("open", nargs, 6) < 0)
        return NULL;
    path = PyUnicode_AsUTF8(args[0]);
    if (path == NULL)
        return NULL;
    for (k = 0; k < 5; ++k) {
        want[k] = PyLong_AsSsize_t(args[k + 1]);
        if (want[k] == -1 && PyErr_Occurred())
            return NULL;
    }
    unit = PyObject_New(Unit, &UnitType);
    if (unit == NULL)
        return NULL;
    unit->handle = dlopen(path, RTLD_NOW | RTLD_LOCAL);
    if (unit->handle == NULL) {
        const char *why = dlerror();
        PyErr_Format(PyExc_OSError, "cannot load native unit %s: %s", path,
                     why != NULL ? why : "dlopen failed");
        goto fail;
    }
    /* JAC_NNZ and JAC only when the caller expects a Jacobian. */
    num_exports = want[4] >= 0 ? 9 : 7;
    for (k = 0; k < num_exports; ++k) {
        sym[k] = dlsym(unit->handle, EXPORTS[k]);
        if (sym[k] == NULL) {
            PyErr_Format(PyExc_OSError, "native unit %s does not export %s",
                         path, EXPORTS[k]);
            goto fail;
        }
    }
    for (k = 0; k < 3; ++k)
        got[k] = ((probe_fn)sym[k])();
    if (num_exports == 9)
        got[3] = ((probe_fn)sym[7])();
    if (got[0] != want[0] || got[1] != want[1] || got[2] != want[2]
            || (num_exports == 9 && got[3] != want[4])) {
        PyErr_Format(PyExc_OSError, "native module %s layout mismatch: "
                     "(states, partials, tasks, jac nnz) = (%d, %d, %d, %d), "
                     "expected (%zd, %zd, %zd, %zd)", path, got[0], got[1],
                     got[2], got[3], want[0], want[1], want[2], want[4]);
        goto fail;
    }
    unit->rhs = (eval_fn)sym[3];
    unit->run_tasks = (run_fn)sym[4];
    unit->start = (fill_fn)sym[5];
    unit->params = (fill_fn)sym[6];
    unit->jac = num_exports == 9 ? (eval_fn)sym[8] : NULL;
    unit->num_states = want[0];
    unit->num_results = want[0] + want[1];
    unit->num_tasks = want[2];
    unit->num_params = want[3];
    unit->nnz = want[4];
    return (PyObject *)unit;
fail:
    Py_DECREF(unit);
    return NULL;
}

static PyMethodDef native_methods[] = {
    {"open", FASTCALL(native_open),
     "open(path, num_states, num_partials, num_tasks, num_params, nnz)"
     " -> Unit; nnz < 0 means the unit has no JAC."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_native",
    .m_doc = "Calls the exports of repro's generated native units.",
    .m_size = -1,
    .m_methods = native_methods,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    PyObject *module;

    if (PyType_Ready(&UnitType) < 0 || PyType_Ready(&PoolType) < 0)
        return NULL;
    module = PyModule_Create(&native_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddObjectRef(module, "Unit", (PyObject *)&UnitType) < 0
            || PyModule_AddObjectRef(module, "Pool",
                                     (PyObject *)&PoolType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
