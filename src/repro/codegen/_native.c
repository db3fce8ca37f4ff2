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
 * The generated units stay plain C (<math.h>, <time.h>): only this file
 * includes <Python.h>, and it is built once per machine and interpreter.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <dlfcn.h>
#include <string.h>

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

#define SMALL_IDS 64

/* run_tasks(ids, t, y, p, out, times): the tasks of the sequence ids in
 * order, in one C call; each one's wall seconds go to times[id]. */
static PyObject *
Unit_run_tasks(Unit *self, PyObject *const *args, Py_ssize_t nargs)
{
    int small[SMALL_IDS], *ids = small;
    Py_buffer y, p, out, times;
    PyObject *seq, *result = NULL;
    Py_ssize_t n, k;
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
    for (k = 0; k < n; ++k) {
        long id = PyLong_AsLong(PySequence_Fast_GET_ITEM(seq, k));
        if (id == -1 && PyErr_Occurred())
            goto free_ids;
        if (id < 0 || id >= self->num_tasks) {
            PyErr_Format(PyExc_ValueError, "ids[%zd] = %ld is not one of "
                         "the unit's %zd tasks", k, id, self->num_tasks);
            goto free_ids;
        }
        ids[k] = (int)id;
    }
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

    if (PyType_Ready(&UnitType) < 0)
        return NULL;
    module = PyModule_Create(&native_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&UnitType);
    if (PyModule_AddObject(module, "Unit", (PyObject *)&UnitType) < 0) {
        Py_DECREF(&UnitType);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
