/* Compiled execution kernel for packed MAC programs.
 *
 * Semantics are defined by the pure-Python twin in _kernel_py.py; the two
 * must stay bit-identical. The fault-mux branch in the loop below is the
 * twin of _kernel_py.engaged, the Python definition of the mux, from which
 * the emulator also takes its trace events. Arguments arrive through the
 * buffer protocol and are checked for C contiguity, dimensionality, integer
 * kind and item size before the loop runs; act_idx/w_idx must be
 * (n, lanes) because rows are indexed flat. Index values are not checked
 * here: LayerProgram.packed range-checks a program's unit, dest, act_idx
 * and w_idx once, when it first builds the rows, before any kernel reads
 * them. The hot loop releases the GIL.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#define N_ARRAYS 11

enum { UNIT, DEST, ACT_IDX, W_IDX, ACT_FLAT, W_FLAT, ACC, FMODE, FVALUE, FSTART, FLEN };

static const struct {
    const char *name;
    int ndim;
    int is_signed;
    Py_ssize_t itemsize;
} SPECS[N_ARRAYS] = {
    {"unit", 1, 1, 4}, {"dest", 1, 1, 4}, {"act_idx", 2, 1, 4}, {"w_idx", 2, 1, 4},
    {"act_flat", 1, 1, 1}, {"w_flat", 1, 1, 1}, {"acc", 1, 1, 4},
    {"fmode", 1, 0, 1}, {"fvalue", 1, 1, 4}, {"fstart", 1, 1, 8}, {"flen", 1, 1, 8},
};

/* 1 when a struct-module format string names one native integer of the
 * wanted signedness; the item size is checked separately. */
static int integer_format(const char *fmt, int is_signed)
{
    if (fmt[0] == '@' || fmt[0] == '=')
        fmt++;
    return fmt[0] != '\0' && fmt[1] == '\0'
        && strchr(is_signed ? "bhilqn" : "BHILQN", fmt[0]) != NULL;
}

static int get_array(PyObject *obj, int k, Py_buffer *view)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (k == ACC ? PyBUF_WRITABLE : 0);
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->ndim != SPECS[k].ndim) {
        PyErr_Format(PyExc_ValueError, "%s: expected %d dimension(s), got %d",
                     SPECS[k].name, SPECS[k].ndim, view->ndim);
    } else if (view->itemsize != SPECS[k].itemsize
               || !integer_format(view->format ? view->format : "B", SPECS[k].is_signed)) {
        PyErr_Format(PyExc_ValueError, "%s: expected %s %zd-byte integers, got format '%s'",
                     SPECS[k].name, SPECS[k].is_signed ? "signed" : "unsigned",
                     SPECS[k].itemsize, view->format ? view->format : "B");
    } else {
        return 0;
    }
    PyBuffer_Release(view);
    return -1;
}

static inline int64_t sat32(int64_t v) { return v > INT32_MAX ? INT32_MAX : v < INT32_MIN ? INT32_MIN : v; }

static PyObject *run_program(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer v[N_ARRAYS];
    int got = 0;
    PyObject *result = NULL;
    if (nargs != N_ARRAYS + 2)
        return PyErr_Format(PyExc_TypeError, "run_program() takes exactly %d arguments (%zd given)",
                            N_ARRAYS + 2, nargs);
    Py_ssize_t lanes = PyNumber_AsSsize_t(args[N_ARRAYS], PyExc_OverflowError);
    if (lanes == -1 && PyErr_Occurred())
        return NULL;
    long long cycle0 = PyLong_AsLongLong(args[N_ARRAYS + 1]);
    if (cycle0 == -1 && PyErr_Occurred())
        return NULL;
    for (; got < N_ARRAYS; got++)
        if (get_array(args[got], got, &v[got]) < 0)
            goto done;

    Py_ssize_t n = v[UNIT].shape[0];
    for (int k = DEST; k <= W_IDX; k++) {
        Py_ssize_t want = k == DEST ? 1 : lanes, width = k == DEST ? 1 : v[k].shape[1];
        if (v[k].shape[0] != n || width != want) {
            PyErr_Format(PyExc_ValueError, "%s: expected %zd rows of %zd, got %zd rows of %zd",
                         SPECS[k].name, n, want, v[k].shape[0], width);
            goto done;
        }
    }

    const int32_t *unit = v[UNIT].buf, *dest = v[DEST].buf, *fvalue = v[FVALUE].buf;
    const int32_t *act_idx = v[ACT_IDX].buf, *w_idx = v[W_IDX].buf;
    const int8_t *act_flat = v[ACT_FLAT].buf, *w_flat = v[W_FLAT].buf;
    int32_t *acc = v[ACC].buf;
    const uint8_t *fmode = v[FMODE].buf;
    const int64_t *fstart = v[FSTART].buf, *flen = v[FLEN].buf;

    Py_BEGIN_ALLOW_THREADS
    for (Py_ssize_t i = 0; i < n; i++) {
        const int64_t cyc = cycle0 + i;
        const int32_t *ai_row = act_idx + i * lanes, *wi_row = w_idx + i * lanes;
        const Py_ssize_t f0 = (Py_ssize_t)unit[i] * lanes;
        int64_t mac = 0;
        for (Py_ssize_t l = 0; l < lanes; l++) {
            const int32_t ai = ai_row[l];
            if (ai == -2)
                continue;  /* idle lane: gated, fault mux bypassed */
            const Py_ssize_t fi = f0 + l;
            int64_t prod = (int64_t)(ai == -1 ? 0 : act_flat[ai]) * w_flat[wi_row[l]];
            const uint8_t m = fmode[fi];
            if (m == 1)
                prod = 0;
            else if (m == 2 || (m == 3 && fstart[fi] <= cyc && cyc < fstart[fi] + flen[fi]))
                prod = fvalue[fi];
            mac += prod;
        }
        int32_t *slot = acc + dest[i];
        *slot = (int32_t)sat32(*slot + sat32(mac));
    }
    Py_END_ALLOW_THREADS
    result = PyLong_FromLongLong(cycle0 + n);

done:
    while (got > 0)
        PyBuffer_Release(&v[--got]);
    return result;
}

static PyMethodDef methods[] = {
    {"run_program", (PyCFunction)(void (*)(void))run_program, METH_FASTCALL,
     "run_program(unit, dest, act_idx, w_idx, act_flat, w_flat, acc, fmode, fvalue, fstart, flen,"
     " lanes, cycle0) -> int\n\nSee _kernel_py.run_program; identical contract."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "macfi._kernel",
    .m_doc = "Compiled execution kernel for packed MAC programs.",
    .m_size = -1,
    .m_methods = methods,
};

PyMODINIT_FUNC PyInit__kernel(void)
{
    PyObject *m = PyModule_Create(&module);
    if (m != NULL && PyModule_AddStringConstant(m, "BACKEND", "compiled") < 0)
        Py_CLEAR(m);
    return m;
}
