// Package la provides the single-place linear algebra kernels underlying
// the GML reproduction: dense column-major matrices, compressed sparse
// column/row matrices, vectors, and deterministic random builders.
//
// It corresponds to GML's single-place classes (x10.matrix.DenseMatrix,
// x10.matrix.sparse.SparseCSC / SparseCSR, x10.matrix.Vector) plus the
// BLAS-like kernels the paper delegated to OpenBLAS. Everything here is
// pure Go and deterministic, which the resilience tests rely on: a
// computation replayed after recovery must reproduce the failure-free
// result bit for bit.
//
// The hot kernels (GEMM, GEMV, the mixed dense/sparse accumulations, and
// the vector reductions) are cache-tiled and run on the deterministic
// intra-place worker pool of internal/par. Unlike a multithreaded BLAS,
// the decomposition is a function of the problem shape only — never of
// the worker count — and reduction partials fold in a fixed order, so
// results are bit-identical from workers=1 to workers=N (the property a
// multithreaded OpenBLAS would have cost the paper's framework). The
// worker count is runtime.NumCPU() by default, configurable via
// RGML_WORKERS, apgas.WithKernelWorkers, or the -workers CLI flags.
package la

import "fmt"

// checkDim panics with a descriptive message when a dimension precondition
// is violated. Dimension mismatches are programming errors, not runtime
// conditions, so they panic rather than return errors (as in gonum and GML).
// The arguments are ints, boxed only on the failure path: an ...any
// parameter would heap-allocate every dimension above 255 on every kernel
// call.
func checkDim(ok bool, format string, args ...int) {
	if !ok {
		boxed := make([]any, len(args))
		for i, a := range args {
			boxed[i] = a
		}
		panic("la: " + fmt.Sprintf(format, boxed...))
	}
}
