package array

// Index-space helpers for callers that walk a whole shape (Rotate, Reverse,
// Where).  The with-loop engine has a walk of its own (withloop.go).

// NextIndex advances iv through the row-major order of the given shape and
// reports whether iv is still in bounds.  Start iteration with the all-zero
// vector; NextIndex mutates iv in place.
func NextIndex(iv, shape []int) bool {
	for d := len(shape) - 1; d >= 0; d-- {
		iv[d]++
		if iv[d] < shape[d] {
			return true
		}
		iv[d] = 0
	}
	return false
}

// LinearToIndex converts a row-major linear offset within the given shape to
// an index vector written into out (which must have len(shape)).
func LinearToIndex(lin int, shape, out []int) {
	for d := len(shape) - 1; d >= 0; d-- {
		out[d] = lin % shape[d]
		lin /= shape[d]
	}
}

// IndexToLinear converts a full index vector to its row-major linear offset
// within the given shape.
func IndexToLinear(iv, shape []int) int {
	off := 0
	for d := range shape {
		off = off*shape[d] + iv[d]
	}
	return off
}
