package array

// Index-space helpers for callers that walk a whole shape (Rotate, Reverse,
// Where).  The with-loop engine has a walk of its own (withloop.go).

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
