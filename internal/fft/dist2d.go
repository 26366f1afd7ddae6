package fft

import (
	"fmt"

	"fxpar/internal/dist"
	"fxpar/internal/machine"
)

// Dist2D computes the 2D FFT of a distributed N-by-N array using the
// transpose method the sensor applications inline: row FFTs, corner turn,
// row FFTs, corner turn back. src and dst must be row-block 2D arrays of
// the same square shape over the same group; work and work2 are scratch
// arrays with the same layout (callers reuse them across data sets). The
// result lands in dst in natural orientation. Returns nothing; cost is
// charged to the calling processors.
//
// Sequence: dst = F_cols(F_rows(src)) computed as
// transpose(F_rows(transpose(F_rows(src)))).
func Dist2D(p *machine.Proc, dst, src, work *dist.Array[complex128], inverse bool) {
	shape := src.Layout().Shape()
	if len(shape) != 2 || shape[0] != shape[1] {
		panic(fmt.Sprintf("fft: Dist2D needs a square 2D array, got %v", shape))
	}
	n := shape[0]
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("fft: Dist2D size %d is not a power of two", n))
	}
	// Row FFTs on the source, into dst's storage via local compute: copy
	// src locals to work, transform, transpose into dst, transform again,
	// transpose back.
	if work.IsMember() {
		copy(work.Local(), src.Local())
		p.Compute(rows(work.Local(), n, inverse))
	}
	dist.Transpose2D(p, dst, work)
	if dst.IsMember() {
		p.Compute(rows(dst.Local(), n, inverse))
	}
	dist.Transpose2D(p, work, dst)
	if work.IsMember() {
		copy(dst.Local(), work.Local())
	}
}
